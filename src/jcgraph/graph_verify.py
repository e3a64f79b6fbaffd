"""Operator-graph verification: anticliques, identity membership, transmission.

The verified structure is the span V of the time-translated projector
family {U_t P^j_x U_t+}, where P^1_x and P^2_x are coherent-state
projectors on the two increasing Jaynes-Cummings ladders and P^3 is the
projector onto the protected block H3.  Because H3 is spanned by energy
eigenvectors orthogonal to both ladders, P^3 A P^3 = alpha(A) P^3 for
every generator A, which is the Knill-Laflamme condition making H3 an
anticlique of the graph: every error in V acts on H3 as a scalar, so it is
not merely correctable but undetectable there, and states in H3 pass
through unchanged.

Membership of the identity in V is certified constructively through the
weighted element

    Q_x = P^1_x + (tau2/tau1)(x) P^2_x + (R tau1(x))^{-1} P^3,

whose integral int tau1(x) BohrMean_t[U_t Q_x U_t+] dx reproduces the
identity on the truncated space (minus the decoupled |N, e> direction).
The third coefficient carries the extra 1/R so that its radial integral
is exactly one; this requires a finite convergence radius, so
``verify_identity_membership`` takes the moment diagonals of such a family
(``verify`` passes the built-in "uniform_moment"'s) and reads the ladders J
and S off the cut.

``anticlique_certificate`` proves the anticlique for every generator at
once, and ``channel_certificate`` bounds the channel's output on every code
state at every (x, t), both from the dressed frame and its index partition,
with no sample.  The only state ``verify`` sends through the channel is the
leak probe, its negative control.  Commands hold every state in dressed
coordinates; only the dense reference forms embed one in the product basis.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Sequence

import numpy as np

from .code_construction import CodeSpec
from .gk_states import GKFamilySpec, _kept_probabilities, _phases
from .hilbert import ValidationError


class CodeLeakageError(ValueError):
    """Transmission input has support outside the code subspace."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


@dataclass(frozen=True)
class CheckRecord:
    """One named check, which passes when its residual is below its tolerance: a
    NaN residual fails, and so does a refusal, held at tolerance 0.  ``alpha`` and
    the stderr-only ``reason`` are keyword-only."""

    name: str
    residual: float
    tolerance: float
    _: KW_ONLY
    alpha: complex | None = None
    reason: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "alpha_re": None if self.alpha is None else float(self.alpha.real),
            "alpha_im": None if self.alpha is None else float(self.alpha.imag),
        }


@dataclass
class VerificationReport:
    """A list of check records with an aggregate verdict."""

    checks: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks],
                "overall_pass": self.overall_pass}


@dataclass(frozen=True)
class GraphGenerator:
    """Realized graph generator U_t P^j_x U_t+ with its sample point."""

    j: int
    x: float
    t: float
    operator: np.ndarray


def ladder_vector(spec: GKFamilySpec, x: float, t: float) -> np.ndarray:
    """|x, t>, which spans U_t P^j_x U_t+, as unit amplitudes on ``spec.index``:
    the kept coefficients (``gk_states._kept_probabilities``) renormalized, so the
    generator is an exact projector for every x in [0, R), not only where the
    tail is small.  Built in place: the probabilities row and the output, no more."""
    p, mass = _kept_probabilities(spec, x)
    amps = _phases(spec, t)
    amps *= np.sqrt(np.divide(p, mass, out=p), out=p)
    return amps


def _ladder_projector(spec: GKFamilySpec, x: float, t: float) -> np.ndarray:
    v = spec.frame.embed(spec.index, ladder_vector(spec, x, t))
    return np.outer(v, v.conj())


def generator(code: CodeSpec, families: Sequence[GKFamilySpec],
              j: int, x: float, t: float) -> GraphGenerator:
    """Build the graph generator for index j in {1, 2, 3} at sample (x, t).

    j = 3 returns the H3 projector itself (it is invariant under the
    evolution); j = 1, 2 return the coherent-state projector of the
    corresponding ladder at phase time t, using the covariance
    U_t P^j_x U_t+ = |x, t><x, t|.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {j}")
    if j == 3:
        op = code.p3.astype(complex)
    else:
        op = _ladder_projector(families[j - 1], x, t)
    return GraphGenerator(j=j, x=x, t=t, operator=op)


def verify_identity_membership(code: CodeSpec, diagonals: Sequence[np.ndarray]) -> float:
    """Max entrywise deviation of the reconstructed identity from I.

    The reconstruction is the radial integral of tau1(x) times the Bohr
    mean of U_t Q_x U_t+.  The Bohr mean is taken analytically per ladder
    (each ladder is strictly increasing, so only diagonal terms in its
    embedded basis survive), which turns the integral into moment form:
    the ladder diagonals become int rho_i(x) x^k dx / c_k, given for the
    cut's ladders J = ``code.j_indices`` and S = ``code.s_indices`` in
    ``diagonals`` (k = 0..terms-1, as ``verify_resolution`` takes them),
    and the H3 term int_0^R tau1(x) / (R tau1(x)) dx is exactly 1.
    Precondition: both diagonals belong to one family of finite radius R,
    which the H3 term assumes and d_k does not carry.  J, S and H3 are
    views of the code's partition of the dressed indices, so one dressed
    weight vector holds all three and the result is read off the blocks of
    ``code.frame``.  The decoupled |N, e> direction, the frame's last index,
    is excluded: no generator has support there, so the reconstruction is zero there.
    """
    weights = np.zeros(code.frame.energies.size)
    weights[code.j_indices], weights[code.s_indices] = diagonals
    weights[code.h3_indices] = 1.0
    diag, off = code.frame.block_entries(weights)
    return float(max(np.abs(diag[:-1] - 1.0).max(), np.abs(off).max()))


def knill_laflamme_check(p: np.ndarray, ops: Sequence, tol: float = 1e-8,
                         names: Sequence[str] | None = None) -> VerificationReport:
    """Check P A P = alpha(A) P for each operator, fitting alpha by trace.

    alpha(A) = trace(P A P) / rank(P); the residual is the max entrywise
    deviation of P A P from alpha P.
    """
    p = np.asarray(p, dtype=complex)
    idem = np.abs(p @ p - p).max()
    if idem > 1e-9:
        raise ValidationError(f"P is not a projector: max |P^2 - P| = {idem:.3e}")
    rank = round(float(np.trace(p).real))
    if rank < 1:
        raise ValidationError("P has rank 0")
    report = VerificationReport()
    for i, a in enumerate(ops):
        a = np.asarray(getattr(a, "operator", a), dtype=complex)
        pap = p @ a @ p
        alpha = complex(np.trace(pap)) / rank
        residual = float(np.abs(pap - alpha * p).max())
        name = names[i] if names is not None else f"op[{i}]"
        report.checks.append(CheckRecord(name, residual, tol, alpha=alpha))
    return report


@dataclass(frozen=True)
class AnticliqueCertificate:
    """For every generator A: |P3 A P3 - alpha(A) P3| <= ``residual``, |alpha(A)|
    <= ``alpha_zero`` on the ladders; and alpha(I) = ``alpha_identity``."""

    residual: float
    alpha_zero: float
    alpha_identity: complex


def anticlique_certificate(code: CodeSpec) -> AnticliqueCertificate:
    """Bound the Knill-Laflamme check of P3 = W W+ over every generator of the
    graph, in O(N) off the dressed frame and its index partition.

    W = V E_H3, the frame's columns at the k0 ``h3_indices``, is never formed;
    a generator A enters as W+ A W, with alpha(A) = tr(W+ A W) / k0.  As
    V+ V = diag(g) (``DressedFrame.norms``), W+ W = diag(g) and M = V+ W =
    diag(g) E_H3 exactly.  A unit v = V[:, idx] a on a ladder (idx =
    ``j_indices`` or ``s_indices``), which holds every |x, t>, has
    u = W+ v = M[idx]+ a, so |u|^2 <= sigma^2 = max g^2 over (J u S) n H3
    (0 if disjoint) and |alpha| = |u|^2 / k0 <= sigma^2 / k0 (``alpha_zero``).
    ||u u+ - alpha I|| <= |u|^2, so by Cauchy-Schwarz every entry of
    W (u u+ - alpha I) W+ is at most max(g) sigma^2.  ``residual`` is the
    larger of that and P3's own residual max |W (diag(g^2) - alpha I) W+|,
    alpha = mean(g^2), on the diagonal of each block: a block's two columns
    share g, and |c s| <= max(c^2, s^2).  alpha is linear in A, so the bounds
    hold on the generators' whole span.  ``alpha_identity`` = mean(g) =
    alpha(I) reads the scale of W, which the bounds take as given.
    """
    h3, norms = code.h3_indices, code.frame.norms
    k0 = h3.size
    on_ladder = np.zeros(norms.size, dtype=bool)
    on_ladder[code.j_indices] = on_ladder[code.s_indices] = True
    g = norms[h3]
    g2 = g * g
    sigma2 = float(g2[on_ladder[h3]].max(initial=0.0))
    shifted = np.zeros(norms.size)
    shifted[h3] = g2 - g2.sum() / k0
    r3 = np.abs(code.frame.block_entries(shifted)[0]).max()
    return AnticliqueCertificate(
        residual=max(float(g.max()) * sigma2, float(r3)),
        alpha_zero=sigma2 / k0, alpha_identity=complex(g.sum() / k0))


@dataclass(frozen=True)
class Channel:
    """Projective (von Neumann) channel rho -> sum_k P_k rho P_k."""

    projectors: tuple

    def __post_init__(self) -> None:
        total = np.zeros_like(np.asarray(self.projectors[0], dtype=complex))
        for i, p in enumerate(self.projectors):
            p = np.asarray(p, dtype=complex)
            if np.abs(p - p.conj().T).max() > 1e-9:
                raise ValidationError(f"channel projector {i} is not Hermitian")
            if np.abs(p @ p - p).max() > 1e-9:
                raise ValidationError(f"channel projector {i} is not idempotent")
            total = total + p
        dev = np.abs(total - np.eye(total.shape[0])).max()
        if dev > 1e-9:
            raise ValidationError(
                f"channel projectors do not sum to identity: max dev {dev:.3e}")


def projective_channel(projectors: Sequence[np.ndarray]) -> Channel:
    """Validate and wrap a complete family of orthogonal projectors."""
    return Channel(projectors=tuple(np.asarray(p, dtype=complex)
                                    for p in projectors))


def dephasing_channel(families: Sequence[GKFamilySpec], x: float,
                      t: float) -> Channel:
    """The measurement channel induced by the graph at sample (x, t).

    Kraus projectors: the two time-translated ladder projectors and the
    complement U_t (I - P^1_x - P^2_x) U_t+.
    """
    p1 = _ladder_projector(families[0], x, t)
    p2 = _ladder_projector(families[1], x, t)
    rest = np.eye(p1.shape[0], dtype=complex) - p1 - p2
    return projective_channel((p1, p2, rest))


def channel_apply(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the projective channel to a density operator (validated)."""
    rho = np.asarray(rho, dtype=complex)
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValidationError("rho is not Hermitian within 1e-9")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"rho has trace {tr}, expected 1")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -1e-9:
        raise ValidationError(f"rho has negative eigenvalue {lo:.3e}")
    out = np.zeros_like(rho)
    for p in channel.projectors:
        out = out + p @ rho @ p
    return out


def _on_ladders(size: int, j_indices: np.ndarray, s_indices: np.ndarray) -> np.ndarray:
    """Mask of J u S among ``size`` dressed indices; ``ValidationError`` if they meet."""
    on_ladder = np.zeros(size, dtype=bool)
    on_ladder[j_indices] = True
    shared = int(on_ladder[s_indices].sum())
    if shared:
        raise ValidationError(f"channel projectors 0 and 1 overlap: J and S "
                              f"share {shared} dressed indices")
    on_ladder[s_indices] = True
    return on_ladder


def dephase_pure_state(families: Sequence[GKFamilySpec], ladders: Sequence[np.ndarray],
                       v: np.ndarray) -> float:
    """The fidelity of ``dephasing_channel`` at (x, t) applied to |v><v| with the
    input, in O(N): ``ladders`` are ``ladder_vector`` at (x, t), ``v`` one
    coordinate per dressed index, of trace ||v||^2 = 1 within 1e-9.

    Under V+ V = diag(g) (``DressedFrame.norms``) the ladder vectors v_i =
    V[:, idx_i] a_i, idx_i = ``families[i].index``, have ||v_i||^2 =
    sum |a_i|^2 g and c_i = <v_i|v> = sum conj(a_i) g v[idx_i], and <v1|v2> = 0
    as J and S share no index (``_on_ladders``).  So |v1><v1|, |v2><v2| and
    I - both are a channel when ||v_i|| = 1, checked to 1e-9 as Channel checks
    its projectors.  With p_i = |c_i|^2, the branches c1 v1, c2 v2 and v - both
    give, v being pure, the fidelity p1^2 + p2^2 + (||v||^2 - p1 - p2)^2.
    """
    norms = families[0].frame.norms
    tr = float(np.abs(v) ** 2 @ norms)
    if not abs(tr - 1.0) <= 1e-9:  # NaN fails every check here
        raise ValidationError(f"rho has trace {tr}, expected 1")
    p = np.empty(2)
    for i, (spec, a) in enumerate(zip(families, ladders)):
        ga = norms[spec.index] * a
        dev = abs(math.sqrt(np.vdot(a, ga).real) - 1.0)
        if not dev <= 1e-9:
            raise ValidationError(f"channel projector {i} is not idempotent: "
                                  f"| ||v|| - 1 | = {dev:.3e}")
        p[i] = abs(np.vdot(ga, v[spec.index])) ** 2
    _on_ladders(norms.size, families[0].index, families[1].index)
    return float(np.minimum(1.0, p @ p + (tr - p.sum()) ** 2))


def channel_certificate(code: CodeSpec) -> tuple:
    """Bounds (trace_preservation, code_fidelity) on |trace - 1| and 1 - fidelity
    of ``dephasing_channel``'s output, for every unit code state at every
    (x, t), in O(N) off the dressed frame and its index partition.

    V+ V = diag(g) (``DressedFrame.norms``).  At (x, t) the ladder vectors are
    v1 = V[:, J] a1 and v2 = V[:, S] a2 with unit a1, a2 (``ladder_vector``),
    so ||v_i||^2 lies in the range of g on its ladder; a code state v = V[:, C]
    a, |a| = 1, C = ``h3_indices[:-1]``, has ||v||^2 = sum |a_k|^2 g_k.  Where
    J, S and C are disjoint, <v1|v2>, <v1|v> and <v2|v> vanish, so the branches
    P_k v are 0, 0 and v: the trace is ||v||^2 and the fidelity its square at
    every (x, t).  Hence trace_preservation = max over C of |g - 1| and
    code_fidelity = max over C of max(0, 1 - g^2), each attained by a code
    basis vector.  A code index on a ladder is measured at some (x, t), so
    code_fidelity is then 1.  Where |sqrt g - 1| > 1e-9 on J or S, or J and S
    meet (``_on_ladders``, which both check), some (x, t) gives no channel:
    ``ValidationError`` carries the reason ``dephase_pure_state`` would give.
    Both bounds are numpy reductions, so a NaN in g reads NaN and fails it.
    """
    g = code.frame.norms
    for i, idx in enumerate((code.j_indices, code.s_indices)):
        dev = np.abs(np.sqrt(g[idx]) - 1.0).max(initial=0.0)
        if not dev <= 1e-9:
            raise ValidationError(f"channel projector {i} is not idempotent: "
                                  f"max | ||v|| - 1 | = {dev:.3e}")
    on_ladder = _on_ladders(g.size, code.j_indices, code.s_indices)
    code_idx = code.h3_indices[:-1]
    gc = g[code_idx]
    loss = (1.0 if on_ladder[code_idx].any()
            else float(np.maximum(0.0, 1.0 - gc * gc).max(initial=0.0)))
    return float(np.abs(gc - 1.0).max(initial=0.0)), loss


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    When either argument is pure the overlap formula tr(rho sigma) is
    used instead; the general square-root route loses ~sqrt(eps) of
    accuracy near eigenvalue zero, which matters when fidelities must be
    resolved against 1 - 1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for a, b in ((rho, sigma), (sigma, rho)):
        # tr(a a) and tr(a b) as O(dim^2) sums, exact for any square input
        purity = float(np.einsum("ij,ji->", a, a).real)
        if abs(purity - 1.0) < 1e-12:
            return float(min(1.0, np.einsum("ij,ji->", a, b).real))
    s = _sqrtm_psd(rho)
    inner = s @ sigma @ s
    vals = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    return float(min(1.0, np.sqrt(vals).sum() ** 2))


def transmit_demo(code: CodeSpec, families: Sequence[GKFamilySpec], x: float,
                  t: float, rho_code: np.ndarray) -> float:
    """Send a code-supported state through the graph channel; return fidelity.

    States supported on the code subspace are fixed points of every
    channel in the family, so the fidelity is 1 up to rounding.  Input
    with support outside the code subspace is rejected, reporting the
    leakage magnitude.
    """
    rho = np.asarray(rho_code, dtype=complex)
    pc = code.code_projector
    leak = float(np.abs(pc @ rho @ pc - rho).max())
    if leak >= 1e-10:
        raise CodeLeakageError(
            f"input state leaks outside the code subspace: max residual {leak:.3e}",
            leakage=leak)
    channel = dephasing_channel(families, x, t)
    return fidelity(rho, channel_apply(channel, rho))


def leak_probe(code: CodeSpec, a1: np.ndarray) -> np.ndarray:
    """Deliberately leaked pure state in dressed coordinates, of unit norm: the
    first code vector plus the J ladder state ``a1`` (``ladder_vector``), each
    scaled by 1 / ||v||, with ||v||^2 = sum |a1|^2 g + g read off v's support.

    Used as the negative control: the ladder component is measured out by
    the channel, so the transmission fidelity drops well below 1.
    """
    g, h0 = code.frame.norms, code.h3_indices[0]
    scale = 1.0 / math.sqrt(float(np.abs(a1) ** 2 @ g[code.j_indices]) + g[h0])
    v = np.zeros(g.size, dtype=complex)
    v[code.j_indices] = scale * a1
    v[h0] = scale
    return v
