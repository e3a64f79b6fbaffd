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
is exactly one; this requires a finite convergence radius, hence the
built-in "uniform_moment" family.

The sampled checks run on batches: ``ladder_vector``, ``frame_generator``
and ``dephase_pure_state`` take 1-D arrays of samples as well as single
ones, and return one column, one k0 x k0 matrix or one entry per sample,
from a fixed number of array operations however many samples there are;
``knill_laflamme_frame`` takes a stack of frame matrices.  A single sample
runs the same code on 1-D arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .code_construction import CodeSpec
from .gk_states import GKFamilySpec, TruncationTooSmallError, _phases, _required_n
from .hilbert import TruncationConfig, ValidationError


class UnsupportedFamilyError(ValueError):
    """Identity membership requested with an unsuitable weight family."""


class InvalidDensityError(ValueError):
    """Channel input is not a density operator within tolerance."""


class CodeLeakageError(ValueError):
    """Transmission input has support outside the code subspace."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


@dataclass(frozen=True)
class CheckRecord:
    """One named check: residual against tolerance, optional alpha, stderr-only reason."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    alpha: complex | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
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

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

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


def ladder_vector(spec: GKFamilySpec, x, t) -> np.ndarray:
    """Unit vector |x, t> of the ladder, spanning the generator U_t P^j_x U_t+.

    For 1-D arrays x and t the result is a dim x n matrix, one column per
    pair (x[i], t[i]), from one ``probabilities`` call and one 2-D
    ``embed``.  The truncated coefficients are renormalized so the
    generator is an exact projector for every x in [0, R), not only where
    the tail is small.  Where every kept coefficient underflows there is
    nothing to renormalize: ``TruncationTooSmallError`` reports, for the
    first such x, the photon cutoff that would meet the default tail
    tolerance.
    """
    p = spec.family.probabilities(x, spec.terms - 1)
    # the squared norm of |x, t> is its kept mass: the frame is orthonormal
    mass = p.sum(axis=-1, keepdims=True)
    if not mass.all():
        x = float(np.ravel(x)[np.flatnonzero(mass == 0.0)[0]])
        need = _required_n(spec, x, TruncationConfig.tail_tol)
        raise TruncationTooSmallError(
            f"the {spec.label} ladder keeps no coefficient mass at x = {x}; "
            f"it needs a photon cutoff N >= {need}", required_n=need)
    return spec.frame.embed(spec.index, (np.sqrt(p / mass) * _phases(spec, t)).T)


def _ladder_projector(spec: GKFamilySpec, x: float, t: float) -> np.ndarray:
    v = ladder_vector(spec, x, t)
    return np.outer(v, v.conj())


def generator(code: CodeSpec, families: Sequence[GKFamilySpec],
              j: int, x: float, t: float) -> GraphGenerator:
    """Build the graph generator for index j in {1, 2, 3} at sample (x, t).

    j = 3 returns the H3 projector itself (it is invariant under the
    evolution); j = 1, 2 return the coherent-state projector of the
    corresponding ladder at phase time t, using the covariance
    U_t P^j_x U_t+ = |x, t><x, t|.
    """
    _check_generator_index(j)
    if j == 3:
        op = code.p3.astype(complex)
    else:
        op = _ladder_projector(families[j - 1], x, t)
    return GraphGenerator(j=j, x=x, t=t, operator=op)


def _check_generator_index(j: int) -> None:
    if j not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {j}")


def frame_generator(code: CodeSpec, families: Sequence[GKFamilySpec],
                    j, x, t) -> np.ndarray:
    """The generator of ``generator`` seen in the H3 frame: W+ G W, k0 x k0.

    W = code.h3_basis, so P3 = W W+.  A ladder generator |v><v| becomes
    u u+ with u = W+ v; P3 itself becomes (W+ W)^2.  For 1-D arrays j, x
    and t the result is an (n, k0, k0) stack, one sample (j[i], x[i], t[i])
    each, and each ladder's samples are the columns of one ``ladder_vector``.
    """
    js, xs, ts = np.ravel(j), np.ravel(x), np.ravel(t)
    for ji in js.tolist():
        _check_generator_index(ji)
    wh = code.h3_basis.conj().T
    out = np.empty((js.size,) + (wh.shape[0],) * 2, dtype=complex)
    for jl in (1, 2):
        pick = js == jl
        if pick.any():
            u = (wh @ ladder_vector(families[jl - 1], xs[pick], ts[pick])).T
            out[pick] = u[:, :, None] * u.conj()[:, None, :]
    if (js == 3).any():
        gram = wh @ code.h3_basis
        out[js == 3] = gram @ gram
    return out if np.ndim(j) else out[0]


def verify_identity_membership(code: CodeSpec, families: Sequence[GKFamilySpec],
                               diagonals: Sequence[np.ndarray]) -> float:
    """Max entrywise deviation of the reconstructed identity from I.

    The reconstruction is the radial integral of tau1(x) times the Bohr
    mean of U_t Q_x U_t+.  The Bohr mean is taken analytically per ladder
    (each ladder is strictly increasing, so only diagonal terms in its
    embedded basis survive), which turns the integral into moment form:
    the ladder diagonals become int rho_i(x) x^k dx / c_k, given per ladder
    in ``diagonals`` (k = 0..terms-1, as ``verify_resolution`` takes them),
    and the H3 term int_0^R tau1(x) / (R tau1(x)) dx is exactly 1.  The
    ladders (from ``jc_families(code, ...)``) and H3 are views of the code's
    partition of the dressed indices, so one dressed weight vector holds all
    three and the result is read off the blocks of ``code.frame``.  The
    decoupled |N, e> direction is excluded: no generator has support there,
    so the reconstruction is zero there.
    """
    fam1 = families[0].family
    fam2 = families[1].family
    if not math.isfinite(fam1.radius) or fam2.radius != fam1.radius:
        raise UnsupportedFamilyError(
            "identity membership needs matching finite convergence radii; "
            f"got R1 = {fam1.radius}, R2 = {fam2.radius}")
    weights = np.zeros(code.trunc.dim)
    for spec, d in zip(families, diagonals):
        weights[spec.index] = d
    weights[code.h3_indices] = 1.0
    diag, off = code.frame.block_entries(weights)
    dev = np.abs(diag - 1.0)
    dev[code.decoupled_index] = 0.0
    return float(max(dev.max(), np.abs(off).max()))


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
        report.add(CheckRecord(name=name, residual=residual, tolerance=tol,
                               passed=residual < tol, alpha=alpha))
    return report


def knill_laflamme_frame(w: np.ndarray, ms, tol: float = 1e-8) -> VerificationReport:
    """``knill_laflamme_check`` for P = W W+, each A given as M = W+ A W.

    ``ms`` is a list of k0 x k0 matrices or an (n, k0, k0) stack.
    P A P = W M W+, so alpha(A) = tr(M) / k0 and the residual
    max |P A P - alpha P| = max |W (M - alpha I) W+| is taken over the rows
    where W is nonzero; every other entry of both sides is exactly zero.
    Every alpha and residual comes from one batched product.
    """
    w = np.asarray(w, dtype=complex)
    k0 = w.shape[1]
    ortho = np.abs(w.conj().T @ w - np.eye(k0)).max()
    if ortho > 1e-9:
        raise ValidationError(
            f"W W+ is not a projector: max |W+W - I| = {ortho:.3e}")
    ws = w[np.abs(w).max(axis=1) > 0]
    ms = np.asarray(ms, dtype=complex).reshape(-1, k0, k0)
    alphas = np.trace(ms, axis1=1, axis2=2) / k0
    shifted = ms - alphas[:, None, None] * np.eye(k0)
    residuals = np.abs(ws @ shifted @ ws.conj().T).max(axis=(1, 2))
    report = VerificationReport()
    for i, (alpha, residual) in enumerate(zip(alphas.tolist(), residuals.tolist())):
        report.add(CheckRecord(name=f"op[{i}]", residual=residual, tolerance=tol,
                               passed=residual < tol, alpha=alpha))
    return report


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
        raise InvalidDensityError("rho is not Hermitian within 1e-9")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise InvalidDensityError(f"rho has trace {tr}, expected 1")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -1e-9:
        raise InvalidDensityError(f"rho has negative eigenvalue {lo:.3e}")
    out = np.zeros_like(rho)
    for p in channel.projectors:
        out = out + p @ rho @ p
    return out


@dataclass(frozen=True)
class PureTransmission:
    """The dephasing channel's output on a pure input |v><v|: its trace and its
    fidelity with the input, one entry per input for a batch of inputs."""

    trace: float | np.ndarray
    fidelity: float | np.ndarray


def dephase_pure_state(families: Sequence[GKFamilySpec], x, t,
                       v: np.ndarray) -> PureTransmission:
    """``dephasing_channel`` at (x, t) applied to |v><v|, in O(dim).

    With v1, v2 the ladder vectors, the Kraus projectors |v1><v1|,
    |v2><v2| and I - both are Hermitian, idempotent and complete exactly
    when ||v1|| = ||v2|| = 1 and <v1|v2> = 0, checked to 1e-9 as Channel
    checks its projectors.  The output sum_k u_k u_k+ of the branches
    u_k = P_k v has trace sum_k ||u_k||^2 and, v being pure, fidelity
    sum_k |<v|u_k>|^2.  Every O(dim) product is an entry of the 3 x 3 Gram
    matrix of (v1, v2, v); the rest is 3 x 3 algebra.

    For 1-D arrays x and t and a dim x n matrix v, column i is sent through
    the channel at (x[i], t[i]): each ladder's vectors come from one
    ``ladder_vector`` call, the Gram matrices form one (n, 3, 3) stack, and
    every field of the result holds one entry per column.
    """
    v = np.asarray(v, dtype=complex)
    # rows v1, v2, v: (3, dim), or (n, 3, dim) with one matrix per column of v
    rows = np.array([ladder_vector(spec, x, t).T for spec in families[:2]]
                    + [v.T]).swapaxes(0, -2)
    g = rows.conj() @ rows.swapaxes(-1, -2)  # g[k, l] = <row k|row l>
    for tr in g[..., 2, 2].real.ravel().tolist():
        if not abs(tr - 1.0) <= 1e-9:  # NaN fails every check here
            raise InvalidDensityError(f"rho has trace {tr}, expected 1")
    for i in (0, 1):
        for dev in np.abs(np.sqrt(g[..., i, i].real) - 1.0).ravel().tolist():
            if not dev <= 1e-9:
                raise ValidationError(f"channel projector {i} is not idempotent: "
                                      f"| ||v|| - 1 | = {dev:.3e}")
    for overlap in np.abs(g[..., 0, 1]).ravel().tolist():
        if not overlap <= 1e-9:
            raise ValidationError(
                f"channel projectors 0 and 1 overlap: |<v1|v2>| = {overlap:.3e}")
    # u_m = sum_k (row k) c[k, m]: c1 v1, c2 v2 and v - c1 v1 - c2 v2 with
    # c_k = <v_k|v>, so ||u_m||^2 = (c+ g c)[m, m], the branches' Gram
    # diagonal, and <v|u_m> = (g c)[2, m]
    c = np.zeros(g.shape, dtype=complex)
    c[..., 0, 0] = g[..., 0, 2]
    c[..., 1, 1] = g[..., 1, 2]
    c[..., :2, 2] = -g[..., :2, 2]
    c[..., 2, 2] = 1.0
    gc = g @ c
    fid = (np.abs(gc[..., 2, :]) ** 2).sum(axis=-1)
    return PureTransmission(trace=(c.conj() * gc).sum(axis=(-2, -1)).real[()],
                            fidelity=np.minimum(1.0, fid)[()])


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


def leak_probe(code: CodeSpec, families: Sequence[GKFamilySpec], x: float,
               t: float) -> np.ndarray:
    """Deliberately leaked pure state: code vector mixed with a ladder state.

    Used as the negative control: the ladder component is measured out by
    the channel, so the transmission fidelity drops well below 1.
    """
    ladder = ladder_vector(families[0], x, t)
    v = math.sqrt(1.0 - 0.5) * code.code_basis[:, 0] + math.sqrt(0.5) * ladder
    return v / np.linalg.norm(v)
