"""Gazeau-Klauder states over strictly increasing energy ladders.

A weight family supplies positive constants c_k with c_0 = 1, realized as
the moments c_k = int_0^R rho(x) x^k dx of a density rho on [0, R).  For
an energy ladder h_0 < h_1 < ... embedded into orthonormal basis vectors
|e_k> the associated states are

    |x, y> = N(x)^{-1} sum_k x^{k/2} e^{-i h_k y} / sqrt(c_k) |e_k>,

with N^2(x) = sum_k x^k / c_k.  Against the measure tau(x) dx dmu(y)
(tau = N^2 rho, dmu the Bohr mean in y) they resolve the projector onto
the embedded subspace, and the phase convention makes them covariant
under the generated time evolution: U_t |x, y><x, y| U_t+ = |x, y+t><x, y+t|.

Two families are built in: "factorial" (c_k = k!, rho = e^{-x} on [0, inf),
N^2 = e^x, tau = 1) and "uniform_moment" (c_k = 1/(k+1), rho = 1 on [0, 1),
N^2 = tau = (1-x)^{-2}).  Truncated sums carry an explicitly bounded tail.

Moments are integrated by a Gauss rule sized from its ladder, exact for x^k
at every rung, with its weights kept as logs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import QuadratureRule, TruncationConfig
from .code_construction import CodeSpec
from .jc_spectrum import DressedFrame

_TAIL_ITER_CAP = 1_000_000
_MOMENT_BLOCK = 1 << 18  # bounds the (k, node) temporaries of moment_diagonals


class DomainError(ValueError):
    """Argument x outside the family's convergence domain [0, R)."""


class TailBoundError(ValueError):
    """No certified geometric bound available for the requested tail."""


class TruncationTooSmallError(ValueError):
    """The truncated ladder drops more coefficient mass than allowed."""

    def __init__(self, message: str, required_n: int | None = None):
        super().__init__(message)
        self.required_n = required_n


@dataclass(frozen=True)
class WeightFamily:
    """Moment data c_k of a density rho on [0, R), with closed forms.

    ``weight``/``log_weight`` evaluate c_k and log c_k, ``log_rho`` the
    log density (vectorized over x) and ``log_n_squared`` the log of the
    normalization sum.  The measure density is tau(x) = N^2(x) rho(x).
    """

    name: str
    radius: float
    weight: Callable[[int], float]
    log_weight: Callable[[int], float]
    log_rho: Callable[[np.ndarray], np.ndarray]
    log_n_squared: Callable[[float], float]

    def tau(self, x):
        return np.exp(self.log_n_squared(x) + self.log_rho(x))

    def weights_upto(self, k_max: int) -> np.ndarray:
        return np.array([self.weight(k) for k in range(k_max + 1)], dtype=float)

    def moment_rule(self, n_nodes: int) -> QuadratureRule:
        """Quadrature rule with sum w_i f(x_i) ~ int_0^R rho(x) f(x) dx.

        Finite radius: Gauss-Legendre on [0, R] (nodes are interior, so
        the open right endpoint is never evaluated).  Infinite radius:
        Gauss-Laguerre, whose native weight e^{-x} is divided out.  rho is
        folded into the log weights either way.
        """
        if math.isfinite(self.radius):
            base = QuadratureRule.gauss_legendre(0.0, self.radius, n_nodes)
            log_rho = self.log_rho(base.nodes)
        else:
            base = QuadratureRule.gauss_laguerre(n_nodes)
            log_rho = self.log_rho(base.nodes) + base.nodes
        return QuadratureRule(nodes=base.nodes, log_weights=base.log_weights + log_rho,
                              kind=base.kind)

    def probabilities(self, x: float, k_max: int) -> np.ndarray:
        """p_k = x^k / (c_k N^2(x)) for k = 0..k_max, summing to 1 - tail."""
        _check_domain(self, x)
        if x == 0.0:
            p = np.zeros(k_max + 1)
            p[0] = 1.0
            return p
        ks = np.arange(k_max + 1)
        with np.errstate(under="ignore"):
            return np.exp(ks * math.log(x) - _log_weights(self.log_weight, k_max)
                          - self.log_n_squared(x))


@functools.lru_cache(maxsize=8)
def _log_weights(log_weight: Callable[[int], float], k_max: int) -> np.ndarray:
    """log c_k for k = 0..k_max, built once per family and ladder length, read-only."""
    log_c = np.array([log_weight(k) for k in range(k_max + 1)], dtype=float)
    log_c.flags.writeable = False
    return log_c


def _check_domain(family: WeightFamily, x: float) -> None:
    if not 0.0 <= x < family.radius:
        raise DomainError(
            f"x = {x} outside the domain [0, {family.radius}) of family "
            f"{family.name!r}")


def builtin_family(name: str) -> WeightFamily:
    """Return one of the built-in weight families by name."""
    if name == "factorial":
        def weight(k: int) -> float:
            return float(math.factorial(k)) if k <= 170 else math.inf

        return WeightFamily(
            name="factorial", radius=math.inf,
            weight=weight,
            log_weight=lambda k: math.lgamma(k + 1),
            log_rho=lambda x: -np.asarray(x, dtype=float),
            log_n_squared=lambda x: float(x),
        )
    if name == "uniform_moment":
        return WeightFamily(
            name="uniform_moment", radius=1.0,
            weight=lambda k: 1.0 / (k + 1),
            log_weight=lambda k: -math.log(k + 1),
            log_rho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            log_n_squared=lambda x: -2.0 * math.log1p(-x),
        )
    raise ValueError(f"unknown weight family {name!r}; "
                     "built-ins are 'factorial' and 'uniform_moment'")


def tail_mass(family: WeightFamily, x: float, n_cut: int) -> float:
    """Certified upper bound on sum_{k > n_cut} p_k.

    Terms are accumulated until consecutive ratios drop below 1/2 (or the
    terms become negligible), then the remainder is closed with the
    geometric bound t r / (1 - r); for the built-in families the term
    ratios are non-increasing, which makes the bound valid.
    """
    _check_domain(family, x)
    if n_cut < 0:
        raise ValueError(f"n_cut must be >= 0, got {n_cut}")
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    ln2 = family.log_n_squared(x)

    def log_term(k: int) -> float:
        return k * lx - family.log_weight(k) - ln2

    total = 0.0
    k = n_cut + 1
    t = math.exp(log_term(k))
    for _ in range(_TAIL_ITER_CAP):
        r = math.exp(log_term(k + 1) - log_term(k))
        if r < 1.0 and (r < 0.5 or t < 1e-30):
            return total + t + t * r / (1.0 - r)
        total += t
        t *= r
        k += 1
        if t == 0.0:
            return total
    raise TailBoundError(
        f"tail terms of family {family.name!r} at x = {x} do not decay fast "
        f"enough beyond k = {n_cut} for a certified bound")


def tail_safe_xmax(family: WeightFamily, n_cut: int, budget: float = 1e-12) -> float:
    """Largest x (up to bisection width) whose truncation tail stays within budget."""
    if budget <= 0:
        raise ValueError("budget must be positive")

    def bound(x: float) -> float:
        # Close to the radius the certified bound may be unobtainable in a
        # bounded number of terms; for the search that simply means "too big".
        try:
            return tail_mass(family, x, n_cut)
        except TailBoundError:
            return math.inf

    lo = 0.0
    if math.isfinite(family.radius):
        hi = family.radius * (1.0 - 1e-12)
        hi_mass = bound(hi)
    else:
        # each doubled radius was within budget, so it is the bracket's lo
        hi = 1.0
        while (hi_mass := bound(hi)) <= budget and hi < 1e6:
            lo, hi = hi, 2.0 * hi
    if hi_mass <= budget:
        return hi
    # bound(lo) <= budget < bound(hi) throughout; once the midpoint rounds
    # onto an end the bracket cannot move again, so lo is final.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bound(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class GKFamilySpec:
    """A weight family bound to a strictly increasing ladder of dressed states.

    |e_k> is the dressed eigenvector at ``index[k]`` of ``frame``, so a
    ladder is O(N) data.  ``jc_families`` takes both from a ``CodeSpec``:
    a ladder is a view of the code's frame and index partition.
    ``energies`` are the h_k and ``start_index`` is n of |e_0> = |n, +->
    (1 on the upper branch, k0 on the lower), so truncation needs are
    reported as photon cutoffs.  The dense dim x terms
    ``embedding`` of the |e_k> is built on demand for the dense oracles.
    """

    family: WeightFamily
    frame: DressedFrame
    index: np.ndarray
    label: str = ""

    @property
    def terms(self) -> int:
        return self.index.size

    @property
    def energies(self) -> np.ndarray:
        return self.frame.energies[self.index]

    @property
    def start_index(self) -> int:
        # (n, +) sits at 2n - 1 and (n, -) at 2n
        return (int(self.index[0]) + 1) // 2

    @property
    def embedding(self) -> np.ndarray:
        return self.frame.embed(self.index, np.eye(self.terms))


def _coefficients(spec: GKFamilySpec, x: float, y: float) -> np.ndarray:
    p = spec.family.probabilities(x, spec.terms - 1)
    return np.sqrt(p) * np.exp(-1j * spec.energies * y)


def _required_n(spec: GKFamilySpec, x: float, tol: float) -> int | None:
    terms = spec.terms
    while tail_mass(spec.family, x, terms - 1) > tol:
        terms *= 2
        if terms > 2 ** 24:
            return None
    lo, hi = terms // 2, terms
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_mass(spec.family, x, mid - 1) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo + spec.start_index - 1


def _check_tail(spec: GKFamilySpec, x: float, trunc: TruncationConfig) -> None:
    tail = tail_mass(spec.family, x, spec.terms - 1)
    if tail > trunc.tail_tol:
        need = _required_n(spec, x, trunc.tail_tol)
        raise TruncationTooSmallError(
            f"tail mass {tail:.3e} at x = {x} exceeds tail_tol = "
            f"{trunc.tail_tol:.1e}; the {spec.label or spec.family.name} ladder "
            f"needs a photon cutoff N >= {need}", required_n=need)


def gk_state(spec: GKFamilySpec, x: float, y: float,
             trunc: TruncationConfig) -> np.ndarray:
    """Truncated Gazeau-Klauder state with the full-series normalization.

    The returned vector keeps the exact coefficients, so its squared norm
    is 1 minus the neglected tail mass; the tail must fit within
    ``trunc.tail_tol`` or the error reports the photon cutoff that would.
    """
    _check_tail(spec, x, trunc)
    return spec.frame.embed(spec.index, _coefficients(spec, x, y))


def jc_families(code: CodeSpec, family1: WeightFamily,
                family2: WeightFamily) -> tuple:
    """Bind weight families to the two increasing ladders of the code's cut.

    The first family rides the upper ladder J, h_k = E_{k+1,+} on |k+1, +>
    for k = 0..N-1; the second the lower ladder S above the cut,
    h_k = E_{k+k0,-} on |k+k0, -> for k = 0..N-k0.  Both are views of
    ``code.frame`` at the indices ``decompose`` split and ordered.
    """
    return (GKFamilySpec(family=family1, frame=code.frame, index=code.j_indices,
                         label="J"),
            GKFamilySpec(family=family2, frame=code.frame, index=code.s_indices,
                         label="S"))


def rule_nodes(terms: int) -> int:
    """Nodes exact for x^k at every k < terms: n = ceil(terms / 2), degree 2n - 1."""
    return max(2, (terms + 1) // 2)


def moment_diagonals(family: WeightFamily, ks: Sequence[int],
                     rule: QuadratureRule | None = None) -> np.ndarray:
    """Quadrature values of int rho(x) x^k dx / c_k (exactly 1 for moments)."""
    ks = np.asarray(ks, dtype=np.int64)
    if rule is None:
        rule = family.moment_rule(rule_nodes(int(ks.max(initial=0)) + 1))
    with np.errstate(divide="ignore"):
        log_x = np.log(rule.nodes)
    log_c = np.array([family.log_weight(int(k)) for k in ks])
    out = np.empty(ks.size)
    rows = max(1, _MOMENT_BLOCK // log_x.size)
    for start in range(0, ks.size, rows):
        block = slice(start, start + rows)
        with np.errstate(under="ignore"):
            out[block] = np.exp(rule.log_weights + ks[block, None] * log_x
                                - log_c[block, None]).sum(axis=1)
    return out


@dataclass(frozen=True)
class ResolutionCheck:
    """Outcome of the resolution-of-identity reconstruction."""

    diagonals: np.ndarray
    max_diag_deviation: float
    residual: float
    degree_limit: int
    n_nodes: int


def verify_resolution(spec: GKFamilySpec,
                      rule: QuadratureRule | None = None) -> ResolutionCheck:
    """Reconstruct the ladder projector from the coherent-state resolution.

    The Bohr mean in y removes all off-diagonal terms analytically (the
    ladder is strictly increasing), leaving diagonal weights
    d_k = int rho(x) x^k dx / c_k, which the x-quadrature must return as 1.
    The residual is the max entry of the reconstruction sum_k d_k |e_k><e_k|
    minus the projector sum_k |e_k><e_k|, read off the frame's blocks with
    weight d_k - 1 on |e_k>.  ``max_diag_deviation`` is restricted to
    indices within the rule's polynomial exactness degree; the full
    residual is reported unrestricted.
    """
    if rule is None:
        rule = spec.family.moment_rule(rule_nodes(spec.terms))
    ks = np.arange(spec.terms)
    diag = moment_diagonals(spec.family, ks, rule)
    degree_limit = 2 * rule.nodes.size - 1
    max_dev = float(np.abs(diag[ks <= degree_limit] - 1.0).max())
    weights = np.zeros(spec.frame.energies.size)
    weights[spec.index] = diag - 1.0
    d, off = spec.frame.block_entries(weights)
    residual = float(max(np.abs(d).max(), np.abs(off).max()))
    return ResolutionCheck(diagonals=diag, max_diag_deviation=max_dev,
                           residual=residual, degree_limit=degree_limit,
                           n_nodes=rule.nodes.size)


def verify_temporal_stability(spec: GKFamilySpec, xs: Sequence[float],
                              ts: Sequence[float],
                              trunc: TruncationConfig) -> np.ndarray:
    """|<x, t| U_t |x, 0>|^2 for every x in ``xs`` and t in ``ts``.

    Returns the (len(xs), len(ts)) array of fidelities, each equal to 1 up
    to rounding and truncation tail.  Every x's tail check, amplitudes and
    |x, 0> are computed once; the t axis is batched: all |x, t> come from
    one 2-D ``embed`` and all U_t |x, 0> from one ``evolve`` over the
    times, one column per t, applied block by block on ``spec.frame`` in
    O(N) per column, never as a dense matrix.
    """
    ts = np.asarray(ts, dtype=float)
    fids = np.empty((len(xs), ts.size))
    frame, h = spec.frame, spec.energies
    for i, x in enumerate(xs):
        x = float(x)
        _check_tail(spec, x, trunc)
        amp = np.sqrt(spec.family.probabilities(x, spec.terms - 1))
        # the y = 0 phases, exactly as gk_state(spec, x, 0.0) builds them
        v0 = frame.embed(spec.index, amp * np.exp(-1j * h * 0.0))
        vt = frame.embed(spec.index, amp[:, None] * np.exp(-1j * np.outer(h, ts)))
        fids[i] = np.abs((vt.conj() * frame.evolve(v0, ts)).sum(axis=0)) ** 2
    return fids


@dataclass(frozen=True)
class ActionIdentityCheck:
    """Expectation of the ladder generator in |x, 0>, with its guarantee flag."""

    value: float
    guaranteed: bool
    terms: int


def verify_action_identity(family: WeightFamily, x: float,
                           energies: np.ndarray | None = None,
                           n_terms: int = 400) -> ActionIdentityCheck:
    """<x, 0| G |x, 0> for G = sum_k h_k |e_k><e_k|.

    The expectation equals x exactly when h_0 = 0 and h_k = c_k / c_{k-1}
    (the canonical ladder h_k = k with the factorial family); otherwise the
    value is still returned but flagged as not guaranteed.
    """
    if energies is None:
        h = np.arange(n_terms, dtype=float)
    else:
        h = np.asarray(energies, dtype=float)
    p = family.probabilities(x, h.size - 1)
    value = float((h * p).sum())
    guaranteed = h[0] == 0.0
    if guaranteed:
        ks = np.arange(1, min(h.size, 60))
        ratios = np.array([math.exp(family.log_weight(int(k))
                                    - family.log_weight(int(k) - 1)) for k in ks])
        guaranteed = bool(np.abs(h[ks] - ratios).max() < 1e-9)
    return ActionIdentityCheck(value=value, guaranteed=guaranteed, terms=h.size)


def dump_family(spec: GKFamilySpec, xs: Sequence[float],
                ys: Sequence[float]) -> dict:
    """JSON-ready dump of the ladder and coherent-state coefficients.

    An infinite convergence radius, and a weight c_k too large for a
    double, are encoded as null.  Coefficients are listed for every (x, y)
    pair of the two grids.
    """
    coeffs = []
    for x in xs:
        for y in ys:
            c = _coefficients(spec, float(x), float(y))
            coeffs.append({"x": float(x), "y": float(y),
                           "re": [float(v) for v in c.real],
                           "im": [float(v) for v in c.imag]})
    radius = spec.family.radius
    return {
        "family": spec.family.name,
        "label": spec.label,
        "R": None if math.isinf(radius) else float(radius),
        "weights": [w if math.isfinite(w) else None
                    for w in map(spec.family.weight, range(spec.terms))],
        "h": [float(v) for v in spec.energies],
        "coefficients": coeffs,
    }
