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
        return QuadratureRule(nodes=base.nodes, log_weights=base.log_weights + log_rho)

    def probabilities(self, x, k_max: int) -> np.ndarray:
        """p_k = x^k / (c_k N^2(x)) for k = 0..k_max, summing to 1 - tail.

        ``x`` is a number, giving one row, or an array of them, giving one
        row per x along a new last axis, all from one ``exp``.  log x and
        log N^2(x) are taken per x, so a row is bit for bit the number's.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        logs = []
        for xi in flat:
            _check_domain(self, xi)
            logs.append((math.log(xi) if xi > 0.0 else 0.0, self.log_n_squared(xi)))
        if xs.ndim:  # log x and log N^2 as arrays with a k axis to broadcast on
            logs = np.array(logs).reshape(xs.shape + (2,))
            log_x, log_n2 = logs[..., :1], logs[..., 1:]
        else:
            (log_x, log_n2), = logs
        with np.errstate(under="ignore"):
            p = np.exp(np.arange(k_max + 1) * log_x - _log_weights(self.log_weight, k_max)
                       - log_n2)
        if 0.0 in flat:
            rows = p.reshape(len(flat), -1)
            at_zero = [i for i, xi in enumerate(flat) if xi == 0.0]
            rows[at_zero] = 0.0
            rows[at_zero, 0] = 1.0
        return p


@functools.lru_cache(maxsize=8)
def _log_weights(log_weight: Callable[[int], float], k_max: int) -> np.ndarray:
    """log c_k for k = 0..k_max, built once per family and ladder length, read-only.

    The built-in families are module values, so every command shares their tables.
    """
    log_c = np.array([log_weight(k) for k in range(k_max + 1)], dtype=float)
    log_c.flags.writeable = False
    return log_c


def _check_domain(family: WeightFamily, x: float) -> None:
    if not 0.0 <= x < family.radius:
        raise DomainError(
            f"x = {x} outside the domain [0, {family.radius}) of family "
            f"{family.name!r}")


_BUILTIN_FAMILIES = {
    "factorial": WeightFamily(
        name="factorial", radius=math.inf,
        weight=lambda k: float(math.factorial(k)) if k <= 170 else math.inf,
        log_weight=lambda k: math.lgamma(k + 1),
        log_rho=lambda x: -np.asarray(x, dtype=float),
        log_n_squared=lambda x: float(x),
    ),
    "uniform_moment": WeightFamily(
        name="uniform_moment", radius=1.0,
        weight=lambda k: 1.0 / (k + 1),
        log_weight=lambda k: -math.log(k + 1),
        log_rho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_n_squared=lambda x: -2.0 * math.log1p(-x),
    ),
}


def builtin_family(name: str) -> WeightFamily:
    """The built-in family by name: a module value, shared across commands."""
    if name not in _BUILTIN_FAMILIES:
        raise ValueError(f"unknown weight family {name!r}; "
                         "built-ins are 'factorial' and 'uniform_moment'")
    return _BUILTIN_FAMILIES[name]


def _tail_stops(log_t: float, log_t_next: float) -> bool:
    """The walk's stop predicate at a term t with successor ratio r."""
    r = math.exp(log_t_next - log_t)
    return r < 1.0 and (r < 0.5 or math.exp(log_t) < 1e-30)


def tail_mass(family: WeightFamily, x: float, n_cut: int) -> float:
    """Certified upper bound on sum_{k > n_cut} p_k.

    Terms t_k = exp(log t_k) are accumulated until the ratio r to the next
    term drops below 1/2 (or below 1 with t_k < 1e-30), then the remainder
    is closed with the geometric bound t r / (1 - r).  For the built-in
    families the term ratios are non-increasing, which makes the bound
    valid; it also makes the stop predicate monotone in k (once it holds it
    holds at every later term), so one O(1) test at the walk's last term,
    k = n_cut + ``_TAIL_ITER_CAP``, tells in advance whether the walk would
    run to its cap: then ``TailBoundError`` is raised at once.  Each term
    is its own ``exp``, so a leading term that underflows does not zero the
    ones after it.
    """
    _check_domain(family, x)
    if n_cut < 0:
        raise ValueError(f"n_cut must be >= 0, got {n_cut}")
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    ln2 = family.log_n_squared(x)
    log_weight = family.log_weight

    def log_term(k: int) -> float:
        return k * lx - log_weight(k) - ln2

    last = n_cut + _TAIL_ITER_CAP
    if _tail_stops(log_term(last), log_term(last + 1)):
        total = 0.0
        log_t = log_term(n_cut + 1)
        for k in range(n_cut + 1, last + 1):
            log_t_next = log_term(k + 1)
            t, r = math.exp(log_t), math.exp(log_t_next - log_t)
            # _tail_stops, inlined: a call per term costs 10-20 % of the walk
            if r < 1.0 and (r < 0.5 or t < 1e-30):
                return total + t + t * r / (1.0 - r)
            total += t
            log_t = log_t_next
    raise TailBoundError(
        f"tail terms of family {family.name!r} at x = {x} do not decay fast "
        f"enough beyond k = {n_cut} for a certified bound")


def _falsi_weight(f_new: float, f_old: float) -> float:
    """Anderson-Björck factor for the end a regula falsi step keeps again."""
    m = 1.0 - f_new / f_old if f_old else 0.0
    return m if m > 0.0 else 0.5


@functools.lru_cache(maxsize=32, typed=True)
def tail_safe_xmax(family: WeightFamily, n_cut: int, budget: float = 1e-12) -> float:
    """Largest x, to one ulp, whose certified truncation tail stays within budget.

    The last 32 searches are kept per process: x depends on the family, the
    ladder length and the budget alone.  The cache is typed, so n_cut = 159.0
    raises as it does uncached instead of sharing the entry of 159.

    The bracket starts at [0, R(1 - 1e-12)] on a finite radius R and at the
    last doubling of x = 1, 2, 4, ... (up to 1e6) that stayed within budget
    otherwise.  A regula falsi on log(bound / budget) with the
    Anderson-Björck weight (Illinois' halving where that weight is not
    positive) narrows it, bisecting while an end's log is infinite (x = 0,
    or no certified bound), and keeps bound(lo) <= budget < bound(hi) until
    lo and hi are adjacent doubles.  The result x meets the crossing
    contract bound(x) <= budget < bound(nextafter(x, inf)), or is the
    bracket's upper end when that end is within budget.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")

    def bound(x: float) -> float:
        # Close to the radius the certified bound may be unobtainable in a
        # bounded number of terms; for the search that simply means "too big".
        try:
            return tail_mass(family, x, n_cut)
        except TailBoundError:
            return math.inf

    def excess(mass: float) -> float:
        ratio = mass / budget
        return math.log(ratio) if ratio > 0.0 else -math.inf

    lo, lo_mass = 0.0, 0.0
    if math.isfinite(family.radius):
        hi = family.radius * (1.0 - 1e-12)
        hi_mass = bound(hi)
    else:
        # each doubled radius was within budget, so it is the bracket's lo
        hi = 1.0
        while (hi_mass := bound(hi)) <= budget and hi < 1e6:
            lo, lo_mass, hi = hi, hi_mass, 2.0 * hi
    if hi_mass <= budget:
        return hi
    f_lo, f_hi = excess(lo_mass), excess(hi_mass)
    kept = 0  # the end the last step kept: +1 hi, -1 lo, 0 none yet
    while math.nextafter(lo, math.inf) < hi:
        if 0.0 < f_hi - f_lo < math.inf:  # both ends finite and apart
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        else:
            x = 0.5 * (lo + hi)
        # strictly inside the bracket, so every step narrows it
        x = min(max(x, math.nextafter(lo, math.inf)), math.nextafter(hi, -math.inf))
        mass = bound(x)
        f = excess(mass)
        if mass <= budget:
            if kept > 0:  # hi stays a second time: shrink its weight
                f_hi *= _falsi_weight(f, f_lo)
            lo, f_lo, kept = x, f, 1
        else:
            if kept < 0:
                f_lo *= _falsi_weight(f, f_hi)
            hi, f_hi, kept = x, f, -1
    return lo


@dataclass(frozen=True)
class GKFamilySpec:
    """A weight family bound to a strictly increasing ladder of dressed states.

    |e_k> is the dressed eigenvector at ``index[k]`` of ``frame``, so a
    ladder is O(N) data.  ``jc_families`` takes both from a ``CodeSpec``:
    a ladder is a view of the code's frame and index partition.
    ``energies`` are the h_k and ``start_index`` is n of |e_0> = |n, +->
    (1 on the upper branch, k0 on the lower), so truncation needs are
    reported as photon cutoffs.
    """

    family: WeightFamily
    frame: DressedFrame
    index: np.ndarray
    label: str

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


def _phases(spec: GKFamilySpec, y) -> np.ndarray:
    """e^{-i h_k y}, with the k axis last (one row per y for an array y)."""
    return np.exp(-1j * spec.energies * np.asarray(y, dtype=float)[..., None])


def _coefficients(spec: GKFamilySpec, x: float, y: float) -> np.ndarray:
    p = spec.family.probabilities(x, spec.terms - 1)
    return np.sqrt(p) * _phases(spec, y)


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


def gk_state(spec: GKFamilySpec, x: float, y: float,
             trunc: TruncationConfig) -> np.ndarray:
    """Truncated Gazeau-Klauder state with the full-series normalization.

    The returned vector keeps the exact coefficients, so its squared norm
    is 1 minus the neglected tail mass; the tail must fit within
    ``trunc.tail_tol`` or the error reports the photon cutoff that would.
    """
    tail = tail_mass(spec.family, x, spec.terms - 1)
    if tail > trunc.tail_tol:
        need = _required_n(spec, x, trunc.tail_tol)
        raise TruncationTooSmallError(
            f"tail mass {tail:.3e} at x = {x} exceeds tail_tol = {trunc.tail_tol:.1e}; "
            f"the {spec.label} ladder needs a photon cutoff N >= {need}", required_n=need)
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
    if ks.min(initial=0) < 0:
        raise ValueError(f"moment orders must be >= 0, got {int(ks.min())}")
    log_c = _log_weights(family.log_weight, int(ks.max(initial=0)))
    if rule is None:
        rule = family.moment_rule(rule_nodes(log_c.size))
    with np.errstate(divide="ignore"):
        log_x = np.log(rule.nodes)
    out = np.empty(ks.size)
    rows = max(1, _MOMENT_BLOCK // log_x.size)
    for start in range(0, ks.size, rows):
        block = slice(start, start + rows)
        with np.errstate(under="ignore"):
            out[block] = np.exp(rule.log_weights + ks[block, None] * log_x
                                - log_c[ks[block], None]).sum(axis=1)
    return out


def verify_resolution(spec: GKFamilySpec, diagonals: np.ndarray) -> float:
    """Reconstruct the ladder projector from the coherent-state resolution.

    The Bohr mean in y removes all off-diagonal terms analytically (the
    ladder is strictly increasing), leaving diagonal weights
    d_k = int rho(x) x^k dx / c_k, which the x-quadrature must return as 1.
    ``diagonals`` holds d_k for k = 0..terms-1, from ``moment_diagonals``
    under the rule being checked.  The residual is the max entry of the
    reconstruction sum_k d_k |e_k><e_k| minus the projector
    sum_k |e_k><e_k|, read off the frame's blocks with weight d_k - 1 on
    |e_k>.
    """
    weights = np.zeros(spec.frame.energies.size)
    weights[spec.index] = diagonals - 1.0
    d, off = spec.frame.block_entries(weights)
    return float(max(np.abs(d).max(), np.abs(off).max()))


def verify_temporal_stability(spec: GKFamilySpec, eig_residual: float, gram: float,
                              t_max: float) -> float:
    """Bound on 1 - F, F = |<x, t| U_t |x, 0>|^2, over t in [0, t_max] and every x
    whose tail is within beta = 1e-12 (x in [0, x_max]: both built-in tails grow).

    With the ladder's frame columns V, H V = V E + R: rho = ``eig_residual`` bounds
    each column of R, one per 2x2 block, so |R b| <= rho |b|; V+ V is diagonal within
    gamma = ``gram`` of I.  v = |x, t> = V a_t, a_t = sqrt(p_k) e^{-i E_k t},
    m = |a|^2 >= 1 - beta, w = U_t |x, 0>: Duhamel's formula gives |w - v| <=
    t rho sqrt(m), and |<v, w>|^2 >= |v|^2 (|w|^2 - |w - v|^2) with |v|^2, |w|^2 >=
    m (1 - gamma), so 1 - F <= 2 beta + 2 gamma + t^2 rho^2.  Rounding (u = 2^-53,
    M = max |E| >= every block entry): a residual component is three products within
    M summed twice (3u (1 + sqrt 2) M) of entries each within 2u M (2 sqrt 2 u M), so
    rho is within sqrt 2 * 10.2 u M = 14.4 u M of the exact residual: rho + 20 u M.
    c^2 + s^2 - 1 is within 3u: gamma + 4u.
    """
    u = 2.0 ** -53
    rho = eig_residual + 20.0 * u * float(np.abs(spec.frame.energies).max())
    return 2e-12 + 2.0 * (gram + 4.0 * u) + (t_max * rho) ** 2


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
