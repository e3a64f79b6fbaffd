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

Each family states its moments twice, as log c_k and as an independent
closed form of log int rho x^k dx; the resolution reads their ratio.  A
Gauss rule with its weights kept as logs spot-checks the low moments.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import QuadratureRule, _frozen
from .code_construction import CodeSpec
from .jc_spectrum import DressedFrame

_TAIL_ITER_CAP = 1_000_000
_BETA = 1e-12  # the one tail budget of every GK state: see verify_temporal_stability
_ROW = 256  # log k! is summed in rows of this many terms: see _log_factorials


class DomainError(ValueError):
    """Argument x outside the family's convergence domain [0, R)."""


class TailBoundError(ValueError):
    """No certified geometric bound available for the requested tail."""


class TruncationTooSmallError(ValueError):
    """The truncated ladder drops more coefficient mass than allowed; the message
    names the photon cutoff whose tail fits, where one is certified."""


@dataclass(frozen=True)
class WeightFamily:
    """Moment data c_k of a density rho on [0, R), with closed forms.

    ``weight``/``log_weight`` evaluate c_k and log c_k, ``log_moments(n)``
    log int rho(x) x^k dx for k < n by a closed form independent of
    ``log_weight``, ``log_rho`` the log density (vectorized over x) and
    ``log_n_squared`` the log of the normalization sum.  The measure
    density is tau(x) = N^2(x) rho(x).
    """

    name: str
    radius: float
    weight: Callable[[int], float]
    log_weight: Callable[[int], float]
    log_moments: Callable[[int], np.ndarray]
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

    def probabilities(self, x: float, k_max: int) -> np.ndarray:
        """p_k = x^k / (c_k N^2(x)) for k = 0..k_max, summing to 1 - tail."""
        _check_domain(self, x)
        if x == 0.0:  # the vacuum: p_0 = 1
            return np.eye(1, k_max + 1)[0]
        with np.errstate(under="ignore"):
            return np.exp(np.arange(k_max + 1) * math.log(x)
                          - _tables(self, k_max + 1)[0] - self.log_n_squared(x))


_TABLES: dict = {}  # family -> its (log c_k, d_k), read-only, at the longest n asked for


def _tables(family: WeightFamily, n: int) -> tuple:
    """log c_k and d_k, k < n, sliced from the family's pair, rebuilt only for a longer n:
    no entry depends on n, so a slice has the bits of a pair built at n."""
    log_c, d = _TABLES.get(family, (np.empty(0),) * 2)
    if log_c.size < n:
        log_c = np.fromiter(map(family.log_weight, range(n)), float, n)
        _TABLES[family] = log_c, d = _frozen(log_c, np.exp(family.log_moments(n) - log_c))
    return log_c[:n], d[:n]


def _log_factorials(n: int) -> np.ndarray:
    """log k! = sum_{j <= k} log j, k < n (int x^k e^-x = k int x^(k-1) e^-x), summed
    along rows of ``_ROW``, then over row totals: each log j meets at most
    _ROW + ceil(k / _ROW) additions in the k-th sum, not k as in one cumsum."""
    logs = np.zeros(-(-n // _ROW) * _ROW)
    logs[1:n] = np.log(np.arange(1, n))
    rows = logs.reshape(-1, _ROW).cumsum(axis=1)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return rows.ravel()[:n]


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
        log_moments=_log_factorials,
        log_rho=lambda x: -np.asarray(x, dtype=float),
        log_n_squared=lambda x: float(x),
    ),
    "uniform_moment": WeightFamily(
        name="uniform_moment", radius=1.0,
        weight=lambda k: 1.0 / (k + 1),
        log_weight=lambda k: -math.log(k + 1),
        log_moments=lambda n: -np.log1p(np.arange(n)),
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
def tail_safe_xmax(family: WeightFamily, n_cut: int) -> float:
    """Largest x, to one ulp, whose certified truncation tail stays within beta =
    ``_BETA``, the one tail budget of every GK state.

    The last 32 searches are kept per process: x depends on the family and
    the ladder length alone.  The cache is typed, so n_cut = 159.0 raises as
    it does uncached instead of sharing the entry of 159.

    The bracket starts at [0, R(1 - 1e-12)] on a finite radius R and at the
    last doubling of x = 1, 2, 4, ... (up to 1e6) that stayed within beta
    otherwise.  A regula falsi on log(bound / beta) with the
    Anderson-Björck weight (Illinois' halving where that weight is not
    positive) narrows it, bisecting while an end's log is infinite (x = 0,
    or no certified bound), and keeps bound(lo) <= beta < bound(hi) until
    lo and hi are adjacent doubles.  The result x meets the crossing
    contract bound(x) <= beta < bound(nextafter(x, inf)), or is the
    bracket's upper end when that end is within beta.
    """
    def bound(x: float) -> float:
        # Close to the radius the certified bound may be unobtainable in a
        # bounded number of terms; for the search that simply means "too big".
        try:
            return tail_mass(family, x, n_cut)
        except TailBoundError:
            return math.inf

    def excess(mass: float) -> float:
        ratio = mass / _BETA
        return math.log(ratio) if ratio > 0.0 else -math.inf

    lo, lo_mass = 0.0, 0.0
    if math.isfinite(family.radius):
        hi = family.radius * (1.0 - 1e-12)
        hi_mass = bound(hi)
    else:
        # each doubled radius was within beta, so it is the bracket's lo
        hi = 1.0
        while (hi_mass := bound(hi)) <= _BETA and hi < 1e6:
            lo, lo_mass, hi = hi, hi_mass, 2.0 * hi
    if hi_mass <= _BETA:
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
        if mass <= _BETA:
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


def _phases(spec: GKFamilySpec, y: float) -> np.ndarray:
    """e^{-i h_k y}, one entry per rung, built in one complex array."""
    phases = np.multiply(spec.energies, -1j)
    phases *= y
    return np.exp(phases, out=phases)


def _kept_probabilities(spec: GKFamilySpec, x: float) -> tuple:
    """The kept p_k, k < terms, at x and their sum.  Where all underflow,
    ``TruncationTooSmallError`` names the cutoff for beta = ``_BETA``, if certified."""
    p = spec.family.probabilities(x, spec.terms - 1)
    mass = p.sum()
    if not mass:
        need = _required_n(spec, x)
        cutoff = f"it needs a photon cutoff N >= {need}" if need else "no certified cutoff"
        raise TruncationTooSmallError(f"the {spec.label} ladder keeps no coefficient "
                                      f"mass at x = {x}; {cutoff}")
    return p, mass


def _coefficients(spec: GKFamilySpec, x: float, y: float) -> np.ndarray:
    return np.sqrt(_kept_probabilities(spec, x)[0]) * _phases(spec, y)


def _required_n(spec: GKFamilySpec, x: float) -> int | None:
    terms = spec.terms
    try:
        while tail_mass(spec.family, x, terms - 1) > _BETA:
            terms *= 2
            if terms > 2 ** 24:
                return None
        lo, hi = terms // 2, terms
        while lo < hi:
            mid = (lo + hi) // 2
            if tail_mass(spec.family, x, mid - 1) <= _BETA:
                hi = mid
            else:
                lo = mid + 1
    except TailBoundError:
        return None
    return lo + spec.start_index - 1


def gk_state(spec: GKFamilySpec, x: float, y: float) -> np.ndarray:
    """Truncated Gazeau-Klauder state with the full-series normalization.

    The returned vector keeps the exact coefficients, so its squared norm is 1 minus
    the neglected tail mass.  x must lie in [0, ``tail_safe_xmax``] at beta, the
    stability record's domain, or the error names the cutoff whose tail at x fits.
    """
    x_max = tail_safe_xmax(spec.family, spec.terms - 1)
    if x > x_max:
        need = _required_n(spec, x)
        raise TruncationTooSmallError(
            f"x = {x} exceeds x_max = {x_max!r} at beta = {_BETA:.0e}; the {spec.label} "
            f"ladder needs a photon cutoff N >= {need}")
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


def closed_form_diagonals(family: WeightFamily, terms: int) -> np.ndarray:
    """d_k = exp(log_moments(terms)[k] - log c_k), k < terms: 1 up to rounding, read-only.

    With u = 2^-53, ``_log_factorials`` is within (_ROW + ceil(k / _ROW)) u log k! of
    log k! (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 4.2),
    np.log adds 2u log k! and lgamma 4.6 u log k! (measured): for factorial the gap is
    <= (_ROW + ceil(k / _ROW) + 10) u log k!, 9.7e-7 at k = 4 10^5 and 5.9e-6 at 10^6,
    so it explains the resolution's 1e-6 pass only below about 4 10^5 (the measured
    max |d_k - 1| over k < 10^6 is 3.5e-8).  For uniform_moment, 4u log(k + 1).
    """
    return _tables(family, terms)[1]


def moment_diagonals(family: WeightFamily, ks: Sequence[int],
                     rule: QuadratureRule) -> np.ndarray:
    """Values of int rho(x) x^k dx / c_k (exactly 1) under ``family.moment_rule(n)``,
    exact for k <= 2n - 1, from one (k, node) array."""
    ks = np.asarray(ks, dtype=np.int64)
    if ks.min(initial=0) < 0:
        raise ValueError(f"moment orders must be >= 0, got {int(ks.min())}")
    log_c = _tables(family, int(ks.max(initial=0)) + 1)[0]
    with np.errstate(divide="ignore", under="ignore"):  # log 0 at a node; exp underflows
        log_x = np.log(rule.nodes)
        return np.exp(rule.log_weights + ks[:, None] * log_x - log_c[ks, None]).sum(axis=1)


def verify_resolution(spec: GKFamilySpec, diagonals: np.ndarray) -> float:
    """Reconstruct the ladder projector from the coherent-state resolution.

    The Bohr mean in y removes all off-diagonal terms analytically (the
    ladder is strictly increasing), leaving diagonal weights
    d_k = int rho(x) x^k dx / c_k, which must be 1.  ``diagonals`` holds d_k
    for k = 0..terms-1, from ``closed_form_diagonals`` (or ``moment_diagonals``
    under a rule being checked).  The residual is the max entry of the
    reconstruction sum_k d_k |e_k><e_k| minus the projector
    sum_k |e_k><e_k|, read off the frame's blocks with weight d_k - 1 on
    |e_k>.
    """
    weights = np.zeros(spec.frame.energies.size)
    weights[spec.index] = diagonals - 1.0
    d, off = spec.frame.block_entries(weights)
    return float(max(np.abs(d).max(), np.abs(off).max()))


def verify_temporal_stability(frame: DressedFrame, eig_residual: float, gram: float,
                              t_max: float) -> float:
    """Bound on 1 - F, F = |<x, t| U_t |x, 0>|^2, on any ladder of ``frame``, over t in
    [0, t_max] and x in [0, x_max], x_max = ``tail_safe_xmax`` at beta = ``_BETA``: a
    domain held by refusal (``gk_state``), as ``tail_mass`` wobbles by ulps in x.

    With a ladder's frame columns V, H V = V E + R: rho = ``eig_residual`` bounds
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
    rho = eig_residual + 20.0 * u * float(np.abs(frame.energies).max())
    return 2.0 * _BETA + 2.0 * (gram + 4.0 * u) + (t_max * rho) ** 2


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
