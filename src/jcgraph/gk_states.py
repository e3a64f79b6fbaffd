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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import QuadratureRule, TruncationConfig
from .jc_spectrum import JCParams, dressed_frame, dressed_index

_TAIL_ITER_CAP = 1_000_000


class DomainError(ValueError):
    """Argument x outside the family's convergence domain [0, R)."""


class TailBoundError(ValueError):
    """No certified geometric bound available for the requested tail."""


class TruncationTooSmallError(ValueError):
    """The truncated ladder drops more coefficient mass than allowed."""

    def __init__(self, message: str, required_n: int | None = None):
        super().__init__(message)
        self.required_n = required_n


class EnergyOrderError(ValueError):
    """An embedded energy ladder failed to increase strictly."""

    def __init__(self, message: str, index: int, gap: float = 0.0):
        super().__init__(message)
        self.index = index
        self.gap = gap


@dataclass(frozen=True)
class WeightFamily:
    """Moment data c_k of a density rho on [0, R), with closed forms.

    ``weight``/``log_weight`` evaluate c_k and log c_k, ``rho``/``log_rho``
    the density (vectorized over x), ``n_squared``/``log_n_squared`` the
    normalization sum.  The measure density is tau(x) = N^2(x) rho(x).
    """

    name: str
    radius: float
    weight: Callable[[int], float]
    log_weight: Callable[[int], float]
    rho: Callable[[np.ndarray], np.ndarray]
    log_rho: Callable[[np.ndarray], np.ndarray]
    n_squared: Callable[[float], float]
    log_n_squared: Callable[[float], float]

    def tau(self, x):
        return self.n_squared(x) * self.rho(x)

    def weights_upto(self, k_max: int) -> np.ndarray:
        return np.array([self.weight(k) for k in range(k_max + 1)], dtype=float)

    def moment_rule(self, n_nodes: int = 200) -> QuadratureRule:
        """Quadrature rule with sum w_i f(x_i) ~ int_0^R rho(x) f(x) dx.

        Finite radius: Gauss-Legendre on [0, R] (nodes are interior, so
        the open right endpoint is never evaluated) with rho folded into
        the weights.  Infinite radius: Gauss-Laguerre, whose native weight
        e^{-x} is combined with rho in log space to avoid overflow.
        """
        if math.isfinite(self.radius):
            base = QuadratureRule.gauss_legendre(0.0, self.radius, n_nodes)
            w = base.weights * np.asarray(self.rho(base.nodes), dtype=float)
            return QuadratureRule(nodes=base.nodes, weights=w, kind="interval")
        base = QuadratureRule.gauss_laguerre(n_nodes)
        logs = np.asarray(self.log_rho(base.nodes), dtype=float) + base.nodes
        with np.errstate(under="ignore"):
            w = base.weights * np.exp(logs)
        return QuadratureRule(nodes=base.nodes, weights=w, kind="half_line_exp")

    def probabilities(self, x: float, k_max: int) -> np.ndarray:
        """p_k = x^k / (c_k N^2(x)) for k = 0..k_max, summing to 1 - tail."""
        _check_domain(self, x)
        if x == 0.0:
            p = np.zeros(k_max + 1)
            p[0] = 1.0
            return p
        ks = np.arange(k_max + 1)
        log_c = np.array([self.log_weight(int(k)) for k in ks])
        with np.errstate(under="ignore"):
            return np.exp(ks * math.log(x) - log_c - self.log_n_squared(x))


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
            rho=lambda x: np.exp(-np.asarray(x, dtype=float)),
            log_rho=lambda x: -np.asarray(x, dtype=float),
            n_squared=lambda x: math.exp(x),
            log_n_squared=lambda x: float(x),
        )
    if name == "uniform_moment":
        return WeightFamily(
            name="uniform_moment", radius=1.0,
            weight=lambda k: 1.0 / (k + 1),
            log_weight=lambda k: -math.log(k + 1),
            rho=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            log_rho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            n_squared=lambda x: 1.0 / (1.0 - x) ** 2,
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

    if math.isfinite(family.radius):
        hi = family.radius * (1.0 - 1e-12)
    else:
        hi = 1.0
        while bound(hi) <= budget and hi < 1e6:
            hi *= 2.0
    if bound(hi) <= budget:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class GKFamilySpec:
    """A weight family bound to an embedded, strictly increasing ladder.

    ``embedding`` holds the orthonormal target vectors as columns (one per
    ladder index k), ``energies`` the matching h_k, and ``start_index``
    the dressed quantum number of column 0 (1 for the upper-branch family,
    k0 for the lower-branch family), so truncation requirements can be
    reported in terms of the photon cutoff.
    """

    family: WeightFamily
    energies: np.ndarray
    embedding: np.ndarray
    label: str = ""
    start_index: int = 0

    @property
    def terms(self) -> int:
        return self.energies.size


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
            f"tail mass {tail:.3e} at x = {x} exceeds tail_tol = "
            f"{trunc.tail_tol:.1e}; the {spec.label or spec.family.name} ladder "
            f"needs a photon cutoff N >= {need}", required_n=need)
    return spec.embedding @ _coefficients(spec, x, y)


def subspace_projector(spec: GKFamilySpec) -> np.ndarray:
    """Projector onto the embedded ladder subspace."""
    return spec.embedding @ spec.embedding.conj().T


def jc_families(params: JCParams, k0: int, family1: WeightFamily,
                family2: WeightFamily, trunc: TruncationConfig) -> tuple:
    """Bind weight families to the two increasing Jaynes-Cummings ladders.

    The first family rides the upper branch, h_k = E_{k+1,+} embedded on
    |k+1, +> for k = 0..N-1; the second rides the lower branch above the
    cut, h_k = E_{k+k0,-} embedded on |k+k0, -> for k = 0..N-k0.  Both
    ladders are checked to be strictly increasing; a violation names the
    first offending index (it indicates a cut below the monotonicity
    threshold M0).
    """
    if not 1 <= k0 < trunc.n_fock:
        raise ValueError(f"k0 = {k0} outside 1..{trunc.n_fock - 1}")
    frame = dressed_frame(params, trunc)
    specs = []
    for family, branch, start, label in (
            (family1, "plus", 1, "J"), (family2, "minus", k0, "S")):
        idx = dressed_index(branch, np.arange(start, trunc.n_fock + 1))
        energies = frame.energies[idx]
        gaps = np.diff(energies)
        if gaps.size and gaps.min() <= 0:
            i = int(np.argmax(gaps <= 0))
            raise EnergyOrderError(
                f"{label} ladder not strictly increasing: h[{i + 1}] - h[{i}] = "
                f"{gaps[i]:.3e} (cut k0 = {k0} below the monotonicity threshold?)",
                index=i, gap=float(gaps[i]))
        specs.append(GKFamilySpec(family=family, energies=energies,
                                  embedding=frame.columns(idx), label=label,
                                  start_index=start))
    return specs[0], specs[1]


def moment_diagonals(family: WeightFamily, ks: Sequence[int],
                     rule: QuadratureRule | None = None) -> np.ndarray:
    """Quadrature values of int rho(x) x^k dx / c_k (exactly 1 for moments)."""
    if rule is None:
        rule = family.moment_rule()
    with np.errstate(divide="ignore"):
        log_w = np.where(rule.weights > 0, np.log(np.where(rule.weights > 0,
                                                           rule.weights, 1.0)), -np.inf)
        log_x = np.where(rule.nodes > 0, np.log(np.where(rule.nodes > 0,
                                                         rule.nodes, 1.0)), -np.inf)
    out = np.empty(len(ks))
    for j, k in enumerate(ks):
        logs = log_w + k * log_x - family.log_weight(int(k))
        with np.errstate(under="ignore"):
            out[j] = np.exp(logs).sum()
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
    The reconstruction sum_k d_k |e_k><e_k| is compared entrywise against
    the exact subspace projector.  ``max_diag_deviation`` is restricted to
    indices within the rule's polynomial exactness degree; the full
    residual is reported unrestricted.
    """
    if rule is None:
        rule = spec.family.moment_rule()
    ks = np.arange(spec.terms)
    diag = moment_diagonals(spec.family, ks, rule)
    degree_limit = 2 * rule.nodes.size - 1
    safe = ks[ks <= degree_limit]
    max_dev = float(np.abs(diag[safe] - 1.0).max())
    recon = (spec.embedding * diag) @ spec.embedding.conj().T
    residual = float(np.abs(recon - subspace_projector(spec)).max())
    return ResolutionCheck(diagonals=diag, max_diag_deviation=max_dev,
                           residual=residual, degree_limit=degree_limit,
                           n_nodes=rule.nodes.size)


def verify_temporal_stability(spec: GKFamilySpec, params: JCParams, x: float,
                              t: float, trunc: TruncationConfig) -> float:
    """|<x, t| U_t |x, 0>|^2; equals 1 up to rounding and truncation tail.

    U_t |x, 0> is applied block by block in O(N), never as a dense matrix.
    """
    v0 = gk_state(spec, x, 0.0, trunc)
    vt = gk_state(spec, x, t, trunc)
    return float(abs(np.vdot(vt, dressed_frame(params, trunc).evolve(v0, t))) ** 2)


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

    An infinite convergence radius is encoded as null.  Coefficients are
    listed for every (x, y) pair of the two grids.
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
        "weights": [spec.family.weight(k) for k in range(spec.terms)],
        "h": [float(v) for v in spec.energies],
        "coefficients": coeffs,
    }
