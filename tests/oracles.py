"""Reference forms that only the tests call.

No command builds these: each is the closed-form, dense or brute-force
counterpart of a structured path of the package, kept here so that the
tests can compare the two.

- Averages: the analytic Bohr mean of a quasi-periodic family and its
  finite-time trapezoid average.
- The dressed spectrum level by level: mixing angle, eigenenergy, dense
  eigenvector and its position in the dressed order, and the lower-branch
  ladder S_k.
- Gazeau-Klauder data: a rule's linear weights, a ladder's dense
  embedding, the measure density tau and the action identity.
- The operator graph: the weighted element Q_x and the dense
  Knill-Laflamme check of H3 against sampled generators.
- The temporal-stability grid under the closed-form bound that `verify`
  reports.
"""
import math
from collections import namedtuple

import numpy as np

from jcgraph.gk_states import tail_mass
from jcgraph.graph_verify import GraphGenerator, knill_laflamme_check, ladder_vector
from jcgraph.hilbert import ValidationError, basis_index
from jcgraph.jc_spectrum import DegenerateLevelError, _rescaled


def bohr_mean_diagonal(h, m) -> np.ndarray:
    """Exact Bohr mean of t -> e^{-iHt} M e^{iHt} for H = diag(h), h strictly increasing.

    Every off-diagonal phase e^{-i(h_j - h_k)t} averages to zero, so the mean
    is the diagonal part of M; a repeated h would leave off-diagonal terms.
    """
    if np.diff(h).min(initial=math.inf) <= 0:
        raise ValidationError("h must be strictly increasing")
    return np.diag(np.diag(np.asarray(m, dtype=complex)))


def finite_time_mean(f, t_max: float, samples: int) -> np.ndarray:
    """Brute-force average (1/2T) int_{-T}^{T} f(y) dy by the trapezoid rule."""
    ys = np.linspace(-t_max, t_max, samples)
    acc = 0.5 * (np.asarray(f(ys[0]), dtype=complex) + np.asarray(f(ys[-1]), dtype=complex))
    for y in ys[1:-1]:
        acc = acc + f(y)
    return acc * ((ys[1] - ys[0]) / (2.0 * t_max))


def mixing_angle(params, n: int) -> float:
    """theta_n = atan2(gamma_f sqrt(n), delta_f), as ``dressed_frame`` reads it."""
    if params.kappa == 0.0 and params.delta == 0.0:
        raise DegenerateLevelError(
            f"level n = {n} is exactly degenerate (kappa = 0, delta = 0)")
    return math.atan2(params.gamma_f * math.sqrt(n), params.delta_f)


def eigenenergy(params, n: int, branch: str) -> float:
    """E_{n,+} or E_{n,-} (branch "plus" or "minus"), or the |0, g> energy for "ground".

    Bit for bit the energy ``dressed_frame`` computes at the same level.
    """
    if branch == "ground":
        return -0.5 * params.omega_s
    e, g, scale = _rescaled(params)
    rabi = scale * math.sqrt(e ** 2 + g ** 2 * n)
    sign = 1.0 if branch == "plus" else -1.0
    return params.omega_f * ((n - 0.5) + 0.5 * sign * rabi)


def dressed_vector(params, n: int, branch: str, trunc) -> np.ndarray:
    """|n, +> = s |n-1, e> + c |n, g> or |n, -> = c |n-1, e> - s |n, g>, or |0, g>."""
    v = np.zeros(trunc.dim, dtype=complex)
    if branch == "ground":
        v[basis_index(0, "g")] = 1.0
        return v
    half = 0.5 * mixing_angle(params, n)
    ce, cg = math.sin(half), math.cos(half)
    if branch == "minus":
        ce, cg = cg, -ce
    v[basis_index(n - 1, "e")] = ce
    v[basis_index(n, "g")] = cg
    return v


def dressed_index(branch: str, n):
    """Position of (branch, n), n >= 1, in the dressed order.

    (n, +) sits at 2n - 1 and (n, -) at 2n; ``n`` may be an integer array.
    """
    return 2 * n - (branch == "plus")


def s_sequence(params, k: int) -> float:
    """Lower-branch energy ladder: S_0 = E_{0,g}, S_k = E_{k,-} for k >= 1."""
    return eigenenergy(params, k, "ground" if k == 0 else "minus")


def weights(rule) -> np.ndarray:
    """A rule's linear weights; those below the smallest double are 0."""
    with np.errstate(under="ignore"):
        return np.exp(rule.log_weights)


def embedding(spec) -> np.ndarray:
    """The ladder's dressed vectors |e_k> as the columns of a dense dim x terms matrix."""
    return spec.frame.embed(spec.index, np.eye(spec.terms))


def tau(family, x):
    """The measure density tau(x) = N^2(x) rho(x)."""
    return np.exp(family.log_n_squared(x) + family.log_rho(x))


# <x, 0| G |x, 0> and whether the ladder guarantees that it equals x
ActionIdentityCheck = namedtuple("ActionIdentityCheck", "value guaranteed")


def verify_action_identity(family, x: float, energies=None) -> ActionIdentityCheck:
    """<x, 0| G |x, 0> for G = sum_k h_k |e_k><e_k|, h_k = k unless ``energies`` is given.

    The expectation equals x exactly when h_0 = 0 and h_k = c_k / c_{k-1}
    (the canonical ladder h_k = k with the factorial family).
    """
    h = np.arange(400.0) if energies is None else np.asarray(energies, dtype=float)
    value = float((h * family.probabilities(x, h.size - 1)).sum())
    ks = range(1, min(h.size, 60))
    ratios = [math.exp(family.log_weight(k) - family.log_weight(k - 1)) for k in ks]
    guaranteed = h[0] == 0.0 and np.abs(h[1:60] - ratios).max() < 1e-9
    return ActionIdentityCheck(value, bool(guaranteed))


def q_operator(x: float, families, code) -> np.ndarray:
    """Q_x = P^1_x + (tau2/tau1)(x) P^2_x + (R tau1(x))^{-1} P^3, R the first radius."""
    fam1, fam2 = families[0].family, families[1].family
    tau1 = float(tau(fam1, x))
    v1, v2 = (ladder_vector(spec, x, 0.0) for spec in families)
    return (np.outer(v1, v1.conj()) + float(tau(fam2, x)) / tau1 * np.outer(v2, v2.conj())
            + code.p3 / (fam1.radius * tau1))


def verify_anticlique(code, generators, tol: float = 1e-8, projector=None):
    """Dense Knill-Laflamme check of P3 (or a sub-projector) against each generator.

    Takes GraphGenerator samples or raw operators, such as linear combinations.
    """
    p = code.p3 if projector is None else np.asarray(projector, dtype=complex)
    names = [f"generator[j={g.j},x={g.x:.6g},t={g.t:.6g}]"
             if isinstance(g, GraphGenerator) else f"sample[{i}]"
             for i, g in enumerate(generators)]
    return knill_laflamme_check(p, generators, tol=tol, names=names)


def stability_grid(spec, xs, ts, trunc) -> np.ndarray:
    """The (len(xs), len(ts)) array of fidelities |<x, t| U_t |x, 0>|^2.

    Both states are read in dressed coordinates, on the ladder's indices:
    |x, t> has amplitudes sqrt(p_k(x)) e^{-i h_k t}, with h the ladder's
    ``energies``, and U_t |x, 0> has sqrt(p_k(x)) e^{-i E_k t}, with E the
    frame's energies at the same indices.  The frame's block rotation is
    orthogonal, so each fidelity is |sum_k p_k(x) e^{+i h_k t} e^{-i E_k t}|^2
    and the grid is one (len(xs), terms) @ (terms, len(ts)) product.  Every
    x's tail must be within ``trunc.tail_tol``, and all amplitudes come from
    one ``probabilities`` call.  ``verify`` reports the closed-form bound of
    ``gk_states.verify_temporal_stability``, which this grid must lie under.
    """
    xs = [float(x) for x in xs]
    ts = np.asarray(ts, dtype=float)
    ladder_phases = np.exp(-1j * np.outer(spec.energies, ts))
    frame_phases = np.exp(-1j * np.outer(spec.frame.energies[spec.index], ts))
    for x in xs:
        assert tail_mass(spec.family, x, spec.terms - 1) <= trunc.tail_tol
    p = spec.family.probabilities(xs, spec.terms - 1)
    return np.abs(p @ (ladder_phases.conj() * frame_phases)) ** 2
