"""Reference forms that only the tests call.

No command builds these: each is the closed-form, dense or brute-force
counterpart of a structured path of the package, kept here so that the
tests can compare the two.

- Averages: the analytic Bohr mean of a quasi-periodic family and its
  finite-time trapezoid average.
- The dressed spectrum level by level: mixing angle, eigenenergy, dense
  eigenvector and its position in the dressed order, and the lower-branch
  ladder S_k.
- Product-basis coordinates: the change of basis to and from dressed
  coordinates, and a ladder state embedded (commands hold both in dressed
  coordinates).
- Gazeau-Klauder data: a rule's linear weights, the moment table of a
  ladder-sized Gauss rule, a ladder's dense embedding, the measure density
  tau and the action identity.
- The operator graph: the weighted element Q_x, the dense H3 basis, the
  dense Knill-Laflamme check of H3 against sampled generators, the same
  check in the k0-dimensional frame of an H3 basis, and the anticlique
  certificate for any H3 basis, which `verify` reads off the frame.
- The channel on sampled code states, which `verify` bounds off the frame.
- The temporal-stability grid under the closed-form bound that `verify`
  reports.
"""
import math
from collections import namedtuple

import numpy as np

from jcgraph.gk_states import moment_diagonals, tail_safe_xmax
from jcgraph.graph_verify import (AnticliqueCertificate, CheckRecord, GraphGenerator,
                                  VerificationReport, knill_laflamme_check, ladder_vector)
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


def rotate(frame, a) -> np.ndarray:
    """Change coordinates between the product and the dressed basis on axis 0.

    ``frame.embed`` on every dressed index: each block rotation is a real
    symmetric reflection, so the map is its own inverse.
    """
    return frame.embed(np.arange(frame.energies.size), a)


def ladder_state(spec, x: float, t: float) -> np.ndarray:
    """|x, t> in the product basis: ``ladder_vector``'s dressed amplitudes embedded."""
    return spec.frame.embed(spec.index, ladder_vector(spec, x, t))


def weights(rule) -> np.ndarray:
    """A rule's linear weights; those below the smallest double are 0."""
    with np.errstate(under="ignore"):
        return np.exp(rule.log_weights)


MOMENT_BLOCK = 1 << 18  # bounds the (k, node) temporaries of moment_table


def rule_nodes(terms: int) -> int:
    """Nodes exact for x^k at every k < terms: n = ceil(terms / 2), degree 2n - 1."""
    return max(2, (terms + 1) // 2)


def moment_table(family, ks, rule=None) -> np.ndarray:
    """``moment_diagonals`` in blocks of ``MOMENT_BLOCK`` (k, node) entries, by default
    under the rule of ``rule_nodes(max(ks) + 1)`` nodes, exact at every order."""
    ks = np.asarray(ks, dtype=np.int64)
    if rule is None:
        rule = family.moment_rule(rule_nodes(int(ks.max(initial=0)) + 1))
    rows = max(1, MOMENT_BLOCK // rule.nodes.size)
    return np.concatenate([np.empty(0)] + [moment_diagonals(family, ks[i:i + rows], rule)
                                           for i in range(0, ks.size, rows)])


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
    v1, v2 = (ladder_state(spec, x, 0.0) for spec in families)
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


def h3_basis(code) -> np.ndarray:
    """The dense dim x k0 H3 basis W = V E_H3: the frame's columns at ``h3_indices``.

    Its first k0 - 1 columns span the code."""
    return code.frame.embed(code.h3_indices, np.eye(code.h3_indices.size))


def frame_generator(w, families, j, x, t) -> np.ndarray:
    """The generator of ``generator`` seen in the frame of an H3 basis W: W+ G W.

    W is dim x k0, such as ``h3_basis(code)``, and P3 = W W+.  A ladder
    generator |v><v| becomes u u+ with u = W+ v; P3 itself becomes
    (W+ W)^2.  For 1-D arrays j, x and t the result is an (n, k0, k0)
    stack, one sample (j[i], x[i], t[i]) each.
    """
    wh = np.asarray(w).conj().T
    gram = wh @ w
    out = []
    samples = zip(np.ravel(j).tolist(), np.ravel(x).tolist(), np.ravel(t).tolist())
    for ji, xi, ti in samples:
        if ji not in (1, 2, 3):
            raise ValueError(f"generator index must be 1, 2 or 3, got {ji}")
        if ji == 3:
            out.append(gram @ gram)
        else:
            u = wh @ ladder_state(families[ji - 1], xi, ti)
            out.append(np.outer(u, u.conj()))
    return np.array(out) if np.ndim(j) else out[0]


def anticlique_bound(w, code) -> AnticliqueCertificate:
    """``anticlique_certificate`` for any dim x k0 H3 basis W, by dense k0 x k0 algebra.

    The ladders are the spans of the frame's columns at ``code.j_indices``
    and ``code.s_indices``.  Every block rotation is a real symmetric
    reflection, so M = ``rotate(frame, W)`` = V+ W, and a ladder's largest
    |W+ v|^2 is sigma^2 = lambda_max(M[idx]+ M[idx]).  The bounds are
    lambda_max(W+ W) sigma^2 and P3's own residual
    max |W ((W+ W)^2 - alpha I) W+|, taken on the rows where W is nonzero;
    alpha_zero = max sigma^2 / k0 and alpha_identity = tr(W+ W) / k0.  The
    library reads the same three numbers off the frame when W = ``h3_basis(code)``.
    """
    w = np.asarray(w, dtype=complex)
    k0 = w.shape[1]
    gram = w.conj().T @ w
    m = rotate(code.frame, w)
    sigma2 = max(float(np.linalg.eigvalsh(m[idx].conj().T @ m[idx])[-1])
                 for idx in (code.j_indices, code.s_indices))
    p3 = gram @ gram
    rows = w[np.abs(w).max(axis=1) > 0]
    r3 = np.abs(rows @ (p3 - np.trace(p3) / k0 * np.eye(k0)) @ rows.conj().T).max()
    return AnticliqueCertificate(
        residual=max(float(np.linalg.eigvalsh(gram)[-1]) * sigma2, float(r3)),
        alpha_zero=sigma2 / k0, alpha_identity=complex(np.trace(gram) / k0))


def knill_laflamme_frame(w, ms, tol: float = 1e-8):
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
    return VerificationReport([CheckRecord(f"op[{i}]", residual, tol, alpha=alpha)
                               for i, (alpha, residual)
                               in enumerate(zip(alphas.tolist(), residuals.tolist()))])


def sampled_code_channel(code, families, amps, xs, ts) -> tuple:
    """The largest |trace - 1| and 1 - fidelity of the dephasing channel's output
    over sampled code states: unit code amplitudes ``amps[i]``, held at
    ``h3_indices[:-1]`` in dressed coordinates, each sent through the channel
    at (xs[i], ts[i]).

    In the product basis the channel's projectors |v1><v1|, |v2><v2| and
    I - both split a pure input u into the branches b = c1 v1, c2 v2 and
    u - both, c_i = <v_i|u>, and the output sum |b><b| has trace sum |b|^2 and
    fidelity sum |<u|b>|^2 with the input.  ``verify`` once read its two
    code-state channel records off 5 random states; ``channel_certificate``
    bounds both for every code state and every (x, t).
    """
    traces, losses = [], []
    for a, x, t in zip(amps, xs, ts, strict=True):
        v = np.zeros(code.frame.energies.size, dtype=complex)
        v[code.h3_indices[:-1]] = a
        u = rotate(code.frame, v)
        branches = [np.vdot(w, u) * w for w in (ladder_state(spec, x, t) for spec in families)]
        branches.append(u - sum(branches))
        traces.append(abs(sum(np.vdot(b, b).real for b in branches) - 1.0))
        losses.append(1.0 - sum(abs(np.vdot(u, b)) ** 2 for b in branches))
    return max(traces), max(losses)


def stability_grid(spec, xs, ts) -> np.ndarray:
    """The (len(xs), len(ts)) array of fidelities |<x, t| U_t |x, 0>|^2.

    Both states are read in dressed coordinates, on the ladder's indices:
    |x, t> has amplitudes sqrt(p_k(x)) e^{-i h_k t}, with h the ladder's
    ``energies``, and U_t |x, 0> has sqrt(p_k(x)) e^{-i E_k t}, with E the
    frame's energies at the same indices.  The frame's block rotation is
    orthogonal, so each fidelity is |sum_k p_k(x) e^{+i h_k t} e^{-i E_k t}|^2
    and the grid is one (len(xs), terms) @ (terms, len(ts)) product.  Every
    x must lie in [0, x_max], x_max = ``tail_safe_xmax`` at beta =
    ``gk_states._BETA``: the domain that ``verify`` certifies, where it reports
    the closed-form bound of ``gk_states.verify_temporal_stability``, which
    this grid must lie under.
    """
    xs = [float(x) for x in xs]
    ts = np.asarray(ts, dtype=float)
    ladder_phases = np.exp(-1j * np.outer(spec.energies, ts))
    frame_phases = np.exp(-1j * np.outer(spec.frame.energies[spec.index], ts))
    assert max(xs, default=0.0) <= tail_safe_xmax(spec.family, spec.terms - 1)
    p = np.array([spec.family.probabilities(x, spec.terms - 1) for x in xs])
    return np.abs(p @ (ladder_phases.conj() * frame_phases)) ** 2
