"""The O(N) structured paths of `verify` against their dense oracles.

`verify` reads the spectrum residuals off the frame's 2x2 blocks, builds
ladder states from dressed indices on one frame, applies U_t block by
block, bounds Knill-Laflamme over the whole graph and the channel on every
code state from the frame and its index partition, sends the leak probe
through the channel in dressed coordinates and reads the resolution and
identity-membership reconstructions block by block.  Each is compared here
with the dense computation it replaces (`hamiltonian_matrix @ dressed_basis`
and its Gram matrix, closed-form `dressed_vector` columns,
`evolution_operator`, `channel_apply` + `eigvalsh` + `fidelity`, and the
reconstructions `E diag(d) E+` below) at N <= 60,
on both weight families, for positive, negative and zero detuning, with x
up to the tail-safe radius.  The anticlique certificate is checked against
its dense form for any H3 basis (`oracles.anticlique_bound`) and against
sampled generators in the frame of the H3 basis (`oracles.frame_generator`,
`oracles.knill_laflamme_frame`), which in turn match `knill_laflamme_check`.
The channel certificate is checked against code states sent through the
channel (`oracles.sampled_code_channel`).
"""
import functools
import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jcgraph import cli, code_construction, gk_states, graph_verify, hilbert, jc_spectrum
from jcgraph.code_construction import decompose, minimal_k0, minimal_m0
from jcgraph.gk_states import (builtin_family, closed_form_diagonals, gk_state,
                               jc_families, moment_diagonals, tail_safe_xmax,
                               verify_resolution, verify_temporal_stability)
from jcgraph.graph_verify import (
    anticlique_certificate,
    channel_apply,
    channel_certificate,
    dephase_pure_state,
    dephasing_channel,
    fidelity,
    generator,
    knill_laflamme_check,
    leak_probe,
    verify_identity_membership,
)
from jcgraph.hilbert import QuadratureRule, TruncationConfig, ValidationError, basis_index
from jcgraph.jc_spectrum import (JCParams, dressed_basis, dressed_frame,
                                 evolution_operator, hamiltonian_matrix,
                                 spectrum_residuals)
from oracles import (anticlique_bound, dressed_index, dressed_vector, eigenenergy,
                     embedding, frame_generator, h3_basis, knill_laflamme_frame,
                     ladder_state, moment_table, rotate, sampled_code_channel,
                     stability_grid, weights)

FAMILIES = ("uniform_moment", "factorial")
ORACLE_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def xmax(family: str, terms: int, budget: float) -> float:
    return tail_safe_xmax(builtin_family(family), terms - 1, budget=budget)


# x one ulp below x_max on the factorial S ladder (58 rungs) reads a tail of
# 1.0000000000000018e-12 > beta, x_max itself 9.999999999999982e-13: tail_mass
# wobbles by ulps, and both lie in the certified domain [0, x_max] that gk_state
# and the stability oracle accept
EDGE = (JCParams(1.0, 1.0, 1.0), TruncationConfig(60), "factorial")


@st.composite
def systems(draw):
    """A system with positive, negative or zero detuning and its cut k0 = 3."""
    omega_s = draw(st.one_of(st.floats(0.3, 0.95), st.floats(1.05, 3.0),
                             st.just(1.0)))
    params = JCParams(omega_f=1.0, omega_s=omega_s, kappa=draw(st.floats(0.05, 1.9)))
    n_fock = draw(st.sampled_from((20, 40, 60)))
    family = draw(st.sampled_from(FAMILIES))
    return params, TruncationConfig(n_fock), family


def build(params, trunc, family):
    k0 = minimal_k0(minimal_m0(params))
    fam = builtin_family(family)
    code = decompose(params, k0, trunc)
    return code, jc_families(code, fam, fam)


def test_vectorized_basis_matches_closed_forms_column_by_column():
    for omega_s in (0.8, 1.25, 1.0):
        params = JCParams(omega_f=1.0, omega_s=omega_s, kappa=0.7)
        trunc = TruncationConfig(25)
        basis = dressed_basis(params, trunc)
        levels = [("ground", 0, 0)]
        levels += [(b, n, dressed_index(b, n)) for n in range(1, 26)
                   for b in ("plus", "minus")]
        assert [i for _, _, i in levels] == list(range(trunc.dim - 1))
        for branch, n, i in levels:
            np.testing.assert_allclose(basis.vectors[:, i],
                                       dressed_vector(params, n, branch, trunc),
                                       atol=1e-15, rtol=0)
            assert basis.energies[i] == eigenenergy(params, n, branch)


def dense_spectrum_residuals(params, trunc, vectors, energies):
    """max column norm of H V - V diag(E) and max |V+ V - I|, the dense form."""
    h = hamiltonian_matrix(params, trunc)
    eig = np.linalg.norm(h @ vectors - vectors * energies, axis=0).max()
    gram = np.abs(vectors.conj().T @ vectors - np.eye(trunc.dim)).max()
    return float(eig), float(gram)


SPECTRUM_POINTS = [
    (JCParams(1.0, 0.8, 0.7), 40),  # delta > 0
    (JCParams(1.0, 1.25, 0.7), 40),  # delta < 0
    (JCParams(1.0, 1.0, 0.7), 40),  # resonance
    (JCParams(1.0, 0.8, 0.0), 40),  # decoupled, delta > 0
    (JCParams(1.0, 1.25, 0.0), 40),  # decoupled, delta < 0
    # the README cavity point, in Hz: both forms exceed the absolute 1e-10
    (JCParams(2 * np.pi * 51.1e9, 2 * np.pi * 51.1e9, 2 * np.pi * 47e3), 60),
]


@pytest.mark.parametrize("params, n_fock", SPECTRUM_POINTS)
def test_block_spectrum_residuals_match_dense_form(params, n_fock):
    trunc = TruncationConfig(n_fock)
    basis = dressed_basis(params, trunc)
    eig, gram = spectrum_residuals(params, dressed_frame(params, trunc))
    dense_eig, dense_gram = dense_spectrum_residuals(params, trunc, basis.vectors,
                                                     basis.energies)
    ulps = 4 * np.finfo(float).eps
    assert abs(eig - dense_eig) <= ulps * np.abs(basis.energies).max()
    assert abs(gram - dense_gram) <= ulps
    assert (eig > 1e-10, dense_eig > 1e-10) == ((True, True) if params.omega_f > 1e9
                                                else (False, False))
    assert gram < 1e-10


def test_block_spectrum_residuals_catch_a_corrupted_frame():
    params, trunc = JCParams(1.0, 0.8, 0.7), TruncationConfig(30)
    frame = dressed_frame(params, trunc)

    def corrupted(field, index, change):
        values = getattr(frame, field).copy()
        values[index] = change(values[index])
        return replace(frame, **{field: values})

    # (frame, eigen residual trips, Gram residual trips)
    cases = [
        (corrupted("sin", 7, np.negative), True, False),  # block n = 8 mixes wrongly
        (corrupted("cos", 3, lambda c: c * (1.0 + 1e-6)), True, True),  # block 4 unnormalized
        (corrupted("energies", 16, lambda e: e + 0.5), True, False),  # (8, -) only
        (corrupted("energies", 0, lambda e: e + 0.5), True, False),  # |0, g>
        (corrupted("energies", -1, lambda e: e + 0.5), True, False),  # |N, e>
    ]
    for bad, eig_trips, gram_trips in cases:
        eig, gram = spectrum_residuals(params, bad)
        dense = dense_spectrum_residuals(params, trunc, rotate(bad, np.eye(trunc.dim)),
                                         bad.energies)
        np.testing.assert_allclose((eig, gram), dense, rtol=1e-12, atol=1e-15)
        assert (eig > 1e-10, gram > 1e-10) == (eig_trips, gram_trips)


def test_frame_rejects_the_degenerate_point():
    with pytest.raises(jc_spectrum.DegenerateLevelError):
        dressed_frame(JCParams(1.0, 1.0, 0.0), TruncationConfig(5))


@settings(max_examples=40, deadline=None)
@given(systems(), st.floats(0.0, 1.0), st.floats(-20.0, 20.0),
       st.integers(0, 2 ** 32 - 1))
@example(EDGE, 1.0 - 2.0 ** -53, 2.0, 0)
def test_structured_evolution_matches_dense_operator(system, frac, t, seed):
    params, trunc, family = system
    _, families = build(params, trunc, family)
    u = evolution_operator(params, t, trunc)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    v /= np.linalg.norm(v)
    frame = dressed_frame(params, trunc)
    assert np.abs(evolve(frame, v, t) - u @ v).max() <= ORACLE_TOL
    # evolve and the stability grid batch t: each column against its own dense U_t
    ts = (t, 0.0, -0.5 * t)
    us = (u, np.eye(trunc.dim), evolution_operator(params, -0.5 * t, trunc))
    assert np.abs(evolve(frame, v, ts)
                  - np.column_stack([u_y @ v for u_y in us])).max() <= ORACLE_TOL
    for spec in families:
        xs = (frac * xmax(family, spec.terms, 1e-12), 0.0)
        dense = [[abs(np.vdot(gk_state(spec, x, y),
                              u_y @ gk_state(spec, x, 0.0))) ** 2
                  for y, u_y in zip(ts, us)] for x in xs]
        np.testing.assert_allclose(stability_grid(spec, xs, ts),
                                   dense, atol=ORACLE_TOL, rtol=0)


def evolve(frame, v, t):
    """U_t v = exp(-i H t) v in O(N), without building U_t.

    Rotates into the dressed frame, applies the phases, rotates back.  For
    a 1-D array of times ``t`` the result holds one column U_t v per t.
    """
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(frame.energies, t))
    return rotate(frame, phases * rotate(frame, v).reshape((-1,) + (1,) * t.ndim))


def per_x_stability(spec, xs, ts):
    """The stability grid with every phase built per x, through embed and evolve."""
    ts = np.asarray(ts, dtype=float)
    fids = np.empty((len(xs), ts.size))
    frame, h = spec.frame, spec.energies
    for i, x in enumerate(xs):
        amp = np.sqrt(spec.family.probabilities(float(x), spec.terms - 1))
        v0 = frame.embed(spec.index, amp * np.exp(-1j * h * 0.0))
        vt = frame.embed(spec.index, amp[:, None] * np.exp(-1j * np.outer(h, ts)))
        fids[i] = np.abs((vt.conj() * evolve(frame, v0, ts)).sum(axis=0)) ** 2
    return fids


@settings(max_examples=25, deadline=None)
@given(systems(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=10))
def test_stability_phases_built_once_match_the_per_x_form(system, ts):
    params, trunc, family = system
    _, families = build(params, trunc, family)
    for spec in families:
        xs = np.linspace(0.0, xmax(family, spec.terms, 1e-12), 10)
        np.testing.assert_allclose(stability_grid(spec, xs, ts),
                                   per_x_stability(spec, xs, ts), atol=1e-13, rtol=0)


def _stability_checks(monkeypatch, capsys, family, n_fock, mutate=None):
    """verify's exit code and its two stability records, on a cut whose frame
    energies are ``mutate``d after ``decompose`` built them."""
    def mutated_cut(*args):
        code = decompose(*args)
        frame = replace(code.frame, energies=mutate(code.frame.energies))
        return replace(code, frame=frame)

    with monkeypatch.context() as m:
        if mutate is not None:
            m.setattr(code_construction, "decompose", mutated_cut)
        rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                       "--family1", family, "--family2", family, "--n-fock", str(n_fock)])
    report = json.loads(capsys.readouterr().out)
    return rc, {c["name"]: c for c in report["checks"]
                if c["name"].startswith("gk.temporal_stability.")}


@pytest.mark.parametrize("mutation", ["scaled", "shifted"])
def test_stability_fails_when_the_ladder_disagrees_with_its_frame(monkeypatch, capsys,
                                                                  mutation):
    """Energies that do not diagonalize H fail the stability bound.

    The ladders are views of the frame, so the frame is what is mutated: the
    bound reads the frame's eigen residual, which grows linearly with the
    energy error (a relative 1e-6 gives bounds near 2.6e-6 at N = 160).
    """
    mutate = {"scaled": lambda e: e * (1 + 1e-6),
              # each dressed index reads the energy one index up
              "shifted": lambda e: np.append(e[1:], e[-1])}[mutation]
    rc, checks = _stability_checks(monkeypatch, capsys, "factorial", 160, mutate)
    assert rc == 1 and sorted(checks) == ["gk.temporal_stability.J",
                                          "gk.temporal_stability.S"]
    assert all(c["residual"] > 1e-9 and not c["pass"] for c in checks.values())
    assert code_construction.decompose is decompose
    rc, checks = _stability_checks(monkeypatch, capsys, "factorial", 160)
    assert rc == 0 and len(checks) == 2
    assert all(c["residual"] < 1e-9 and c["pass"] for c in checks.values())


@pytest.mark.parametrize("family", FAMILIES)
def test_stability_fails_on_a_frame_one_ppm_off_at_small_cutoff(monkeypatch, capsys,
                                                                family):
    """Energies scaled by 1 + 1e-6 at N = 30 fail both records.

    The oracle grid reads the ladder's and the frame's energies from one
    array, so it cannot see a frame whose energies are off; the bound reads
    the frame's eigen residual, which grows linearly with the error, and the
    bound with its square (about 9e-8 here).
    """
    rc, checks = _stability_checks(monkeypatch, capsys, family, 30,
                                   lambda e: e * (1 + 1e-6))
    assert rc == 1 and len(checks) == 2
    assert all(c["residual"] > 1e-9 and not c["pass"] for c in checks.values())


def test_stability_passes_a_correct_frame_with_large_energies(capsys):
    """At omega_s = 10^5 omega_f the rounding allowance 20 u max|E| alone would
    put a bound first order in T rho at about 2.5e-9; the second-order bound
    passes, as the oracle grid did."""
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "1e5", "--kappa", "0.7",
                   "--n-fock", "20"])
    report = json.loads(capsys.readouterr().out)
    checks = [c for c in report["checks"] if c["name"].startswith("gk.temporal_stability.")]
    assert rc == 0 and len(checks) == 2
    assert all(c["residual"] < 1e-9 and c["pass"] for c in checks)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n_fock", [30, 160, 2000])
def test_stability_grid_lies_under_the_bound(family, n_fock):
    """The oracle grid's 1 - F, on both ladders, below what verify reports.

    x runs to the largest x whose certified tail is within the bound's
    beta = 1e-12, t to 10/omega_f, as verify's grid did.  The bound is for
    exact amplitudes; the oracle's p_k = exp(k log x - log c_k - log N^2) each
    carry about u times the magnitudes of those parts (u = 2^-53), so its
    kept mass, and with it 1 - F twice over, may be off by their p-weighted
    sum plus (terms + 1) u for the exp and the sum.  At factorial N = 2000
    the kept mass reads 1 - 1.6e-12 against an exact tail of 1e-12.
    """
    params, trunc = JCParams(1.0, 0.8, 0.7), TruncationConfig(n_fock)
    code, families = build(params, trunc, family)
    residuals = spectrum_residuals(params, code.frame)
    t_max, u = 10.0 / params.omega_f, 2.0 ** -53
    bound = verify_temporal_stability(code.frame, *residuals, t_max)  # one for both ladders
    for spec in families:
        xs = np.linspace(0.0, xmax(family, spec.terms, 1e-12), 10)
        grid = stability_grid(spec, xs, np.linspace(0.0, t_max, 10))
        k = np.arange(spec.terms)
        log_c = np.abs([spec.family.log_weight(int(j)) for j in k])
        parts = [k * abs(np.log(x)) + log_c + abs(spec.family.log_n_squared(x))
                 if x > 0.0 else 0.0 * k for x in xs]  # p at x = 0 is exact
        p = np.array([spec.family.probabilities(x, spec.terms - 1) for x in xs])
        slack = u * ((p * parts).sum(axis=1) + spec.terms + 1)
        loss = (1.0 - grid).max(axis=1)
        assert 0.0 < loss.max() and bound < 1e-9
        assert (loss < bound + 2.0 * slack).all()


def test_verify_searches_one_tail_and_builds_no_stability_grid(monkeypatch, capsys):
    """One tail-safe search (the samples' x range) and one spectrum residual per
    verify; no stage builds a (terms, times) array of phases."""
    searches = _count_calls(monkeypatch, "tail_safe_xmax", gk_states)
    spectra = _count_calls(monkeypatch, "spectrum_residuals")
    shapes, exp = [], np.exp

    def recorded_exp(*args, **kwargs):
        out = exp(*args, **kwargs)
        if np.iscomplexobj(out):
            shapes.append(np.shape(out))
        return out
    monkeypatch.setattr(np, "exp", recorded_exp)
    rc = cli.main(["verify"] + _FRAME_POINT)
    capsys.readouterr()
    assert rc == 0
    assert (len(searches), len(spectra)) == (1, 1)
    # J has 30 rungs and S 28: the sampled states put their rungs last
    assert shapes and not [s for s in shapes if len(s) == 2 and s[0] in (28, 30)]


@settings(max_examples=25, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_frame_knill_laflamme_matches_dense_check(system, seed):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rng = np.random.default_rng(seed)
    x_hi = cli._x_range(families)
    draws = [(j, float(rng.uniform(0.0, x_hi)), float(rng.uniform(0.0, 10.0)))
             for j in (1, 2, 3, 1, 2, 1, 2)]
    w = h3_basis(code)
    ops = [generator(code, families, j, x, t).operator
           for j, x, t in draws]
    ms = [frame_generator(w, families, j, x, t) for j, x, t in draws]
    for _ in range(2):
        coeffs = rng.normal(size=len(draws))
        ops.append(sum(c * a for c, a in zip(coeffs, ops[:len(draws)])))
        ms.append(sum(c * m for c, m in zip(coeffs, ms[:len(draws)])))
    ops.append(np.eye(trunc.dim, dtype=complex))
    ms.append(w.conj().T @ w)
    # a random Hermitian error is no scalar on H3: its residual is O(1)
    a = rng.normal(size=(trunc.dim, trunc.dim)) + 1j * rng.normal(size=(trunc.dim,) * 2)
    ops.append(a + a.conj().T)
    ms.append(w.conj().T @ ops[-1] @ w)
    dense = knill_laflamme_check(code.p3, ops)
    frame = knill_laflamme_frame(w, ms)
    for d, f in zip(dense.checks, frame.checks, strict=True):
        assert abs(d.residual - f.residual) <= ORACLE_TOL
        assert abs(d.alpha - f.alpha) <= ORACLE_TOL
    assert all(f.passed for f in frame.checks[:-1])
    assert frame.checks[-1].residual > 1e-3
    assert abs(frame.checks[-2].alpha - 1.0) <= ORACLE_TOL


JUMP = 7.464101615137754  # the double nearest 2(2 + sqrt 3), where M0 jumps


@st.composite
def rate_points(draw):
    """Log-uniform (gamma_f, gamma_s) in [1e-6, 40] at omega_f = 1.  Past 40 the
    cut k0* ~ (gamma_f / 4)^2 makes the sampled oracle's (n, k0, k0) stack, and
    its dense H3 basis, too large to build; ``verify`` itself holds no such array."""
    gamma_f, gamma_s = (10.0 ** draw(st.floats(-6.0, np.log10(40.0))) for _ in "fs")
    return JCParams.from_rates(gamma_f, gamma_s)


@settings(max_examples=100, deadline=None)
@given(rate_points(), st.sampled_from(FAMILIES), st.integers(0, 2 ** 32 - 1))
@example(JCParams.from_rates(np.nextafter(JUMP, 0.0), np.nextafter(JUMP, 0.0)), "factorial", 1)
@example(JCParams.from_rates(JUMP, JUMP), "uniform_moment", 2)
@example(JCParams.from_rates(np.nextafter(JUMP, 9.0), np.nextafter(JUMP, 9.0)), "factorial", 3)
@example(JCParams(1.0, 0.8, 0.0), "uniform_moment", 4)  # decoupled, delta != 0
@example(JCParams.from_rates(40.0, 40.0), "factorial", 5)  # k0* = 100
def test_the_certificate_bounds_every_sampled_generator(params, family, seed):
    """Wherever the cut k0* is admitted at N = k0* + 10, the three anticlique
    records pass, the certificate read off the frame is the dense bound of the
    H3 basis to rounding, and 40 sampled generators lie within it.  The same
    holds for the dense bound of the H3 basis with one vector mixed 1e-3 into
    a ladder's span, where the bounds are far from zero."""
    k0 = minimal_k0(minimal_m0(params))
    try:
        code = decompose(params, k0, TruncationConfig(k0 + 10))
    except code_construction.CutConstraintError:
        assume(False)
    assert all(record.passed for record in cli._anticlique(code))
    w = h3_basis(code)
    cert, dense = anticlique_certificate(code), anticlique_bound(w, code)
    for field in ("residual", "alpha_zero", "alpha_identity"):
        assert abs(getattr(cert, field) - getattr(dense, field)) <= 1e-15
    fam = builtin_family(family)
    families = jc_families(code, fam, fam)
    rng = np.random.default_rng(seed)
    js = rng.integers(1, 4, 40)
    xs, ts = rng.uniform(0.0, cli._x_range(families), 40), rng.uniform(0.0, 10.0, 40)
    ladder = families[int(rng.integers(2))].index
    a = rng.normal(size=ladder.size) + 1j * rng.normal(size=ladder.size)
    mixed = w.copy()
    mixed[:, 0] = (w[:, 0] + 1e-3 * code.frame.embed(ladder, a / np.linalg.norm(a))) \
        / np.sqrt(1.0 + 1e-6)
    assert anticlique_bound(mixed, code).alpha_zero > 1e-7 / k0
    for basis, bound in ((w, cert), (mixed, anticlique_bound(mixed, code))):
        report = knill_laflamme_frame(basis, frame_generator(basis, families, js, xs, ts))
        for j, check in zip(js.tolist(), report.checks, strict=True):
            assert check.residual <= bound.residual + 1e-15
            if j != 3:
                assert abs(check.alpha) <= bound.alpha_zero + 1e-15


CERTIFICATE_POINTS = {
    "default": JCParams(1.0, 0.8, 0.7), "omega_s=1.2": JCParams(1.0, 1.2, 0.7),
    "resonance": JCParams(1.0, 1.0, 0.7), "gamma=8": JCParams.from_rates(8.0, 8.0),
    "gamma=40": JCParams.from_rates(40.0, 40.0), "kappa=0": JCParams(1.0, 0.8, 0.0),
    "cavity": JCParams(2 * np.pi * 51.1e9, 2 * np.pi * 51.1e9, 2 * np.pi * 47e3),
}
WRONG_CUTS = {
    "correct": lambda code: code,
    "s_cut_moved_down": lambda code: replace(
        code, s_indices=np.concatenate([code.s_indices[:1] - 2, code.s_indices])),
    "j_on_minus_branch": lambda code: replace(code, j_indices=code.j_indices + 1),
}


@pytest.mark.parametrize("stretch", [0.0, 1e-6, 1.0])
@pytest.mark.parametrize("cut", list(WRONG_CUTS))
@pytest.mark.parametrize("point", list(CERTIFICATE_POINTS))
def test_the_certificate_is_the_dense_bound_of_its_h3_basis(point, cut, stretch):
    """The certificate read off the frame is ``oracles.anticlique_bound`` of the
    dense W = V E_H3, on correct and wrong partitions, and on frames whose
    cosines are stretched by 1 + stretch n / N, so g = c^2 + s^2 differs per block."""
    params = CERTIFICATE_POINTS[point]
    k0 = minimal_k0(minimal_m0(params))
    code = WRONG_CUTS[cut](decompose(params, k0, TruncationConfig(k0 + 10)))
    frame = code.frame
    scale = 1.0 + stretch * np.arange(frame.cos.size) / frame.cos.size
    code = replace(code, frame=replace(frame, cos=frame.cos * scale))
    cert, dense = anticlique_certificate(code), anticlique_bound(h3_basis(code), code)
    for field in ("residual", "alpha_zero", "alpha_identity"):
        a, b = getattr(cert, field), getattr(dense, field)
        assert abs(a - b) <= 1e-15 + 1e-14 * abs(b), field
    assert (cert.alpha_zero > 0.1 / k0) == (cut != "correct")


def _g_scaled(code, rng, scale):
    """The cut with c and s scaled by sqrt(scale) on a random half of the blocks,
    so that g = c^2 + s^2 moves by the factor ``scale`` there."""
    frame = code.frame
    root = np.where(rng.random(frame.cos.size) < 0.5, np.sqrt(scale), 1.0)
    return replace(code, frame=replace(frame, cos=frame.cos * root, sin=frame.sin * root))


@settings(max_examples=60, deadline=None)
@given(rate_points(), st.sampled_from(FAMILIES), st.integers(0, 2 ** 32 - 1))
@example(JCParams.from_rates(np.nextafter(JUMP, 0.0), np.nextafter(JUMP, 0.0)), "factorial", 1)
@example(JCParams.from_rates(JUMP, JUMP), "uniform_moment", 2)
@example(JCParams.from_rates(np.nextafter(JUMP, 9.0), np.nextafter(JUMP, 9.0)), "factorial", 3)
@example(JCParams(1.0, 0.8, 0.0), "uniform_moment", 4)  # decoupled, delta != 0
def test_the_channel_certificate_bounds_every_sampled_transmission(params, family, seed):
    """Wherever the cut k0* is admitted at N = k0* + 10, code states sent through
    the channel (``oracles.sampled_code_channel``) stay within
    ``channel_certificate``: on the exact frame, on frames whose g moves by
    1 +- 5e-10 on random blocks, and with S moved down two rungs into the code.

    The code basis vectors and one random code state go at x = 0, where S's state
    is its first rung, and 5 more random states at tail-safe x.  Where no code
    index is on a ladder, a basis vector's trace is its g and its fidelity g^2 at
    every (x, t), so the samples also attain both bounds."""
    k0 = minimal_k0(minimal_m0(params))
    try:
        exact = decompose(params, k0, TruncationConfig(k0 + 10))
    except code_construction.CutConstraintError:
        assume(False)
    fam = builtin_family(family)
    rng = np.random.default_rng(seed)
    dim_code = exact.h3_indices.size - 1
    s_into_code = replace(exact, s_indices=np.concatenate(
        [exact.s_indices[:1] - 4, exact.s_indices[:1] - 2, exact.s_indices]))
    # g off by 5e-10 fails trace_preservation (1e-10) but not the 1e-9 input
    # check of dephase_pure_state, which refuses a code state off by 1e-9
    for code in (exact, _g_scaled(exact, rng, 1.0 + 5e-10),
                 _g_scaled(exact, rng, 1.0 - 5e-10), s_into_code):
        trace_bound, loss_bound = channel_certificate(code)
        families = jc_families(code, fam, fam)
        a = rng.normal(size=(6, dim_code)) + 1j * rng.normal(size=(6, dim_code))
        amps = np.concatenate([np.eye(dim_code), a / np.linalg.norm(a, axis=1)[:, None]])
        xs = np.concatenate([np.zeros(dim_code + 1),
                             rng.uniform(0.0, cli._x_range(families), 5)])
        ts = rng.uniform(0.0, 10.0, xs.size)
        trace, loss = sampled_code_channel(code, families, amps, xs, ts)
        assert trace <= trace_bound + 1e-13
        assert loss <= loss_bound + 1e-13
        if code is s_into_code:
            assert loss_bound == 1.0 and loss > 1e-3
        else:
            assert trace_bound <= trace + 1e-13
            assert loss_bound <= loss + 1e-13


@settings(max_examples=25, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_pure_state_channel_matches_dense_channel(system, seed):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.0, cli._x_range(families)))
    t = float(rng.uniform(0.0, 10.0))
    dim_code = code.h3_indices.size - 1
    amps = rng.normal(size=dim_code) + 1j * rng.normal(size=dim_code)
    code_state = np.zeros(trunc.dim, dtype=complex)
    code_state[code.h3_indices[:-1]] = amps / np.linalg.norm(amps)
    # any unit vector: generic weights on both ladders and the complement
    generic = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    generic = generic / np.linalg.norm(generic) + embedding(families[1])[:, 0]
    generic = rotate(code.frame, generic / np.linalg.norm(generic))
    ladders = [graph_verify.ladder_vector(spec, x, t) for spec in families]
    channel = dephasing_channel(families, x, t)
    # every input in dressed coordinates, the dense channel's in the product basis
    for d in (code_state, generic, leak_probe(code, ladders[0])):
        v = rotate(code.frame, d)
        rho = np.outer(v, v.conj())
        out = channel_apply(channel, rho)
        pure = dephase_pure_state(families, ladders, d)
        assert abs(pure.trace - np.trace(out).real) <= ORACLE_TOL
        assert abs(pure.fidelity - fidelity(rho, out)) <= ORACLE_TOL
    assert 1.0 - pure.fidelity > 1e-3  # the leaked probe loses its ladder part


def test_pure_state_channel_validates_its_input():
    params = JCParams(1.0, 0.8, 0.7)
    trunc = TruncationConfig(20)
    code, families = build(params, trunc, "factorial")
    v = rotate(code.frame, h3_basis(code)[:, 0])
    ladders = [graph_verify.ladder_vector(spec, 0.5, 1.0) for spec in families]
    with pytest.raises(ValidationError):
        dephase_pure_state(families, ladders, 2.0 * v)
    # the same ladder twice: its projectors overlap, so they are no channel
    with pytest.raises(ValidationError, match="overlap"):
        dephase_pure_state((families[0], families[0]), ladders[:1] * 2, v)
    # S starting on J's top rung: |<v1|v2>| is 2.4e-12 here, far below any float
    # tolerance, but the ladders share an index, as channel_certificate reads
    top = replace(code, s_indices=np.concatenate([code.j_indices[-1:], code.s_indices]))
    families = jc_families(top, builtin_family("factorial"), builtin_family("factorial"))
    ladders = [graph_verify.ladder_vector(spec, 0.5, 1.0) for spec in families]
    for refuse in (lambda: channel_certificate(top),
                   lambda: dephase_pure_state(families, ladders, v)):
        with pytest.raises(ValidationError, match="overlap: J and S share 1 dressed"):
            refuse()


def test_pure_state_channel_holds_no_dim_sized_rows():
    """At factorial N = 10^5 the channel on the leak probe peaks under 40 bytes per
    dressed index: O(N) sums over each ladder, no 3 x dim rows."""
    fac = builtin_family("factorial")
    code = decompose(JCParams(1.0, 0.8, 0.7), 3, TruncationConfig(10 ** 5))
    families = jc_families(code, fac, fac)
    ladders = [graph_verify.ladder_vector(spec, 0.5, 1.0) for spec in families]
    v = leak_probe(code, ladders[0])
    tracemalloc.start()
    try:
        dephase_pure_state(families, ladders, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * v.size


def test_the_leak_probe_is_normalized_on_its_support():
    """At factorial N = 10^5 ``leak_probe`` peaks at most 28 bytes per dressed index:
    the output, one J-sized temporary and no dim-sized product for its norm.  The
    frame's g is built first, as ``verify`` does in ``channel_certificate``."""
    fac = builtin_family("factorial")
    code = decompose(JCParams(1.0, 0.8, 0.7), 3, TruncationConfig(10 ** 5))
    families = jc_families(code, fac, fac)
    a1 = graph_verify.ladder_vector(families[0], 0.5, 1.0)
    g = code.frame.norms
    tracemalloc.start()
    try:
        v = leak_probe(code, a1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28 * v.size
    assert abs(np.abs(v) ** 2 @ g - 1.0) <= 1e-14


def test_a_ladder_state_is_built_in_place():
    """At factorial N = 10^5 ``ladder_vector`` peaks at most 34 bytes per rung: the
    probabilities row while it is built, then that row and the output, with no
    temporary for p / mass, its root or the phases.  The bits are the old formula's."""
    fac = builtin_family("factorial")
    code = decompose(JCParams(1.0, 0.8, 0.7), 3, TruncationConfig(10 ** 5))
    families = jc_families(code, fac, fac)
    graph_verify.ladder_vector(families[0], 0.5, 1.0)  # the family's log c_k table
    tracemalloc.start()
    try:
        a = graph_verify.ladder_vector(families[0], 0.5, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 34 * a.size
    for spec in families:
        for x, t in ((0.5, 1.0), (0.0, 0.0), (0.3, -2.0), (0.9, 1e5)):
            p, mass = gk_states._kept_probabilities(spec, x)
            old = np.sqrt(p / mass) * np.exp(-1j * spec.energies * t)
            assert graph_verify.ladder_vector(spec, x, t).tobytes() == old.tobytes()


def test_the_frame_builds_g_once_read_only():
    frame = decompose(JCParams(1.0, 0.8, 0.7), 3, TruncationConfig(30)).frame
    assert frame.norms is frame.norms
    assert not frame.norms.flags.writeable
    with pytest.raises(ValueError):
        frame.norms[0] = 2.0


def test_a_zero_ladder_column_reports_the_cutoff():
    """Past x ~ 2000 every kept factorial coefficient of a 20-rung ladder underflows."""
    _, families = build(JCParams(1.0, 0.8, 0.7), TruncationConfig(20), "factorial")
    with pytest.raises(gk_states.TruncationTooSmallError) as err:
        graph_verify.ladder_vector(families[0], 2000.0, 1.0)
    assert "x = 2000.0" in str(err.value)
    assert err.value.required_n > 20


@settings(max_examples=25, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_stacked_knill_laflamme_matches_one_matrix_at_a_time(system, seed):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rng = np.random.default_rng(seed)
    n = 12
    js = rng.integers(1, 4, n)
    xs, ts = rng.uniform(0.0, cli._x_range(families), n), rng.uniform(0.0, 10.0, n)
    w = h3_basis(code)
    stack = frame_generator(w, families, js, xs, ts)
    assert stack.shape == (n, code.k0, code.k0)
    for m, j, x, t in zip(stack, js.tolist(), xs.tolist(), ts.tolist()):
        np.testing.assert_allclose(m, frame_generator(w, families, j, x, t),
                                   atol=1e-15, rtol=0)
    # a random Hermitian error is no scalar on H3: its residual is O(1)
    a = rng.normal(size=(code.k0,) * 2) + 1j * rng.normal(size=(code.k0,) * 2)
    ms = np.concatenate([stack, np.tensordot(rng.normal(size=(3, n)), stack, axes=1),
                         (w.conj().T @ w)[None], (a + a.conj().T)[None]])
    for report in (knill_laflamme_frame(w, ms), knill_laflamme_frame(w, list(ms))):
        assert len(report.checks) == len(ms)
        for i, (rec, m) in enumerate(zip(report.checks, ms)):
            one = knill_laflamme_frame(w, [m]).checks[0]
            assert rec.name == f"op[{i}]"
            assert abs(rec.residual - one.residual) <= 1e-15 * max(1.0, one.residual)
            assert abs(rec.alpha - one.alpha) <= 1e-15 * max(1.0, abs(one.alpha))
            assert rec.passed == one.passed
    assert not report.checks[-1].passed


def ladder_diagonals(spec, rule):
    """The ladder's own moment diagonals d_k, k < terms, under ``rule``."""
    return moment_diagonals(spec.family, np.arange(spec.terms), rule)


def dense_resolution_residual(spec, rule):
    """max |E diag(d) E+ - E E+|, the ladder projector and its reconstruction."""
    e = embedding(spec)
    diag = ladder_diagonals(spec, rule)
    return float(np.abs((e * diag) @ e.conj().T - e @ e.conj().T).max())


def dense_identity_reconstruction(code, families, rule):
    """The radial integral of tau1(x) BohrMean[U_t Q_x U_t+] as a dim x dim matrix.

    ``rule`` is a plain rule on [0, R); each ladder folds its rho into it.
    """
    recon = np.zeros((code.trunc.dim, code.trunc.dim), dtype=complex)
    for spec in families:
        fam = spec.family
        eff = QuadratureRule(nodes=rule.nodes,
                             log_weights=rule.log_weights + fam.log_rho(rule.nodes))
        diag = moment_diagonals(fam, np.arange(spec.terms), eff)
        recon += (embedding(spec) * diag) @ embedding(spec).conj().T
    return recon + (weights(rule).sum() / families[0].family.radius) * code.p3


def dense_identity_residual(code, families, nodes):
    """max |recon - I| off the decoupled |N, e> row and column."""
    trunc = code.trunc
    rule = QuadratureRule.gauss_legendre(0.0, families[0].family.radius, nodes)
    diff = np.abs(dense_identity_reconstruction(code, families, rule) - np.eye(trunc.dim))
    keep = np.arange(trunc.dim) != basis_index(trunc.n_fock, "e", trunc)
    return float(diff[np.ix_(keep, keep)].max())


def dense_dressed_vectors(params, trunc):
    """All dressed eigenvectors from the closed forms, as columns in dressed order."""
    cols = [dressed_vector(params, 0, "ground", trunc)]
    cols += [dressed_vector(params, n, b, trunc) for n in range(1, trunc.n_fock + 1)
             for b in ("plus", "minus")]
    return np.column_stack(cols + [np.eye(trunc.dim)[basis_index(trunc.n_fock, "e", trunc)]])


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_block_entries_match_dense_product(system, seed):
    params, trunc, _ = system
    rng = np.random.default_rng(seed)
    w = rng.normal(size=trunc.dim)
    w[rng.random(trunc.dim) < rng.random()] = 0.0  # vectors left out of the sum
    diag, off = dressed_frame(params, trunc).block_entries(w)
    n = np.arange(1, trunc.n_fock + 1)
    rebuilt = np.diag(diag).astype(complex)
    rebuilt[2 * n - 1, 2 * n] = off
    rebuilt[2 * n, 2 * n - 1] = off
    v = dense_dressed_vectors(params, trunc)
    assert np.abs(rebuilt - (v * w) @ v.conj().T).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(systems(), st.floats(0.0, 1.0), st.floats(-20.0, 20.0))
@example(EDGE, 1.0 - 2.0 ** -53, 0.0)
def test_index_form_states_match_dense_columns(system, frac, y):
    """gk_state and ladder_vector against sum_k coeff_k |e_k> on closed-form columns."""
    params, trunc, family = system
    _, families = build(params, trunc, family)
    for spec, branch in zip(families, ("plus", "minus")):
        levels = range(spec.start_index, trunc.n_fock + 1)
        e = np.column_stack([dressed_vector(params, n, branch, trunc) for n in levels])
        assert spec.terms == e.shape[1]
        np.testing.assert_array_equal(spec.energies,
                                      [eigenenergy(params, n, branch) for n in levels])
        x = frac * xmax(family, spec.terms, 1e-12)
        dense = e @ gk_states._coefficients(spec, x, y)
        np.testing.assert_allclose(gk_state(spec, x, y), dense,
                                   atol=1e-15, rtol=0)
        np.testing.assert_allclose(ladder_state(spec, x, y),
                                   dense / np.linalg.norm(dense), atol=1e-15, rtol=0)


def test_ladders_hold_no_dense_embedding():
    """Both ladders share one O(N) frame: at N = 2000 they hold well under 1 MB."""
    fac = builtin_family("factorial")
    tracemalloc.start()
    try:
        code = decompose(JCParams(1.0, 0.8, 0.7), 3, TruncationConfig(2000))
        families = jc_families(code, fac, fac)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert families[0].frame is families[1].frame


@settings(max_examples=40, deadline=None)
@given(systems(), st.sampled_from((4, 8, 16, 200)))
def test_block_reconstructions_match_dense_oracles(system, nodes):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rule = families[0].family.moment_rule(nodes)  # both ladders carry one family
    diagonals = [ladder_diagonals(spec, rule) for spec in families]
    for spec, diag in zip(families, diagonals):
        assert abs(verify_resolution(spec, diag)
                   - dense_resolution_residual(spec, rule)) <= 1e-14
    if family == "factorial":  # infinite radius: membership needs uniform_moment
        uni = builtin_family("uniform_moment")
        families = jc_families(code, uni, uni)
        rule = uni.moment_rule(nodes)
        diagonals = [ladder_diagonals(spec, rule) for spec in families]
    assert abs(verify_identity_membership(code, diagonals)
               - dense_identity_residual(code, families, nodes)) <= 1e-14


def test_frame_check_rejects_non_orthonormal_frame():
    w = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        knill_laflamme_frame(w, [np.eye(2)])


def _count_calls(monkeypatch, name, home=jc_spectrum):
    """Wrap home.<name> in every jcgraph namespace that binds it."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "jcgraph" or mod_name.startswith("jcgraph."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("pair", [("uniform_moment",) * 2, ("factorial",) * 2,
                                  ("factorial", "uniform_moment")],
                         ids=["uniform_moment", "factorial", "factorial-uniform_moment"])
def test_verify_builds_no_dense_evolution(monkeypatch, capsys, pair):
    """At N = 2000 no rule has more than 21 nodes and no moment_diagonals call
    takes more than 41 orders: the resolution reads closed forms, not a rule."""
    evolutions = _count_calls(monkeypatch, "evolution_operator")
    bases = _count_calls(monkeypatch, "dressed_basis")
    hamiltonians = _count_calls(monkeypatch, "hamiltonian_matrix")
    moments = _count_calls(monkeypatch, "moment_diagonals", gk_states)
    frames = _count_calls(monkeypatch, "dressed_frame")
    tails = _count_calls(monkeypatch, "tail_mass", gk_states)
    nodes = []

    def counted_rule(name):
        build_rule = getattr(QuadratureRule, name)

        def build(*args):
            nodes.append(args[-1])
            return build_rule(*args)
        return staticmethod(build)

    for name in ("gauss_legendre", "gauss_laguerre"):
        monkeypatch.setattr(QuadratureRule, name, counted_rule(name))
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", pair[0], "--family2", pair[1], "--n-fock", "2000"])
    capsys.readouterr()
    assert rc == 0
    assert (len(evolutions), len(bases), len(hamiltonians)) == (0, 0, 0)
    # the cut's frame, which the spectrum check and the ladders share
    # (test_commands_build_the_cut_frame_once counts it); the tail-safe root
    # searches, for the samples' x range, bound at most 32 tails each
    assert len(frames) == 1
    assert 1 <= len(tails) <= 64
    # each (family, orders) builds one 21-node spot check on at most 41
    # orders; identity membership reads closed forms and builds none
    assert nodes and max(nodes) <= 21
    assert moments and max(len(args[1]) for args in moments) <= 41


@pytest.mark.parametrize("pair", [("factorial",) * 2, ("uniform_moment",) * 2,
                                  ("factorial", "uniform_moment"),
                                  ("uniform_moment", "factorial")],
                         ids=["factorial", "uniform_moment", "factorial-uniform_moment",
                              "uniform_moment-factorial"])
@pytest.mark.parametrize("n_fock", [30, 160, 2000])
def test_verify_moment_records_equal_the_per_ladder_tables(pair, n_fock):
    """The records, bit for bit those of each ladder's own closed-form table and
    spot check, and within rounding those of the N-sized Gauss tables.

    At N = 30 the S ladder has 28 rungs, so a record that read past them would
    differ.  The oracle's tables (``moment_table``, one per family, sized from
    the J ladder) are each within 1e-11 of the closed forms (6.1e-12 measured,
    factorial at N = 2000), and every reconstruction moves by at most the
    largest change of a d_k, since its block weights c^2 + s^2 sum to 1.
    """
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 0.8, "kappa": 0.7,
                                  "n_fock": n_fock, "family1": pair[0],
                                  "family2": pair[1]})
    records = {c.name: c.residual for c in cli.run_verification(cfg).checks}
    code = decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    uni = builtin_family("uniform_moment")
    families = jc_families(code, cfg.family1, cfg.family2)
    mem_families = jc_families(code, uni, uni)
    orders = np.arange(families[0].terms)
    want, oracle, gaps = {}, {}, []
    for spec in families:
        fam, terms = spec.family, spec.terms
        diag, table = closed_form_diagonals(fam, terms), moment_table(fam, orders)[:terms]
        spot = moment_diagonals(fam, np.arange(min(41, terms)), fam.moment_rule(21))
        want[f"gk.moments.{spec.label}.{fam.name}"] = float(np.abs(spot - 1.0).max())
        name = f"gk.resolution.{spec.label}.{fam.name}"
        want[name], oracle[name] = verify_resolution(spec, diag), verify_resolution(spec, table)
        gaps.append(float(np.abs(table - diag).max()))
    name = "graph.identity_membership"
    want[name] = verify_identity_membership(
        code, [closed_form_diagonals(uni, spec.terms) for spec in mem_families])
    tables = [moment_table(uni, orders)[:spec.terms] for spec in mem_families]
    oracle[name] = verify_identity_membership(code, tables)
    gaps += [float(np.abs(t - closed_form_diagonals(uni, t.size)).max()) for t in tables]
    assert {name: records[name] for name in want} == want
    assert max(gaps) <= 1e-11
    assert all(abs(oracle[name] - records[name]) <= max(gaps) * (1.0 + 1e-9)
               for name in oracle)


@pytest.mark.parametrize("command, rc, rows", [
    (["verify"], 0, [159, 157]), (["demo"], 0, [159, 157]),
    (["demo", "--allow-leak"], 1, [159, 157]), (["gk-dump"], 0, None)])
def test_commands_change_no_basis(monkeypatch, capsys, command, rc, rows):
    """No command calls ``DressedFrame.embed``: every state a command builds is
    held in dressed coordinates, and only the dense reference forms embed one.
    verify and both demo forms build each ladder's state once at their (x, t):
    one ``probabilities`` row per ladder, of 160 rungs on J and 158 on S at N = 160.
    """
    embeds, probabilities = [], []
    embed = jc_spectrum.DressedFrame.embed
    row = gk_states.WeightFamily.probabilities

    def counted_embed(frame, idx, a):
        embeds.append(np.shape(a))
        return embed(frame, idx, a)

    def counted_row(family, x, k_max):
        probabilities.append(k_max)
        return row(family, x, k_max)
    monkeypatch.setattr(jc_spectrum.DressedFrame, "embed", counted_embed)
    monkeypatch.setattr(gk_states.WeightFamily, "probabilities", counted_row)
    got = cli.main(command + ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                              "--family1", "factorial", "--family2", "factorial",
                              "--n-fock", "160"])
    capsys.readouterr()
    assert got == rc
    assert embeds == []
    if rows is not None:
        assert probabilities == rows


_FRAME_POINT = ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                "--family1", "factorial", "--family2", "factorial", "--n-fock", "30"]


@pytest.mark.parametrize("command, frames", [("verify", 1), ("demo", 1), ("gk-dump", 1)])
def test_commands_build_the_cut_frame_once(monkeypatch, capsys, command, frames):
    """decompose builds the run's only frame; verify's spectrum check reads it."""
    built = _count_calls(monkeypatch, "dressed_frame")
    rc = cli.main([command] + _FRAME_POINT)
    capsys.readouterr()
    assert rc == 0
    assert len(built) == frames


def test_warm_verify_builds_no_frame(monkeypatch, capsys):
    """A second verify at the same point reads the kept cut's frame: 0 builds."""
    assert cli.main(["verify"] + _FRAME_POINT) == 0
    cold = capsys.readouterr().out
    built = _count_calls(monkeypatch, "dressed_frame")
    assert cli.main(["verify"] + _FRAME_POINT) == 0
    assert capsys.readouterr().out == cold
    assert built == []


@pytest.mark.parametrize("command, families", [
    ("verify", "factorial"), ("verify", "mixed"), ("demo", "uniform_moment"),
    ("gk-dump", "factorial")])
def test_commands_never_read_a_dense_ladder(monkeypatch, capsys, command, families):
    """No embed takes a whole ladder's identity or H3's: at N = 30, J has 30
    rungs, S 28 and H3 k0 = 3 vectors, so nothing builds a dim x k0 basis."""
    reads = []
    embed = jc_spectrum.DressedFrame.embed

    def counted(frame, idx, a):
        if np.shape(a) == (len(idx),) * 2 and len(idx) in (3, 28, 30):
            reads.append(len(idx))
        return embed(frame, idx, a)
    monkeypatch.setattr(jc_spectrum.DressedFrame, "embed", counted)
    fam1, fam2 = ("factorial", "uniform_moment") if families == "mixed" else (families,) * 2
    rc = cli.main([command, "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", fam1, "--family2", fam2, "--n-fock", "30"])
    capsys.readouterr()
    assert rc == 0
    assert reads == []


@pytest.mark.parametrize("command", ["verify", "demo"])
def test_commands_build_no_dense_projector(monkeypatch, capsys, command):
    projectors = _count_calls(monkeypatch, "projector_onto", hilbert)
    dressed = _count_calls(monkeypatch, "dressed_basis")
    rc = cli.main([command, "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", "factorial", "--family2", "factorial",
                   "--n-fock", "30"])
    capsys.readouterr()
    assert rc == 0
    assert (len(projectors), len(dressed)) == (0, 0)


@pytest.mark.parametrize("extra", [[], ["--state", "basis1"], ["--allow-leak"]])
def test_demo_sends_vectors_through_the_channel(monkeypatch, capsys, extra):
    dense = [_count_calls(monkeypatch, name, graph_verify)
             for name in ("dephasing_channel", "channel_apply", "fidelity",
                          "transmit_demo")]
    pure = _count_calls(monkeypatch, "dephase_pure_state", graph_verify)
    rc = cli.main(["demo", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--n-fock", "30"] + extra)
    fid = float(capsys.readouterr().out)
    assert (rc, fid < 1.0 - 1e-3) == ((1, True) if extra == ["--allow-leak"]
                                       else (0, False))
    assert [len(calls) for calls in dense] == [0, 0, 0, 0]
    assert len(pure) == 1
