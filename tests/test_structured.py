"""The O(N) structured paths of `verify` against their dense oracles.

`verify` reads the spectrum residuals off the frame's 2x2 blocks, builds
ladder states from dressed indices on one frame, applies U_t block by
block, checks Knill-Laflamme in the frame of the H3 basis, sends pure code
states through the channel as vectors and reads the resolution and
identity-membership reconstructions block by block.  Each is compared here
with the dense computation it replaces (`hamiltonian_matrix @
dressed_basis` and its Gram matrix, closed-form `dressed_vector` columns,
`evolution_operator`, `knill_laflamme_check`, `channel_apply` + `eigvalsh`
+ `fidelity`, and the reconstructions `E diag(d) E+` below) at N <= 60,
on both weight families, for positive, negative and zero detuning, with x
up to the tail-safe radius.
"""
import functools
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcgraph import cli, gk_states, graph_verify, hilbert, jc_spectrum
from jcgraph.code_construction import decompose, minimal_k0, minimal_m0
from jcgraph.gk_states import (builtin_family, gk_state, jc_families, moment_diagonals,
                               tail_safe_xmax, verify_resolution,
                               verify_temporal_stability)
from jcgraph.graph_verify import (
    InvalidDensityError,
    PureTransmission,
    UnsupportedFamilyError,
    channel_apply,
    dephase_pure_state,
    dephasing_channel,
    fidelity,
    frame_generator,
    generator,
    knill_laflamme_check,
    knill_laflamme_frame,
    leak_probe,
    verify_identity_membership,
)
from jcgraph.hilbert import (QuadratureRule, TruncationConfig, ValidationError, basis_index,
                             basis_vector)
from jcgraph.jc_spectrum import (JCParams, dressed_basis, dressed_frame,
                                 dressed_index, dressed_vector, eigenenergy,
                                 evolution_operator, hamiltonian_matrix,
                                 spectrum_residuals)

FAMILIES = ("uniform_moment", "factorial")
ORACLE_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def xmax(family: str, terms: int, budget: float) -> float:
    return tail_safe_xmax(builtin_family(family), terms - 1, budget=budget)


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


def cli_x_range(families):
    """x_hi as `verify` draws it for the graph samples and the channel."""
    spec = families[0]
    hi = xmax(spec.family.name, spec.terms, 1e-6)
    return min(hi, 0.95 * spec.family.radius) if spec.family.radius < np.inf else hi


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
        dense = dense_spectrum_residuals(params, trunc, bad.rotate(np.eye(trunc.dim)),
                                         bad.energies)
        np.testing.assert_allclose((eig, gram), dense, rtol=1e-12, atol=1e-15)
        assert (eig > 1e-10, gram > 1e-10) == (eig_trips, gram_trips)


def test_frame_rejects_the_degenerate_point():
    with pytest.raises(jc_spectrum.DegenerateLevelError):
        dressed_frame(JCParams(1.0, 1.0, 0.0), TruncationConfig(5))


@settings(max_examples=40, deadline=None)
@given(systems(), st.floats(0.0, 1.0), st.floats(-20.0, 20.0),
       st.integers(0, 2 ** 32 - 1))
def test_structured_evolution_matches_dense_operator(system, frac, t, seed):
    params, trunc, family = system
    _, families = build(params, trunc, family)
    u = evolution_operator(params, t, trunc)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    v /= np.linalg.norm(v)
    frame = dressed_frame(params, trunc)
    assert np.abs(frame.evolve(v, t) - u @ v).max() <= ORACLE_TOL
    # evolve and the stability grid batch t: each column against its own dense U_t
    ts = (t, 0.0, -0.5 * t)
    us = (u, np.eye(trunc.dim), evolution_operator(params, -0.5 * t, trunc))
    assert np.abs(frame.evolve(v, ts)
                  - np.column_stack([u_y @ v for u_y in us])).max() <= ORACLE_TOL
    for spec in families:
        xs = (frac * xmax(family, spec.terms, 1e-12), 0.0)
        dense = [[abs(np.vdot(gk_state(spec, x, y, trunc),
                              u_y @ gk_state(spec, x, 0.0, trunc))) ** 2
                  for y, u_y in zip(ts, us)] for x in xs]
        np.testing.assert_allclose(verify_temporal_stability(spec, xs, ts, trunc),
                                   dense, atol=ORACLE_TOL, rtol=0)


@settings(max_examples=25, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_frame_knill_laflamme_matches_dense_check(system, seed):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rng = np.random.default_rng(seed)
    x_hi = cli_x_range(families)
    draws = [(j, float(rng.uniform(0.0, x_hi)), float(rng.uniform(0.0, 10.0)))
             for j in (1, 2, 3, 1, 2, 1, 2)]
    ops = [generator(code, families, j, x, t).operator
           for j, x, t in draws]
    ms = [frame_generator(code, families, j, x, t) for j, x, t in draws]
    for _ in range(2):
        coeffs = rng.normal(size=len(draws))
        ops.append(sum(c * a for c, a in zip(coeffs, ops[:len(draws)])))
        ms.append(sum(c * m for c, m in zip(coeffs, ms[:len(draws)])))
    w = code.h3_basis
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


@settings(max_examples=25, deadline=None)
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_pure_state_channel_matches_dense_channel(system, seed):
    params, trunc, family = system
    code, families = build(params, trunc, family)
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.0, cli_x_range(families)))
    t = float(rng.uniform(0.0, 10.0))
    amps = rng.normal(size=code.code_basis.shape[1]) \
        + 1j * rng.normal(size=code.code_basis.shape[1])
    code_state = code.code_basis @ (amps / np.linalg.norm(amps))
    # any unit vector: generic weights on both ladders and the complement
    generic = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    generic = generic / np.linalg.norm(generic) + families[1].embedding[:, 0]
    generic /= np.linalg.norm(generic)
    channel = dephasing_channel(families, x, t)
    for v in (code_state, generic, leak_probe(code, families, x, t)):
        rho = np.outer(v, v.conj())
        out = channel_apply(channel, rho)
        pure = dephase_pure_state(families, x, t, v)
        assert abs(pure.trace - np.trace(out).real) <= ORACLE_TOL
        eigs = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(np.sort(pure.eigenvalues), eigs[-3:],
                                   atol=ORACLE_TOL, rtol=0)
        assert np.abs(eigs[:-3]).max() <= ORACLE_TOL
        assert abs(pure.min_eigenvalue - min(0.0, eigs.min())) <= ORACLE_TOL
        assert abs(pure.fidelity - fidelity(rho, out)) <= ORACLE_TOL
    assert 1.0 - pure.fidelity > 1e-3  # the leaked probe loses its ladder part
    assert pure.min_eigenvalue > -1e-9


def test_pure_state_channel_validates_its_input():
    params = JCParams(1.0, 0.8, 0.7)
    trunc = TruncationConfig(20)
    code, families = build(params, trunc, "factorial")
    v = code.code_basis[:, 0]
    with pytest.raises(InvalidDensityError):
        dephase_pure_state(families, 0.5, 1.0, 2.0 * v)
    # the same ladder twice: its projectors overlap, so they are no channel
    with pytest.raises(ValidationError, match="overlap"):
        dephase_pure_state((families[0], families[0]), 0.5, 1.0, v)
    # the output's kernel holds eigenvalue 0 beside the Gram's three
    assert PureTransmission(1.0, np.array([-1e-3, 0.2, 0.8]), 1.0).min_eigenvalue == -1e-3
    assert PureTransmission(1.0, np.array([1e-3, 0.2, 0.8]), 1.0).min_eigenvalue == 0.0


def dense_resolution_residual(spec, rule):
    """max |E diag(d) E+ - E E+|, the ladder projector and its reconstruction."""
    e = spec.embedding
    diag = moment_diagonals(spec.family, np.arange(spec.terms), rule)
    return float(np.abs((e * diag) @ e.conj().T - e @ e.conj().T).max())


def dense_identity_reconstruction(code, families, rule):
    """The radial integral of tau1(x) BohrMean[U_t Q_x U_t+] as a dim x dim matrix.

    ``rule`` is a plain rule on [0, R); each ladder folds its rho into it.
    """
    recon = np.zeros((code.trunc.dim, code.trunc.dim), dtype=complex)
    for spec in families:
        fam = spec.family
        eff = QuadratureRule(nodes=rule.nodes,
                             log_weights=rule.log_weights + fam.log_rho(rule.nodes),
                             kind=rule.kind)
        diag = moment_diagonals(fam, np.arange(spec.terms), eff)
        recon += (spec.embedding * diag) @ spec.embedding.conj().T
    return recon + (rule.weights.sum() / families[0].family.radius) * code.p3


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
    return np.column_stack(cols + [basis_vector(trunc.n_fock, "e", trunc)])


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
        np.testing.assert_allclose(gk_state(spec, x, y, trunc), dense,
                                   atol=1e-15, rtol=0)
        np.testing.assert_allclose(graph_verify.ladder_vector(spec, x, y),
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
    for spec in families:
        rule = spec.family.moment_rule(nodes)
        assert abs(verify_resolution(spec, rule).residual
                   - dense_resolution_residual(spec, rule)) <= 1e-14
    if family == "factorial":  # infinite radius: membership needs uniform_moment
        with pytest.raises(UnsupportedFamilyError):
            verify_identity_membership(code, families)
        uni = builtin_family("uniform_moment")
        families = jc_families(code, uni, uni)
    rules = [spec.family.moment_rule(nodes) for spec in families]
    assert abs(verify_identity_membership(code, families, rules)
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


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_builds_no_dense_evolution(monkeypatch, capsys, family):
    evolutions = _count_calls(monkeypatch, "evolution_operator")
    bases = _count_calls(monkeypatch, "dressed_basis")
    hamiltonians = _count_calls(monkeypatch, "hamiltonian_matrix")
    moments = _count_calls(monkeypatch, "moment_diagonals", gk_states)
    frames = _count_calls(monkeypatch, "dressed_frame")
    tails = _count_calls(monkeypatch, "tail_mass", gk_states)
    rules = []

    def counted_rule(name):
        build_rule = getattr(QuadratureRule, name)

        def build(*args):
            rules.append(name)
            return build_rule(*args)
        return staticmethod(build)

    for name in ("gauss_legendre", "gauss_laguerre"):
        monkeypatch.setattr(QuadratureRule, name, counted_rule(name))
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", family, "--family2", family, "--n-fock", "40"])
    capsys.readouterr()
    assert rc == 0
    assert (len(evolutions), len(bases), len(hamiltonians)) == (0, 0, 0)
    # one per ladder for the resolution (whose diagonals the moments check
    # reads) and one per ladder for identity membership
    assert len(moments) == 4
    # the spectrum check's frame and the cut's, which the ladders and the
    # stability grid share (test_commands_build_the_cut_frame_once counts
    # them); each x's tail is checked once and the three tail-safe searches
    # stop when the bracket does
    assert 1 <= len(frames) <= 3
    assert 1 <= len(tails) <= 250
    # one moment rule per family, shared by both ladders and identity membership
    assert sorted(rules) == (["gauss_legendre"] if family == "uniform_moment"
                             else ["gauss_laguerre", "gauss_legendre"])


@pytest.mark.parametrize("command, frames", [("verify", 2), ("demo", 1), ("gk-dump", 1)])
def test_commands_build_the_cut_frame_once(monkeypatch, capsys, command, frames):
    """decompose builds the run's frame; only verify's spectrum check builds another."""
    built = _count_calls(monkeypatch, "dressed_frame")
    rc = cli.main([command, "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", "factorial", "--family2", "factorial",
                   "--n-fock", "30"])
    capsys.readouterr()
    assert rc == 0
    assert len(built) == frames


@pytest.mark.parametrize("command, families", [
    ("verify", "factorial"), ("verify", "mixed"), ("demo", "uniform_moment")])
def test_commands_never_read_a_dense_ladder(monkeypatch, capsys, command, families):
    reads = []
    monkeypatch.setattr(gk_states.GKFamilySpec, "embedding",
                        property(lambda spec: reads.append(spec.label)))
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
