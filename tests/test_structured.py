"""The O(N) structured paths of `verify` against their dense oracles.

`verify` applies U_t block by block, checks Knill-Laflamme in the frame of
the H3 basis and sends pure code states through the channel as vectors.
Each is compared here with the dense dim x dim computation it replaces
(`evolution_operator`, `knill_laflamme_check`, `channel_apply` + `eigvalsh`
+ `fidelity`) at N <= 60, on both weight families, for positive, negative
and zero detuning, with x up to the tail-safe radius.
"""
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcgraph import cli, graph_verify, hilbert, jc_spectrum
from jcgraph.code_construction import decompose, minimal_k0, minimal_m0
from jcgraph.gk_states import (builtin_family, gk_state, jc_families, tail_safe_xmax,
                               verify_temporal_stability)
from jcgraph.graph_verify import (
    InvalidDensityError,
    PureTransmission,
    channel_apply,
    dephase_pure_state,
    dephasing_channel,
    fidelity,
    frame_generator,
    generator,
    knill_laflamme_check,
    knill_laflamme_frame,
    leak_probe,
)
from jcgraph.hilbert import TruncationConfig, ValidationError
from jcgraph.jc_spectrum import (JCParams, dressed_basis, dressed_frame,
                                 dressed_index, dressed_vector, eigenenergy,
                                 evolution_operator)

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
    return decompose(params, k0, trunc), jc_families(params, k0, fam, fam, trunc)


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
    assert np.abs(dressed_frame(params, trunc).evolve(v, t) - u @ v).max() <= ORACLE_TOL
    for spec in families:
        x = frac * xmax(family, spec.terms, 1e-12)
        v0 = gk_state(spec, x, 0.0, trunc)
        vt = gk_state(spec, x, t, trunc)
        dense = float(abs(np.vdot(vt, u @ v0)) ** 2)
        assert abs(verify_temporal_stability(spec, params, x, t, trunc)
                   - dense) <= ORACLE_TOL


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
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", family, "--family2", family, "--n-fock", "40"])
    capsys.readouterr()
    assert rc == 0
    assert len(evolutions) == 0
    assert 1 <= len(bases) <= 3  # at least the spectrum check's, so the wrap holds


@pytest.mark.parametrize("command, bases", [("verify", 1), ("demo", 0)])
def test_commands_build_no_dense_projector(monkeypatch, capsys, command, bases):
    projectors = _count_calls(monkeypatch, "projector_onto", hilbert)
    dressed = _count_calls(monkeypatch, "dressed_basis")
    rc = cli.main([command, "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--family1", "factorial", "--family2", "factorial",
                   "--n-fock", "30"])
    capsys.readouterr()
    assert rc == 0
    assert (len(projectors), len(dressed)) == (0, bases)


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
