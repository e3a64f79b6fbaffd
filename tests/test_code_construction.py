"""Tests for the monotonicity threshold, the cut and the rate sweeps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcgraph.gk_states import builtin_family, jc_families
from jcgraph.hilbert import TruncationConfig, basis_index, projector_onto
from jcgraph.code_construction import (
    CutConstraintError,
    _gap_condition,
    decompose,
    dmin_sweep,
    minimal_k0,
    minimal_m0,
    minimal_m0_from_rates,
    resonant_sweep,
    s_sequence,
)
from jcgraph.jc_spectrum import JCParams, dressed_vector

TWO_PI = 2.0 * math.pi
# microwave cavity benchmark point: the deep perturbative regime
HAROCHE = JCParams(omega_f=TWO_PI * 51.1e9, omega_s=TWO_PI * 51.1e9,
                   kappa=TWO_PI * 47e3)


# Reference oracles: scan m = 1, 2, ... with each exact strict predicate.
# They cost O(gamma_f^2), so they only run on moderate rates.
def scan_m0(params):
    if params.kappa == 0.0:
        return 1
    m = 1
    while not _gap_condition(params, m):
        m += 1
    return m


def scan_m0_from_rates(gamma_f, gamma_s):
    d = 1.0 / gamma_f - 1.0 / gamma_s
    m = 1
    while not (math.sqrt(d * d + m + 1) + math.sqrt(d * d + m) > 0.5 * gamma_f):
        m += 1
    return m


def test_s_sequence_frozen_values():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0)
    assert s_sequence(p, 0) == -0.5
    assert abs(s_sequence(p, 1) - (1.0 - 0.5 * math.sqrt(2))) < 1e-14
    with pytest.raises(ValueError):
        s_sequence(p, -1)


def test_s_sequence_dips_then_rises_in_strong_coupling():
    """At gamma = 8 the lower branch decreases up to k = 4, then increases."""
    p = JCParams.from_rates(8.0, 8.0)
    m0 = minimal_m0(p)
    assert m0 == 4
    # the gap right below the threshold is nonpositive, above it positive
    assert s_sequence(p, m0 + 1) - s_sequence(p, m0) > 0
    assert s_sequence(p, m0) - s_sequence(p, m0 - 1) <= 0
    # and it keeps increasing afterwards
    tail = [s_sequence(p, k) for k in range(m0, m0 + 30)]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_minimal_m0_benchmark_point():
    assert minimal_m0(HAROCHE) == 1


def test_minimal_m0_decoupled_field():
    assert minimal_m0(JCParams(omega_f=1.0, omega_s=1.0, kappa=0.0)) == 1


def test_minimal_m0_resonant_values():
    assert minimal_m0_from_rates(0.1, 0.1) == 1
    assert minimal_m0_from_rates(8.0, 8.0) == 4


def test_minimal_m0_resonant_jump_location():
    """The resonant threshold 3 -> 4 sits at gamma = 2 (2 + sqrt(3))."""
    gamma_c = 2.0 * (2.0 + math.sqrt(3.0))
    assert minimal_m0_from_rates(gamma_c - 1e-6, gamma_c - 1e-6) == 3
    assert minimal_m0_from_rates(gamma_c + 1e-6, gamma_c + 1e-6) == 4
    below, above = math.nextafter(gamma_c, 0.0), math.nextafter(gamma_c, 9.0)
    for g, want in ((below, 3), (gamma_c, None), (above, 4)):
        p = JCParams.from_rates(g, g)
        assert minimal_m0_from_rates(g, g) == scan_m0_from_rates(g, g)
        assert minimal_m0(p) == scan_m0(p)
        if want is not None:
            assert minimal_m0_from_rates(g, g) == minimal_m0(p) == want


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(1e-6), math.log(1e3)),
       st.floats(math.log(1e-6), math.log(1e3)))
def test_minimal_m0_closed_form_matches_scans(log_gf, log_gs):
    gf, gs = math.exp(log_gf), math.exp(log_gs)
    assert minimal_m0_from_rates(gf, gs) == scan_m0_from_rates(gf, gs)
    p = JCParams.from_rates(gf, gs)
    assert minimal_m0(p) == scan_m0(p)


def test_minimal_m0_two_forms_agree():
    rng = np.random.default_rng(17)
    for _ in range(50):
        gf = float(rng.uniform(0.05, 16.0))
        gs = float(rng.uniform(0.05, 16.0))
        assert minimal_m0(JCParams.from_rates(gf, gs)) == minimal_m0_from_rates(gf, gs)


def test_minimal_m0_from_rates_validation():
    with pytest.raises(ValueError):
        minimal_m0_from_rates(0.0, 1.0)
    with pytest.raises(ValueError):
        minimal_m0_from_rates(1.0, -2.0)
    for bad in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            minimal_m0_from_rates(*bad)
    # M0 past 2^53 (m* ~ 6e28) and an overflowing m*: not resolvable
    for g in (1e15, 1e160):
        with pytest.raises(ValueError, match="not resolvable"):
            minimal_m0_from_rates(g, g)
        with pytest.raises(ValueError, match="not resolvable"):
            minimal_m0(JCParams.from_rates(g, g))


def test_minimal_k0_floor_at_three():
    assert minimal_k0(1) == 3
    assert minimal_k0(3) == 3
    assert minimal_k0(4) == 4
    assert minimal_k0(7) == 7
    with pytest.raises(ValueError):
        minimal_k0(0)


def test_decompose_block_ranks_and_orthogonality():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.2)
    tr = TruncationConfig(20)
    code = decompose(p, 3, tr)
    assert code.m0 == 1
    assert code.k0 == 3
    # H1 and H2 are the ladders of jc_families, H3 the code's basis
    fam = builtin_family("factorial")
    h1, h2 = (spec.embedding for spec in jc_families(p, 3, fam, fam, tr))
    blocks = (h1, h2, code.h3_basis)
    assert [np.linalg.matrix_rank(b) for b in blocks] == [20, 18, 3]
    for a, b in ((h1, h2), (h1, code.h3_basis), (h2, code.h3_basis)):
        assert np.abs(a.conj().T @ b).max() < 1e-12
    # the three blocks cover everything except the decoupled |N, e>
    total = sum(b @ b.conj().T for b in blocks)
    leftover = np.eye(tr.dim)
    leftover[basis_index(20, "e"), basis_index(20, "e")] = 0.0
    assert np.abs(total - leftover).max() < 1e-12


def test_decompose_h3_spans_ground_and_lower_branch():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.2)
    tr = TruncationConfig(20)
    code = decompose(p, 3, tr)
    assert code.h3_basis.shape == (tr.dim, 3)
    np.testing.assert_allclose(code.h3_basis[:, 0],
                               np.eye(tr.dim)[basis_index(0, "g")], atol=0)
    np.testing.assert_allclose(code.h3_basis[:, 1],
                               dressed_vector(p, 1, "minus", tr), atol=1e-14)
    np.testing.assert_allclose(code.h3_basis[:, 2],
                               dressed_vector(p, 2, "minus", tr), atol=1e-14)


def test_decompose_default_code_dimension():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.2)
    tr = TruncationConfig(20)
    code = decompose(p, 4, tr)
    assert code.code_basis.shape[1] == 3
    np.testing.assert_allclose(code.code_basis, code.h3_basis[:, :3], atol=0)
    assert round(np.trace(code.code_projector).real) == 3


def test_decompose_rejects_bad_cuts():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.2)
    tr = TruncationConfig(20)
    with pytest.raises(CutConstraintError):
        decompose(p, 2, tr)  # below the floor max(3, M0)
    with pytest.raises(CutConstraintError):
        decompose(p, 20, tr)  # at the photon cutoff
    # strong coupling raises the floor to M0
    ps = JCParams.from_rates(8.0, 8.0)
    with pytest.raises(CutConstraintError):
        decompose(ps, 3, tr)
    assert decompose(ps, 4, tr).k0 == 4


@st.composite
def cuts(draw):
    """A system with delta > 0, < 0 or = 0 (or kappa -> 0) and a cut k0* .. N-1."""
    omega_s = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0),
                             st.just(1.0)))
    if omega_s == 1.0:
        kappa = draw(st.floats(0.01, 8.0))
    else:
        kappa = draw(st.one_of(st.floats(0.0, 1e-8), st.floats(0.01, 8.0)))
    params = JCParams(omega_f=1.0, omega_s=omega_s, kappa=kappa)
    trunc = TruncationConfig(draw(st.sampled_from((12, 20, 40))))
    k0 = draw(st.integers(minimal_k0(minimal_m0(params)), trunc.n_fock - 1))
    return params, trunc, k0


@settings(max_examples=80, deadline=None)
@given(cuts())
def test_h3_basis_is_the_dressed_cut(cut):
    params, trunc, k0 = cut
    code = decompose(params, k0, trunc)
    want = [dressed_vector(params, 0, "ground", trunc)]
    want += [dressed_vector(params, n, "minus", trunc) for n in range(1, k0)]
    np.testing.assert_allclose(code.h3_basis, np.column_stack(want),
                               atol=1e-15, rtol=0)
    np.testing.assert_allclose(code.p3, projector_onto(list(code.h3_basis.T)),
                               atol=0, rtol=0)
    np.testing.assert_allclose(code.code_basis, code.h3_basis[:, :k0 - 1], atol=0)


def test_benchmark_code_subspace():
    """The benchmark cavity point yields the two-dimensional code."""
    tr = TruncationConfig(20)
    code = decompose(HAROCHE, 3, tr)
    assert code.m0 == 1
    assert code.code_basis.shape[1] == 2
    np.testing.assert_allclose(code.code_basis[:, 0],
                               np.eye(tr.dim)[basis_index(0, "g")], atol=0)
    np.testing.assert_allclose(code.code_basis[:, 1],
                               dressed_vector(HAROCHE, 1, "minus", tr), atol=1e-14)


def test_dmin_sweep_grid_order_and_values():
    rows = dmin_sweep((0.5, 1.0), (0.5, 1.0), (2, 3))
    assert len(rows) == 6
    # gamma_f is the outer loop
    assert [r.gamma_f for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert [r.gamma_s for r in rows] == [0.5, 0.75, 1.0, 0.5, 0.75, 1.0]
    for r in rows:
        assert r.m0 == minimal_m0_from_rates(r.gamma_f, r.gamma_s)
        assert r.k0_star == max(3, r.m0)
        assert r.d_min == r.k0_star - 1


def test_dmin_sweep_scalar_steps():
    rows = dmin_sweep((1.0, 2.0), (1.0, 2.0), 3)
    assert len(rows) == 9


def test_resonant_sweep_diagonal():
    rows = resonant_sweep((7.0, 8.0), 5)
    assert len(rows) == 5
    assert all(r.gamma_s == r.gamma_f for r in rows)
    assert [r.m0 for r in rows] == [3, 3, 4, 4, 4]
    assert [r.d_min for r in rows] == [2, 2, 3, 3, 3]


def test_sweep_validation():
    with pytest.raises(ValueError):
        dmin_sweep((1.0, 0.5), (0.5, 1.0), 3)  # inverted range
    with pytest.raises(ValueError):
        resonant_sweep((0.5, 1.0), 1)  # fewer than two points
    for bad in ((math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (0.0, 1.0)):
        with pytest.raises(ValueError):
            dmin_sweep((0.5, 1.0), bad, 2)
        with pytest.raises(ValueError):
            resonant_sweep(bad, 2)
