"""Tests for the monotonicity threshold, the cut and the rate sweeps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcgraph import code_construction
from jcgraph.gk_states import builtin_family, jc_families
from jcgraph.hilbert import TruncationConfig, basis_index, projector_onto
from jcgraph.code_construction import (
    CutConstraintError,
    _first_gap_index,
    _gap_indices,
    decompose,
    grid_rates,
    minimal_k0,
    minimal_m0,
    minimal_m0_from_rates,
    resonant_rates,
    sweep_columns,
)
from jcgraph.jc_spectrum import JCParams
from oracles import dressed_vector, embedding, h3_basis, s_sequence

TWO_PI = 2.0 * math.pi
# microwave cavity benchmark point: the deep perturbative regime
HAROCHE = JCParams(omega_f=TWO_PI * 51.1e9, omega_s=TWO_PI * 51.1e9,
                   kappa=TWO_PI * 47e3)


# Reference oracles: scan m = 1, 2, ... with each exact strict predicate, the
# frequency form on a JCParams triple and the rates form the library evaluates.
# They cost O(gamma_f^2), so they only run on moderate rates.
def gap_condition(params, m):
    """S_{m+1} - S_m > 0 written as the strict inequality in the frequencies."""
    lhs = 1.0 / (math.sqrt(params.delta ** 2 + params.kappa ** 2 * (m + 1))
                 + math.sqrt(params.delta ** 2 + params.kappa ** 2 * m))
    return lhs < 2.0 * params.omega_f / params.kappa ** 2


def scan_m0(params):
    if params.kappa == 0.0:
        return 1
    m = 1
    while not gap_condition(params, m):
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_minimal_m0_exact_at_the_double_nearest_the_jump():
    """The float gap predicate is off by one within an ulp of an integer m*.

    Exact arithmetic on this double (fractions.Fraction) gives m* = 3 - eps,
    so the gap condition holds from m = 3 on and M0 = 3; both functions return 4.
    """
    g = 7.464101615137754
    assert minimal_m0_from_rates(g, g) == 3
    assert minimal_m0(JCParams.from_rates(g, g)) == 3


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


def test_minimal_m0_does_not_depend_on_the_frequency_unit():
    """kappa^2 underflows at 1e-170 and overflows at 1e200; the rates do not."""
    for ratio, gamma, want in ((1.0, 8.0, 4), (0.8, 9.0, 5)):  # omega_s/omega_f
        assert minimal_m0_from_rates(gamma, gamma / ratio) == want
        for s in (1e-170, 1.0, 1e200):
            assert minimal_m0(JCParams(s, ratio * s, gamma * s)) == want


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
    # H1 and H2 are the ladders of jc_families, H3 the frame at h3_indices
    fam = builtin_family("factorial")
    h1, h2 = (embedding(spec) for spec in jc_families(code, fam, fam))
    h3 = h3_basis(code)
    blocks = (h1, h2, h3)
    assert [np.linalg.matrix_rank(b) for b in blocks] == [20, 18, 3]
    for a, b in ((h1, h2), (h1, h3), (h2, h3)):
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
    w = h3_basis(code)
    assert w.shape == (tr.dim, 3)
    np.testing.assert_allclose(w[:, 0], np.eye(tr.dim)[basis_index(0, "g")], atol=0)
    np.testing.assert_allclose(w[:, 1],
                               dressed_vector(p, 1, "minus", tr), atol=1e-14)
    np.testing.assert_allclose(w[:, 2],
                               dressed_vector(p, 2, "minus", tr), atol=1e-14)


def test_decompose_default_code_dimension():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.2)
    tr = TruncationConfig(20)
    code = decompose(p, 4, tr)
    assert code.h3_indices.size - 1 == 3
    code_basis = h3_basis(code)[:, :3]
    np.testing.assert_allclose(code.code_projector, code_basis @ code_basis.conj().T,
                               atol=0)
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
    w = h3_basis(code)
    np.testing.assert_allclose(w, np.column_stack(want), atol=1e-15, rtol=0)
    np.testing.assert_allclose(code.p3, projector_onto(list(w.T)), atol=0, rtol=0)
    np.testing.assert_allclose(code.code_projector, projector_onto(list(w[:, :k0 - 1].T)),
                               atol=0, rtol=0)


def test_benchmark_code_subspace():
    """The benchmark cavity point yields the two-dimensional code."""
    tr = TruncationConfig(20)
    code = decompose(HAROCHE, 3, tr)
    assert code.m0 == 1
    code_basis = h3_basis(code)[:, :-1]
    assert code_basis.shape[1] == 2
    np.testing.assert_allclose(code_basis[:, 0],
                               np.eye(tr.dim)[basis_index(0, "g")], atol=0)
    np.testing.assert_allclose(code_basis[:, 1],
                               dressed_vector(HAROCHE, 1, "minus", tr), atol=1e-14)


def _columns(gamma_f, gamma_s):
    """The sweep's CSV columns gamma_s, gamma_f, m0, k0_star, d_min, as lists."""
    return [c.tolist() for c in (gamma_s, gamma_f, *sweep_columns(gamma_f, gamma_s))]


def grid_sweep(gamma_f_range, gamma_s_range, steps):
    """The grid sweep's columns, ``steps`` = (steps_f, steps_s)."""
    return _columns(*grid_rates(gamma_f_range, gamma_s_range, steps))


def resonant_sweep(gamma_range, steps):
    """The resonant sweep's columns."""
    return _columns(*resonant_rates(gamma_range, steps))


def test_dmin_sweep_grid_order_and_values():
    gamma_s, gamma_f, m0, k0_star, d_min = grid_sweep((0.5, 1.0), (0.5, 1.0), (2, 3))
    assert len(gamma_f) == 6
    # gamma_f is the outer loop
    assert gamma_f == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert gamma_s == [0.5, 0.75, 1.0, 0.5, 0.75, 1.0]
    for gf, gs, m, k, d in zip(gamma_f, gamma_s, m0, k0_star, d_min):
        assert m == minimal_m0_from_rates(gf, gs)
        assert k == max(3, m)
        assert d == k - 1


def test_resonant_sweep_diagonal():
    gamma_s, gamma_f, m0, _, d_min = columns = resonant_sweep((7.0, 8.0), 5)
    assert len(gamma_f) == 5
    assert [c[0] for c in columns] == [7.0, 7.0, 3, 3, 2]  # the first row
    assert gamma_s == gamma_f
    assert m0 == [3, 3, 4, 4, 4]
    assert d_min == [2, 2, 3, 3, 3]


def test_sweep_validation():
    with pytest.raises(ValueError):
        grid_sweep((1.0, 0.5), (0.5, 1.0), (3, 3))  # inverted range
    with pytest.raises(ValueError):
        resonant_sweep((0.5, 1.0), 1)  # fewer than two points
    for bad in ((math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (0.0, 1.0)):
        with pytest.raises(ValueError):
            grid_sweep((0.5, 1.0), bad, (2, 2))
        with pytest.raises(ValueError):
            resonant_sweep(bad, 2)


def _resonant(m, ulps):
    """The double ``ulps`` steps from 2(sqrt m + sqrt(m+1)), where m* = m."""
    g = 2.0 * (math.sqrt(m) + math.sqrt(m + 1))
    for _ in range(abs(ulps)):
        g = math.nextafter(g, math.copysign(math.inf, ulps))
    return g


_log_rate = st.floats(-6.0, 7.0).map(lambda e: 10.0 ** e)
_rate_pairs = st.one_of(
    st.tuples(_log_rate, _log_rate),
    st.builds(lambda m, k: (_resonant(m, k),) * 2,
              st.integers(1, 10 ** 9), st.integers(-2, 2)),
    st.just((7.464101615137754, 7.464101615137754)),  # the double at the jump
    st.tuples(st.floats(1e-9, 1.99), _log_rate),  # u < 1
    st.builds(lambda g, e: (g, g * 10.0 ** -e), _log_rate, st.floats(3.0, 12.0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rate_pairs, min_size=1, max_size=40))
def test_gap_indices_match_the_scalar_walk(pairs):
    gf, gs = (np.array(col) for col in zip(*pairs))
    want = [_first_gap_index(float(x), float(y)) for x, y in pairs]
    assert _gap_indices(gf, gs).tolist() == want


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
def test_gap_indices_are_the_same_in_every_block_size(block, monkeypatch):
    """Blocks of rows give the scalar M0s, and the first unresolvable row raises."""
    monkeypatch.setattr(code_construction, "_GAP_BLOCK", block)
    pairs = [(_resonant(m, k),) * 2 for m in (1, 3, 40, 10 ** 6) for k in (-1, 0, 1)]
    pairs += [(7.464101615137754,) * 2, (0.5, 3.0), (1e3, 1e-3), (2.0, 2.0)]
    gf, gs = (np.array(col) for col in zip(*pairs))
    want = [_first_gap_index(float(x), float(y)) for x, y in pairs]
    assert _gap_indices(gf, gs).tolist() == want
    # rows 4 and 9 are unresolvable, with different messages: row 4's is raised
    bad = [1.0] * 4 + [500000000.5] + [1.0] * 4 + [1e9] + [1.0] * 3
    with pytest.raises(ValueError) as scalar:
        _first_gap_index(500000000.5, 500000000.5)
    with pytest.raises(ValueError) as err:
        _gap_indices(np.array(bad), np.array(bad))
    assert str(err.value) == str(scalar.value)


@pytest.mark.parametrize("sweep, gamma_f, gamma_s", [
    (lambda: resonant_sweep((1.0, 1e9), 3), 500000000.5, 500000000.5),
    (lambda: grid_sweep((1.0, 1e9), (0.5, 2.0), (3, 2)), 500000000.5, 0.5),
    # m* just above 2^53, where the float gap test would pass at the start
    (lambda: resonant_sweep((379649350.0, 379649350.0), 2), 379649350.0,
     379649350.0),
], ids=["resonant", "grid", "just-past-2^53"])
def test_sweeps_raise_the_scalar_message(sweep, gamma_f, gamma_s):
    """The first unresolvable row raises the scalar ValueError word for word."""
    with pytest.raises(ValueError) as scalar:
        minimal_m0_from_rates(gamma_f, gamma_s)
    assert "not resolvable" in str(scalar.value)
    with pytest.raises(ValueError) as err:
        sweep()
    assert str(err.value) == str(scalar.value)


@pytest.mark.parametrize("sweep, rows", [
    (lambda: resonant_sweep((1.0, 2.0), 10 ** 12), 10 ** 12),
    (lambda: grid_sweep((1.0, 2.0), (1.0, 2.0), (10 ** 4, 10 ** 4)), 10 ** 8),
], ids=["resonant-1e12", "grid-1e4x1e4"])
def test_sweep_row_cap_refuses_before_allocating(sweep, rows, monkeypatch):
    def no_axis(*_):
        raise AssertionError("the rate axis was built")
    monkeypatch.setattr("jcgraph.code_construction._rate_axis", no_axis)
    with pytest.raises(ValueError, match=f"{rows} rows exceeds the cap of 1000000"):
        sweep()
