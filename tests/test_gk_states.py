"""Tests for weight families, tail bounds and generalized coherent states."""
import bisect
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcgraph import gk_states
from jcgraph.code_construction import EnergyOrderError, decompose
from jcgraph.hilbert import TruncationConfig
from jcgraph.jc_spectrum import JCParams, evolution_operator
from jcgraph.gk_states import (
    DomainError,
    TailBoundError,
    TruncationTooSmallError,
    builtin_family,
    closed_form_diagonals,
    dump_family,
    gk_state,
    jc_families,
    moment_diagonals,
    tail_mass,
    tail_safe_xmax,
    verify_resolution,
)
from oracles import (eigenenergy, embedding, moment_table, rule_nodes, stability_grid, tau,
                     verify_action_identity)

PARAMS = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.5)
BETA = gk_states._BETA  # the one tail budget of every GK state


def named_cutoff(err) -> int:
    """The photon cutoff N that a ``TruncationTooSmallError``'s message names."""
    return int(re.search(r"N >= (\d+)", str(err.value))[1])


def poisson_tail(x, n_cut):
    """Direct-summation oracle for the factorial-family tail."""
    return 1.0 - math.exp(-x) * sum(x ** k / math.factorial(k)
                                    for k in range(n_cut + 1))


def geometric_tail(x, n_cut):
    """Direct-summation oracle for the uniform-moment-family tail."""
    return 1.0 - (1.0 - x) ** 2 * sum((k + 1) * x ** k for k in range(n_cut + 1))


def test_factorial_family_basics():
    fam = builtin_family("factorial")
    assert fam.radius == math.inf
    assert [fam.weight(k) for k in range(5)] == [1.0, 1.0, 2.0, 6.0, 24.0]
    assert abs(math.exp(fam.log_n_squared(2.0)) - math.exp(2.0)) < 1e-12
    assert tau(fam, 5.0) == 1.0


def test_uniform_family_basics():
    fam = builtin_family("uniform_moment")
    assert fam.radius == 1.0
    assert fam.weight(3) == 0.25
    assert abs(math.exp(fam.log_n_squared(0.5)) - 4.0) < 1e-14
    # for this family tau coincides with the squared normalization
    assert abs(tau(fam, 0.5) - 4.0) < 1e-14


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        builtin_family("nosuch")


def test_family_domain_checks():
    uni = builtin_family("uniform_moment")
    with pytest.raises(DomainError):
        uni.probabilities(1.0, 5)
    with pytest.raises(DomainError):
        uni.probabilities(-0.1, 5)
    fac = builtin_family("factorial")
    with pytest.raises(DomainError):
        fac.probabilities(-1.0, 5)
    # any nonnegative x is inside the factorial domain
    assert fac.probabilities(37.0, 5).shape == (6,)


def test_probabilities_frozen_values():
    fac = builtin_family("factorial")
    p = fac.probabilities(2.0, 5)
    assert abs(p[0] - math.exp(-2.0)) < 1e-15
    assert abs(p[3] - math.exp(-2.0) * 8.0 / 6.0) < 1e-15
    uni = builtin_family("uniform_moment")
    q = uni.probabilities(0.5, 5)
    assert abs(q[0] - 0.25) < 1e-15
    assert abs(q[3] - 0.125) < 1e-15


def test_probabilities_match_the_per_term_loop():
    """The shared table's slice, bit for bit, whether the table is longer or built here
    (``tests/test_family_cache.py`` pins the sharing)."""
    for name, x in (("factorial", 37.0), ("uniform_moment", 0.9)):
        fam = builtin_family(name)
        ks = np.arange(161)
        log_c = np.array([fam.log_weight(int(k)) for k in ks])
        with np.errstate(under="ignore"):
            loop = np.exp(ks * math.log(x) - log_c - fam.log_n_squared(x))
        np.testing.assert_array_equal(fam.probabilities(x, 160), loop)
        closed_form_diagonals(fam, 1000)
        np.testing.assert_array_equal(fam.probabilities(x, 160), loop)


def test_builtin_families_are_module_values():
    for name in ("factorial", "uniform_moment"):
        fam = builtin_family(name)
        assert builtin_family(name) is fam
        # the shared table would wrap k = -1 to its last entry
        with pytest.raises(ValueError):
            moment_diagonals(fam, [-1], fam.moment_rule(21))


def test_probabilities_at_origin():
    for name in ("factorial", "uniform_moment"):
        p = builtin_family(name).probabilities(0.0, 7)
        assert p[0] == 1.0
        assert np.abs(p[1:]).max() == 0.0


def test_probabilities_sum_to_one_minus_tail():
    fac = builtin_family("factorial")
    total = fac.probabilities(3.0, 80).sum()
    assert abs(total - (1.0 - poisson_tail(3.0, 80))) < 1e-14


def test_tail_mass_is_certified_upper_bound():
    fac = builtin_family("factorial")
    uni = builtin_family("uniform_moment")
    # the direct-summation oracles carry ~1e-15 of rounding themselves,
    # hence the small slack on the lower side
    for x, n_cut in ((0.5, 4), (2.0, 10), (8.0, 25)):
        bound = tail_mass(fac, x, n_cut)
        exact = poisson_tail(x, n_cut)
        assert exact <= bound * (1.0 + 1e-9) + 1e-15
        assert bound <= exact * 1.01 + 1e-15
    for x, n_cut in ((0.2, 6), (0.5, 20), (0.8, 60)):
        bound = tail_mass(uni, x, n_cut)
        exact = geometric_tail(x, n_cut)
        assert exact <= bound * (1.0 + 1e-9) + 1e-15
        assert bound <= exact * 1.01 + 1e-15


def test_tail_mass_trivial_cases():
    fac = builtin_family("factorial")
    assert tail_mass(fac, 0.0, 5) == 0.0
    with pytest.raises(ValueError):
        tail_mass(fac, 1.0, -1)
    # tail shrinks as the cutoff grows
    t = [tail_mass(fac, 4.0, n) for n in (5, 10, 20, 40)]
    assert all(b < a for a, b in zip(t, t[1:]))


def test_tail_safe_xmax_is_sharp():
    for name in ("factorial", "uniform_moment"):
        fam = builtin_family(name)
        x = tail_safe_xmax(fam, 60)
        assert tail_mass(fam, x, 60) <= BETA
        assert tail_mass(fam, x * 1.01, 60) > BETA


@pytest.mark.parametrize("name", ["factorial", "uniform_moment"])
def test_tail_safe_xmax_bounds_the_upper_end_once(name):
    """The bracket's upper end (the radius, or the last doubling) is bounded once."""
    xs = []

    def counted(family, x, n_cut):
        xs.append(x)
        return tail_mass(family, x, n_cut)

    with mock.patch.object(gk_states, "tail_mass", counted):
        tail_safe_xmax(builtin_family(name), 60)
    assert xs.count(max(xs)) == 1


def _bound_or_inf(family, x, n_cut):
    try:
        return tail_mass(family, x, n_cut)
    except TailBoundError:
        return math.inf


def bisection_xmax(family, n_cut, budget):
    """The 200-step bisection the root finder replaced, kept as an oracle."""
    def bound(x):
        return _bound_or_inf(family, x, n_cut)

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


def walk_tail_mass(family, x, n_cut):
    """The earlier ``tail_mass`` walk: a running product of term ratios.

    Kept as an oracle.  A leading term that underflows makes it return 0.
    """
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    ln2 = family.log_n_squared(x)

    def log_term(k):
        return k * lx - family.log_weight(k) - ln2

    total = 0.0
    k = n_cut + 1
    t = math.exp(log_term(k))
    for _ in range(gk_states._TAIL_ITER_CAP):
        r = math.exp(log_term(k + 1) - log_term(k))
        if r < 1.0 and (r < 0.5 or t < 1e-30):
            return total + t + t * r / (1.0 - r)
        total += t
        t *= r
        k += 1
        if t == 0.0:
            return total
    raise TailBoundError("no certified bound")


XMAX_DOMAIN = (st.sampled_from(("factorial", "uniform_moment")), st.integers(5, 500))


@settings(max_examples=60, deadline=None)
@given(*XMAX_DOMAIN)
def test_tail_safe_xmax_matches_full_bisection(name, n_cut):
    """bound(x) <= beta < bound(next double), at the bisection's x to 1e-13."""
    fam = builtin_family(name)
    x = tail_safe_xmax(fam, n_cut)
    bracket_end = fam.radius * (1.0 - 1e-12) if math.isfinite(fam.radius) else None
    assert _bound_or_inf(fam, x, n_cut) <= BETA
    assert (x == bracket_end
            or _bound_or_inf(fam, math.nextafter(x, math.inf), n_cut) > BETA)
    assert abs(x - bisection_xmax(fam, n_cut, BETA)) <= 1e-13 * x


@settings(max_examples=60, deadline=None)
@given(*XMAX_DOMAIN)
def test_tail_safe_xmax_bounds_at_most_32_times(name, n_cut):
    calls = []

    def counted(family, x, n_cut):
        calls.append(x)
        return tail_mass(family, x, n_cut)

    with mock.patch.object(gk_states, "tail_mass", counted):
        tail_safe_xmax(builtin_family(name), n_cut)
    assert len(calls) <= 32


def restarted_xmax(family, n_cut, budget):
    """The search with its bisection restarted at 0 after the doubling."""
    def bound(x):
        try:
            return gk_states.tail_mass(family, x, n_cut)
        except TailBoundError:
            return math.inf

    hi = 1.0
    while (hi_mass := bound(hi)) <= budget and hi < 1e6:
        hi *= 2.0
    if hi_mass <= budget:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bound(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("n_cut", [5, 20, 60, 500])
def test_tail_safe_xmax_bisects_from_the_last_doubling(n_cut):
    """The search narrows [last doubling within beta, next doubling], not [0, hi].

    Every bound after the doubling lies strictly inside that bracket, and
    the result is a restarted-at-0 bisection's x to 1e-13, found with
    fewer bounds.
    """
    fam = builtin_family("factorial")
    xs = []

    def counted(family, x, n_cut):
        xs.append(x)
        return tail_mass(family, x, n_cut)

    with mock.patch.object(gk_states, "tail_mass", counted):
        x = tail_safe_xmax(fam, n_cut)
        calls = len(xs)
        reference = restarted_xmax(fam, n_cut, BETA)
    restarted_calls = len(xs) - calls
    probes = xs[:calls]
    doublings = 1
    while doublings < calls and probes[doublings] == 2.0 * probes[doublings - 1]:
        doublings += 1
    hi = probes[doublings - 1]
    lo = 0.5 * hi if hi > 1.0 else 0.0
    assert tail_mass(fam, hi, n_cut) > BETA
    assert lo == 0.0 or tail_mass(fam, lo, n_cut) <= BETA
    assert all(lo < p < hi for p in probes[doublings:])
    assert lo <= x < hi
    assert abs(x - reference) <= 1e-13 * x
    assert calls < restarted_calls


@st.composite
def tail_inputs(draw):
    name = draw(st.sampled_from(("factorial", "uniform_moment")))
    if name == "factorial":
        x = draw(st.floats(0.0, 3000.0))
    else:
        # dense near the radius, where the walk runs to its cap
        x = draw(st.floats(0.0, 1.0, exclude_max=True)
                 | st.floats(0.0, 8.0).map(lambda u: 1.0 - 10.0 ** -u))
    return builtin_family(name), x, draw(st.integers(0, 500))


@settings(max_examples=150, deadline=None)
@given(tail_inputs())
def test_tail_mass_matches_the_walk_oracle(args):
    """Raises where the earlier walk raised, and returns its bound to 1e-12.

    The O(1) cap test and the walk agree on where the bound gives up; the
    per-term ``exp`` and the running product agree to rounding, except
    where the leading term underflows and the product starts from 0.
    """
    family, x, n_cut = args
    # a smaller cap keeps the oracle's walk to the cap short
    with mock.patch.object(gk_states, "_TAIL_ITER_CAP", 50_000):
        try:
            expected = walk_tail_mass(family, x, n_cut)
        except TailBoundError:
            with pytest.raises(TailBoundError):
                tail_mass(family, x, n_cut)
            return
        got = tail_mass(family, x, n_cut)
    if x == 0.0:
        assert got == expected == 0.0
        return
    lead = ((n_cut + 1) * math.log(x) - family.log_weight(n_cut + 1)
            - family.log_n_squared(x))
    if math.exp(lead) >= sys.float_info.min:
        assert abs(got - expected) <= 1e-12 * got


@pytest.mark.parametrize("name, x, n_cut", [("uniform_moment", 0.9, 5),
                                              ("factorial", 300.0, 10)])
def test_tail_mass_gives_up_exactly_where_the_walk_would_reach_its_cap(name, x, n_cut):
    """The O(1) cap test and the walk's own cap agree to the term."""
    family = builtin_family(name)

    def bound(cap, tail):
        with mock.patch.object(gk_states, "_TAIL_ITER_CAP", cap):
            try:
                return tail(family, x, n_cut)
            except TailBoundError:
                return None

    # the smallest cap the oracle's walk stops within
    need = bisect.bisect_left(range(10_000), True,
                              key=lambda cap: bound(cap, walk_tail_mass) is not None)
    assert 100 < need < 10_000
    assert bound(need, tail_mass) == pytest.approx(bound(need, walk_tail_mass), rel=1e-12)
    assert bound(need - 1, tail_mass) is None


def test_tail_mass_does_not_stop_at_an_underflowed_term():
    """At x = 2000 the first term past 159 is e^-1446 but the tail is about 1."""
    fac = builtin_family("factorial")
    assert walk_tail_mass(fac, 2000.0, 159) == 0.0
    assert abs(tail_mass(fac, 2000.0, 159) - 1.0) < 1e-9


@pytest.mark.parametrize("x, need", [(1000.0, 1231), (2000.0, 2324)])
def test_gk_state_beyond_the_ladder_reports_the_cutoff(x, need):
    tr = TruncationConfig(160)
    fac = builtin_family("factorial")
    j, _ = jc_families(decompose(PARAMS, 3, tr), fac, fac)
    with pytest.raises(TruncationTooSmallError) as err:
        gk_state(j, x, 0.0)
    assert named_cutoff(err) == need
    # the reported photon cutoff is minimal for the tail budget beta
    assert tail_mass(fac, x, need - j.start_index) <= gk_states._BETA
    assert tail_mass(fac, x, need - j.start_index - 1) > gk_states._BETA


def loop_moment_diagonals(family, ks, rule):
    """moment_diagonals one k at a time."""
    with np.errstate(divide="ignore"):
        log_x = np.where(rule.nodes > 0, np.log(np.where(rule.nodes > 0,
                                                         rule.nodes, 1.0)), -np.inf)
    out = np.empty(len(ks))
    for j, k in enumerate(ks):
        logs = rule.log_weights + k * log_x - family.log_weight(int(k))
        with np.errstate(under="ignore"):
            out[j] = np.exp(logs).sum()
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("factorial", "uniform_moment")), st.integers(2, 360),
       st.lists(st.integers(0, 1500), max_size=400))
def test_moment_diagonals_match_the_loop_bit_for_bit(name, nodes, ks):
    fam = builtin_family(name)
    rule = fam.moment_rule(nodes)
    np.testing.assert_array_equal(moment_diagonals(fam, ks, rule),
                                  loop_moment_diagonals(fam, ks, rule))


def test_moment_diagonals_in_blocks_match_the_loop():
    # 3 000 nodes x 2 000 orders spans several blocks of the oracle's table
    uni = builtin_family("uniform_moment")
    rule = uni.moment_rule(3000)
    ks = np.arange(2000)
    np.testing.assert_array_equal(moment_table(uni, ks, rule),
                                  loop_moment_diagonals(uni, ks, rule))


def test_moment_diagonals_are_unity():
    """int rho x^k dx / c_k = 1 for every k, both families."""
    fac = builtin_family("factorial")
    ks = np.arange(41)
    dev = np.abs(moment_diagonals(fac, ks, fac.moment_rule(200)) - 1.0)
    assert dev.max() < 1e-10
    uni = builtin_family("uniform_moment")
    dev = np.abs(moment_diagonals(uni, ks, uni.moment_rule(200)) - 1.0)
    assert dev.max() < 1e-10


@pytest.mark.parametrize("name", ["factorial", "uniform_moment"])
@pytest.mark.parametrize("terms", [16, 161, 960, 2000])
def test_ladder_sized_rule_reproduces_every_moment(name, terms):
    """The oracle's rule has ceil(terms / 2) nodes, exact for x^k at every k < terms."""
    assert 2 * rule_nodes(terms) - 1 >= terms - 1
    fam = builtin_family(name)
    dev = np.abs(moment_table(fam, np.arange(terms)) - 1.0)
    assert dev.max() <= 1e-10


def closed_form_bound(name, k):
    """``closed_form_diagonals``' bound on |log_moments - log c_k|, per order k."""
    u, k = 2.0 ** -53, np.asarray(k)
    if name == "uniform_moment":
        return 4.0 * u * np.log1p(k)
    rows = gk_states._ROW + -(-k // gk_states._ROW) + 10
    return rows * u * np.array([math.lgamma(i + 1) for i in k.tolist()])


@pytest.mark.parametrize("name", ["factorial", "uniform_moment"])
@pytest.mark.parametrize("terms", [160, 2000, 10_000])
def test_closed_forms_agree_within_their_rounding_bound(name, terms):
    fam = builtin_family(name)
    log_c = np.array([fam.log_weight(k) for k in range(terms)])
    gap = np.abs(fam.log_moments(terms) - log_c)
    assert (gap <= closed_form_bound(name, np.arange(terms))).all()
    # d_k - 1 is that gap and exp's own rounding
    dev = np.abs(closed_form_diagonals(fam, terms) - 1.0)
    assert (dev <= gap * (1.0 + 1e-6) + 2.0 ** -52).all()


def test_the_factorial_bound_stays_below_the_resolution_tolerance():
    """The bound reads 2.5e-8 at k = 5 10^4, where one cumsum's k u log k! is 2.7e-6."""
    assert closed_form_bound("factorial", np.arange(50_000)).max() < 1e-6


def test_moment_diagonals_high_order_stay_finite():
    uni = builtin_family("uniform_moment")
    vals = moment_diagonals(uni, [100, 150], uni.moment_rule(200))
    assert np.abs(vals - 1.0).max() < 1e-8


def test_jc_families_layout():
    tr = TruncationConfig(30)
    uni = builtin_family("uniform_moment")
    fac = builtin_family("factorial")
    j, s = jc_families(decompose(PARAMS, 3, tr), uni, fac)
    assert (j.label, s.label) == ("J", "S")
    assert (j.start_index, s.start_index) == (1, 3)
    assert j.terms == 30
    assert s.terms == 28
    # energies are the dressed ladders
    assert abs(j.energies[0] - eigenenergy(PARAMS, 1, "plus")) < 1e-14
    assert abs(s.energies[0] - eigenenergy(PARAMS, 3, "minus")) < 1e-14
    assert np.diff(j.energies).min() > 0
    assert np.diff(s.energies).min() > 0
    # embeddings are orthonormal and mutually orthogonal
    assert np.abs(embedding(j).conj().T @ embedding(j) - np.eye(30)).max() < 1e-12
    assert np.abs(embedding(j).conj().T @ embedding(s)).max() < 1e-12


def test_jc_families_are_views_of_the_code():
    """Both ladders sit on the code's frame, at the J and S sets of its partition."""
    tr = TruncationConfig(30)
    uni = builtin_family("uniform_moment")
    code = decompose(PARAMS, 3, tr)
    j, s = jc_families(code, uni, uni)
    assert j.frame is code.frame and s.frame is code.frame
    assert j.index is code.j_indices and s.index is code.s_indices
    # H3, J, S and the decoupled |N, e> at 2N + 1 partition the dressed indices
    parts = np.concatenate([code.h3_indices, code.j_indices, code.s_indices,
                            [2 * tr.n_fock + 1]])
    np.testing.assert_array_equal(np.sort(parts), np.arange(tr.dim))


def test_jc_families_rejects_cut_below_threshold():
    """A cut below M0 leaves a decreasing stretch on the lower ladder."""
    tr = TruncationConfig(30)
    uni = builtin_family("uniform_moment")
    strong = JCParams.from_rates(8.0, 8.0)
    with pytest.raises(EnergyOrderError) as err:
        decompose(strong, 3, tr)
    assert "h[1] - h[0]" in str(err.value)
    assert err.value.gap <= 0
    # at the admissible cut the same parameters pass
    j, s = jc_families(decompose(strong, 4, tr), uni, uni)
    assert np.diff(s.energies).min() > 0


def test_jc_families_k0_bounds():
    # the cut is checked where the ladders are split, in decompose
    tr = TruncationConfig(10)
    with pytest.raises(ValueError):
        decompose(PARAMS, 0, tr)
    with pytest.raises(ValueError):
        decompose(PARAMS, 10, tr)


def test_gk_state_matches_direct_construction():
    tr = TruncationConfig(40)
    uni = builtin_family("uniform_moment")
    j, _ = jc_families(decompose(PARAMS, 3, tr), uni, uni)
    x, y = 0.25, 1.3
    v = gk_state(j, x, y)
    # direct sum over the ladder: sqrt(p_k) e^{-i h_k y} on |k+1, +>
    direct = np.zeros(tr.dim, dtype=complex)
    for k in range(j.terms):
        p_k = (1.0 - x) ** 2 * (k + 1) * x ** k
        h_k = eigenenergy(PARAMS, k + 1, "plus")
        direct += math.sqrt(p_k) * np.exp(-1j * h_k * y) * embedding(j)[:, k]
    assert np.abs(v - direct).max() < 1e-13
    # squared norm is the kept probability mass
    assert abs(np.vdot(v, v).real - (1.0 - geometric_tail(x, j.terms - 1))) < 1e-13


def test_gk_state_truncation_error_reports_needed_cutoff():
    tr = TruncationConfig(20)
    uni = builtin_family("uniform_moment")
    j, _ = jc_families(decompose(PARAMS, 3, tr), uni, uni)
    with pytest.raises(TruncationTooSmallError) as err:
        gk_state(j, 0.9, 0.0)
    need = named_cutoff(err)
    assert need > tr.n_fock
    # the reported photon cutoff is minimal for the tail budget beta
    assert tail_mass(uni, 0.9, need - j.start_index) <= gk_states._BETA
    assert tail_mass(uni, 0.9, need - j.start_index - 1) > gk_states._BETA


def test_gk_state_refuses_exactly_beyond_the_certified_domain():
    """gk_state accepts every x in [0, x_max] at beta, the domain the stability record
    certifies, and refuses the next double, where the ladder needs one more rung."""
    tr = TruncationConfig(60)
    fac = builtin_family("factorial")
    _, s = jc_families(decompose(JCParams(1.0, 1.0, 1.0), 3, tr), fac, fac)
    x_max = tail_safe_xmax(fac, s.terms - 1)
    below = math.nextafter(x_max, 0.0)
    assert tail_mass(fac, below, s.terms - 1) > gk_states._BETA  # the tail wobbles by ulps
    for x in (below, x_max):
        assert gk_state(s, x, 0.0).shape == (tr.dim,)
    with pytest.raises(TruncationTooSmallError) as err:
        gk_state(s, math.nextafter(x_max, math.inf), 0.0)
    assert named_cutoff(err) == tr.n_fock + 1


def test_ladder_embeddings_are_orthonormal():
    tr = TruncationConfig(25)
    uni = builtin_family("uniform_moment")
    j, s = jc_families(decompose(PARAMS, 3, tr), uni, uni)
    for spec in (j, s):
        e = embedding(spec)
        assert np.abs(e.conj().T @ e - np.eye(spec.terms)).max() < 1e-12
    assert np.abs(embedding(j).conj().T @ embedding(s)).max() < 1e-12


def test_verify_resolution_reconstructs_projector():
    tr = TruncationConfig(40)
    for name in ("factorial", "uniform_moment"):
        fam = builtin_family(name)
        j, s = jc_families(decompose(PARAMS, 3, tr), fam, fam)
        for spec in (j, s):
            diagonals = moment_diagonals(fam, np.arange(spec.terms), fam.moment_rule(200))
            residual = verify_resolution(spec, diagonals)
            assert residual < 1e-6
            assert residual < 1e-10
            assert np.abs(diagonals - 1).max() < 1e-10


def test_verify_resolution_converges_with_nodes():
    """Under-resolved quadrature shows real convergence as nodes double."""
    tr = TruncationConfig(40)
    uni = builtin_family("uniform_moment")
    j, _ = jc_families(decompose(PARAMS, 3, tr), uni, uni)
    residuals = [verify_resolution(j, moment_diagonals(uni, np.arange(j.terms),
                                                       uni.moment_rule(n)))
                 for n in (8, 16)]
    assert residuals[1] < residuals[0] / 2.0


def test_temporal_stability_equals_kept_mass_squared():
    tr = TruncationConfig(40)
    uni = builtin_family("uniform_moment")
    j, _ = jc_families(decompose(PARAMS, 3, tr), uni, uni)
    x = 0.3
    kept = 1.0 - geometric_tail(x, j.terms - 1)
    for t in (0.0, 1.7, 9.4):
        fid = stability_grid(j, [x], [t])[0, 0]
        assert abs(fid - kept ** 2) < 1e-12


def test_temporal_stability_through_the_evolution_operator():
    # the phase path and the unitary path agree term by term
    tr = TruncationConfig(30)
    fac = builtin_family("factorial")
    _, s = jc_families(decompose(PARAMS, 3, tr), fac, fac)
    t = 2.1
    v0 = gk_state(s, 1.5, 0.0)
    vt = gk_state(s, 1.5, t)
    u = evolution_operator(PARAMS, t, tr)
    assert np.abs(u @ v0 - vt).max() < 1e-12


def test_action_identity_canonical_factorial():
    """With h_k = k the factorial family expectation equals x exactly."""
    fac = builtin_family("factorial")
    chk = verify_action_identity(fac, 2.0)
    assert chk.guaranteed
    assert abs(chk.value - 2.0) < 1e-12
    chk = verify_action_identity(fac, 0.7)
    assert abs(chk.value - 0.7) < 1e-12


def test_action_identity_uniform_not_guaranteed():
    uni = builtin_family("uniform_moment")
    chk = verify_action_identity(uni, 0.5)
    assert not chk.guaranteed
    # the expectation is still the mean ladder index 2x / (1 - x)
    assert abs(chk.value - 2.0) < 1e-10


def test_action_identity_with_shifted_energies():
    fac = builtin_family("factorial")
    chk = verify_action_identity(fac, 1.0, energies=np.arange(100) + 0.5)
    assert not chk.guaranteed


def test_dump_family_structure():
    tr = TruncationConfig(15)
    uni = builtin_family("uniform_moment")
    fac = builtin_family("factorial")
    j, s = jc_families(decompose(PARAMS, 3, tr), uni, fac)
    d = dump_family(j, [0.0, 0.3], [0.0, 2.0])
    assert d["family"] == "uniform_moment"
    assert d["label"] == "J"
    assert d["R"] == 1.0
    assert len(d["weights"]) == j.terms
    assert len(d["h"]) == j.terms
    assert len(d["coefficients"]) == 4
    rec = d["coefficients"][0]
    assert rec["x"] == 0.0 and rec["y"] == 0.0
    assert rec["re"][0] == 1.0
    # infinite radius is encoded as null
    assert dump_family(s, [1.0], [0.0])["R"] is None
