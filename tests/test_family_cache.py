"""Per-family data of ``verify``: built once per process, at any JC point.

A Gazeau-Klauder state depends on its weight family and its ladder length,
not on the JC point.  ``gk_states._TABLES`` holds one read-only pair of
tables per family, log c_k and d_k, built at the longest length asked for;
every shorter ladder reads a slice of it.  ``tail_safe_xmax`` and
``cli._ladder_moments`` (the ``gk.moments`` spot check, per family and the
orders it reads, k < min(41, terms)) keep what they build too.  A cold
``verify`` builds one pair and one spot check per family, and a warm
``verify`` at a new point or a ``demo`` must search no tail and build no
table or rule, and print what a cold one prints.
"""
import dataclasses
import json

import numpy as np
import pytest

from jcgraph import cli, gk_states
from jcgraph.code_construction import decompose
from jcgraph.gk_states import (builtin_family, closed_form_diagonals, jc_families,
                               tail_mass, tail_safe_xmax)
from jcgraph.graph_verify import CheckRecord
from jcgraph.hilbert import QuadratureRule

PAIRS = [("factorial",) * 2, ("uniform_moment",) * 2, ("factorial", "uniform_moment"),
         ("uniform_moment", "factorial")]
PAIR_IDS = ["factorial", "uniform_moment", "factorial-uniform_moment",
            "uniform_moment-factorial"]


def _cold():
    for cache in (decompose, tail_safe_xmax, cli._ladder_moments):
        cache.cache_clear()
    gk_states._TABLES.clear()


class _Builds(dict):
    """A ``gk_states._TABLES`` that lists each table pair stored in it."""

    def __init__(self):
        super().__init__()
        self.built = []

    def __setitem__(self, family, tables):
        self.built.append((family.name, *(table.size for table in tables)))
        super().__setitem__(family, tables)


def _builds(monkeypatch):
    tables = _Builds()
    monkeypatch.setattr(gk_states, "_TABLES", tables)
    return tables.built


def _count(monkeypatch, name):
    calls, original = [], getattr(gk_states, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(gk_states, name, counted)
    return calls


def _verify(argv, capsys):
    rc = cli.main(argv)
    return (rc, *capsys.readouterr())


def _families(pair, n_fock):
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 0.8, "kappa": 0.7,
                                  "n_fock": n_fock, "family1": pair[0],
                                  "family2": pair[1]})
    code = decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    return jc_families(code, cfg.family1, cfg.family2)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_a_warm_verify_searches_no_tail_and_builds_no_table(pair, monkeypatch, capsys):
    """The second point shares N and the families with the first: no tail bound,
    table, moment diagonal or rule is built for it, and it prints what a cold run prints."""
    families = ["--family1", pair[0], "--family2", pair[1], "--n-fock", "40"]
    first = ["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", *families]
    second = ["verify", "--omega-f", "1", "--omega-s", "0.81", "--kappa", "0.69", *families]
    built = _builds(monkeypatch)
    _verify(first, capsys)
    tails = _count(monkeypatch, "tail_mass")
    moments = _count(monkeypatch, "moment_diagonals")
    rules = []
    for name in ("gauss_legendre", "gauss_laguerre"):
        build = getattr(QuadratureRule, name)
        monkeypatch.setattr(QuadratureRule, name, staticmethod(
            lambda *args, build=build, name=name: rules.append(name) or build(*args)))
    built.clear()
    warm = _verify(second, capsys)
    assert (len(tails), len(moments), len(built), len(rules)) == (0, 0, 0, 0)
    _cold()
    cold = _verify(second, capsys)
    assert tails and moments and built and rules
    assert warm == cold and warm[0] == 0


@pytest.mark.parametrize("n_fock", [40, 2000])
@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_a_cold_verify_builds_one_table_pair_per_family(pair, n_fock, monkeypatch, capsys):
    """Each distinct family, uniform_moment for identity membership included, gets
    one pair of tables at the longest ladder it rides: J's N terms for family1 and
    uniform_moment, S's N - k0 + 1 for family2 alone.  Every other read is a slice,
    and a second verify and a demo at that N build none."""
    point = ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", "--n-fock", str(n_fock),
             "--family1", pair[0], "--family2", pair[1]]
    j, s = _families(pair, n_fock)
    longest = {pair[1]: s.terms, pair[0]: j.terms, "uniform_moment": j.terms}
    built = _builds(monkeypatch)
    _verify(["verify", *point], capsys)
    assert sorted(built) == [(name, n, n) for name, n in sorted(longest.items())]
    built.clear()
    assert _verify(["verify", *point], capsys)[0] == 0
    assert _verify(["demo", *point], capsys)[0] == 0
    assert built == []


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_a_cold_verify_spot_checks_each_family_once(pair, monkeypatch, capsys):
    """The spot check reads its family and k < min(41, terms) alone, and at N = 160
    both ladders have over 41 rungs (J 160, S 158): one ``moment_diagonals`` call
    per distinct family, so a family on both ladders is spot-checked once."""
    moments = _count(monkeypatch, "moment_diagonals")
    assert _verify(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                    "--n-fock", "160", "--family1", pair[0], "--family2", pair[1]],
                   capsys)[0] == 0
    assert sorted(args[0].name for args in moments) == sorted(set(pair))
    assert all(args[1].size == 41 for args in moments)


def test_a_cold_verify_bounds_stability_once(monkeypatch, capsys):
    """The stability bound reads the frame, its residuals and T, no ladder: one
    evaluation per verify, whose value both ``gk.temporal_stability`` records carry."""
    calls = _count(monkeypatch, "verify_temporal_stability")
    rc, out, _ = _verify(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                          "--n-fock", "160"], capsys)
    records = {c["name"]: c["residual"] for c in json.loads(out)["checks"]}
    assert rc == 0 and len(calls) == 1
    assert records["gk.temporal_stability.J"] == records["gk.temporal_stability.S"] > 0.0


@pytest.mark.parametrize("name", ["factorial", "uniform_moment"])
def test_ladders_read_slices_of_one_read_only_table(name):
    """S's log c_k and d_k share memory with J's, and no reader can write to them."""
    j, s = _families((name, name), 160)
    fam = j.family
    tables = [*gk_states._tables(fam, j.terms), *gk_states._tables(fam, s.terms),
              closed_form_diagonals(fam, j.terms), closed_form_diagonals(fam, s.terms)]
    assert s.terms < j.terms and [t.size for t in tables] == [j.terms, j.terms] + [
        s.terms, s.terms, j.terms, s.terms]
    assert np.shares_memory(tables[0], tables[2]) and np.shares_memory(tables[1], tables[3])
    assert np.shares_memory(tables[4], tables[5]) and np.shares_memory(tables[1], tables[5])
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = table[0]


@pytest.mark.parametrize("name", ["factorial", "uniform_moment"])
def test_a_short_table_is_a_slice_of_a_long_one_bit_for_bit(name):
    """A table built at m < n holds the bits of the one built at n, and of the
    per-term closed forms, across the rows of ``_log_factorials``."""
    fam, n = builtin_family(name), 2000
    for m in (1, gk_states._ROW - 1, gk_states._ROW, gk_states._ROW + 1, n):
        gk_states._TABLES.clear()
        short = closed_form_diagonals(fam, m)
        log_c = np.array([fam.log_weight(k) for k in range(m)])
        np.testing.assert_array_equal(short, np.exp(fam.log_moments(m) - log_c))
        np.testing.assert_array_equal(gk_states._tables(fam, m)[0], log_c)
        gk_states._TABLES.clear()
        np.testing.assert_array_equal(closed_form_diagonals(fam, n)[:m], short)
        np.testing.assert_array_equal(closed_form_diagonals(fam, m), short)


def test_a_non_finite_rule_reads_as_a_failed_spot_check():
    """A NaN rule is no usage error: its spot check reads NaN, which fails
    ``gk.moments``, while the closed-form diagonals stay 1."""
    nan_rho = dataclasses.replace(builtin_family("uniform_moment"), name="nan_rho",
                                  log_rho=lambda x: np.full(np.shape(x), np.nan))
    spot = cli._ladder_moments(nan_rho, 40)
    assert np.isnan(spot) and not CheckRecord("gk.moments", spot, 1e-8).passed
    assert np.abs(closed_form_diagonals(nan_rho, 40) - 1.0).max() <= 1e-15


def test_a_float_cutoff_does_not_share_a_search():
    fam = builtin_family("factorial")
    tail_safe_xmax(fam, 159, 1e-6)
    with pytest.raises(TypeError):
        tail_safe_xmax(fam, 159.0, 1e-6)


@pytest.mark.parametrize("n_fock", [60, 160])
@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_the_sample_x_range_is_tail_safe_on_both_ladders(pair, n_fock):
    """x_hi is the smallest of both ladders' tail-safe x, so the leak probe's ladder
    states drop at most beta of their mass on either ladder: the probe lies in the x
    domain that ``gk.temporal_stability.*`` certifies."""
    families = _families(pair, n_fock)
    x_hi = cli._x_range(families)
    assert x_hi == min(tail_safe_xmax(spec.family, spec.terms - 1) for spec in families)
    for spec in families:
        assert tail_mass(spec.family, x_hi, spec.terms - 1) <= gk_states._BETA

