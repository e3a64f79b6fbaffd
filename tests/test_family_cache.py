"""Per-family data of ``verify``: built once per process, at any JC point.

A Gazeau-Klauder state depends on its weight family and its ladder length,
not on the JC point, so ``tail_safe_xmax`` and ``cli._ladder_moments`` keep
what they build.  A warm ``verify`` at a new point must search no tail and
build no moment diagonals or rule, and print what a cold one prints.
"""
import dataclasses

import numpy as np
import pytest

from jcgraph import cli, gk_states
from jcgraph.code_construction import decompose
from jcgraph.gk_states import builtin_family, jc_families, tail_mass, tail_safe_xmax
from jcgraph.graph_verify import CheckRecord
from jcgraph.hilbert import QuadratureRule

PAIRS = [("factorial",) * 2, ("uniform_moment",) * 2, ("factorial", "uniform_moment"),
         ("uniform_moment", "factorial")]
PAIR_IDS = ["factorial", "uniform_moment", "factorial-uniform_moment",
            "uniform_moment-factorial"]


def _cold():
    for cache in (decompose, tail_safe_xmax, cli._ladder_moments):
        cache.cache_clear()


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
    moment diagonals or rule is built for it, and it prints what a cold run prints."""
    families = ["--family1", pair[0], "--family2", pair[1], "--n-fock", "40"]
    first = ["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", *families]
    second = ["verify", "--omega-f", "1", "--omega-s", "0.81", "--kappa", "0.69", *families]
    _verify(first, capsys)
    tails = _count(monkeypatch, "tail_mass")
    moments = _count(monkeypatch, "moment_diagonals")
    diagonals = _count(monkeypatch, "closed_form_diagonals")
    rules = []
    for name in ("gauss_legendre", "gauss_laguerre"):
        build = getattr(QuadratureRule, name)
        monkeypatch.setattr(QuadratureRule, name, staticmethod(
            lambda *args, build=build, name=name: rules.append(name) or build(*args)))
    warm = _verify(second, capsys)
    assert (len(tails), len(moments), len(diagonals), len(rules)) == (0, 0, 0, 0)
    _cold()
    cold = _verify(second, capsys)
    assert tails and moments and diagonals and rules
    assert warm == cold and warm[0] == 0


def test_cached_tables_are_read_only():
    diag, _ = cli._ladder_moments(builtin_family("factorial"), 40)
    with pytest.raises(ValueError):
        diag[0] = diag[0]


def test_a_non_finite_rule_reads_as_a_failed_spot_check():
    """A NaN rule is no usage error: its spot check reads NaN, which fails
    ``gk.moments``, while the closed-form diagonals stay 1."""
    nan_rho = dataclasses.replace(builtin_family("uniform_moment"), name="nan_rho",
                                  log_rho=lambda x: np.full(np.shape(x), np.nan))
    diag, spot = cli._ladder_moments(nan_rho, 40)
    assert np.isnan(spot) and not CheckRecord("gk.moments", spot, 1e-8).passed
    assert np.abs(diag - 1.0).max() <= 1e-15


def test_a_float_cutoff_does_not_share_a_search():
    fam = builtin_family("factorial")
    tail_safe_xmax(fam, 159, 1e-6)
    with pytest.raises(TypeError):
        tail_safe_xmax(fam, 159.0, 1e-6)


@pytest.mark.parametrize("n_fock", [60, 160])
@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_the_sample_x_range_is_tail_safe_on_both_ladders(pair, n_fock):
    """x_hi is the smallest of both ladders' tail-safe x (and of 0.95 R), so the
    leak probe's ladder states drop at most 1e-6 of their mass on either ladder."""
    families = _families(pair, n_fock)
    x_hi = cli._x_range(families)
    assert x_hi == min(min(tail_safe_xmax(spec.family, spec.terms - 1, 1e-6),
                           0.95 * spec.family.radius) for spec in families)
    for spec in families:
        assert tail_mass(spec.family, x_hi, spec.terms - 1) <= 1e-6

