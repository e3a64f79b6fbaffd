"""End-to-end tests of the command line interface (in-process)."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcgraph import cli, code_construction
from jcgraph.cli import main
from jcgraph.hilbert import QuadratureRule

WEAK = ["--gamma-f", "0.1", "--gamma-s", "0.1"]
STRONG = ["--gamma-f", "8", "--gamma-s", "8"]
SMALL = ["--omega-f", "1", "--omega-s", "1", "--kappa", "0.5", "--n-fock", "20"]
# kappa = 0 at resonance: every level n >= 1 is degenerate
DEGENERATE = ["--omega-f", "1", "--omega-s", "1", "--kappa", "0"]
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mindim_weak_coupling(capsys):
    rc, out, _ = run(["mindim"] + WEAK, capsys)
    assert rc == 0
    assert json.loads(out) == {"m0": 1, "k0_star": 3, "d_min": 2, "dim_h3": 3}


def test_mindim_strong_coupling(capsys):
    rc, out, _ = run(["mindim"] + STRONG, capsys)
    assert rc == 0
    assert json.loads(out) == {"m0": 4, "k0_star": 4, "d_min": 3, "dim_h3": 4}


@pytest.mark.parametrize("exp", ["e-170", "e200"])
def test_mindim_frequency_scale_does_not_matter(exp, capsys):
    """kappa^2 underflows at 1e-170 and overflows at 1e200; M0 reads the rates."""
    argv = ["mindim", "--omega-f", "1" + exp, "--omega-s", "1" + exp, "--kappa", "8" + exp]
    rc, out, err = run(argv, capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["m0"] == 4
    assert out == run(["mindim"] + STRONG, capsys)[1]


@pytest.mark.parametrize("exp", ["e-170", "e200"])
@pytest.mark.parametrize("command", ["verify", "demo", "gk-dump"])
def test_state_commands_answer_at_extreme_frequency_scales(command, exp, capsys):
    """The frame reads the rates, so the triple times 1e-170 or 1e200 raises nothing.

    At 1e200 ``delta ** 2`` used to raise OverflowError.  verify may still
    fail its absolute spectrum tolerance there (exit 1), but with a report.
    """
    argv = [command, "--omega-f", "1" + exp, "--omega-s", "0.8" + exp,
            "--kappa", "0.7" + exp, "--n-fock", "20"]
    rc, out, _ = run(argv, capsys)
    assert rc in (0, 1) and out
    if command == "demo":  # x and the default t = 1/omega_f are unit-free
        assert (rc, out) == run(["demo", "--omega-f", "1", "--omega-s", "0.8",
                                 "--kappa", "0.7", "--n-fock", "20"], capsys)[:2]


@pytest.mark.parametrize("command", ["verify", "demo", "gk-dump"])
def test_state_commands_answer_at_a_large_rate_ratio(command, capsys):
    """omega_s = 1e200 omega_f: ``delta_f ** 2`` used to raise OverflowError in the
    frame.  The splitting now is finite and swamps omega_f, so the J ladder's gaps
    round to 0 and the cut is refused: exit 1 with the reason."""
    argv = [command, "--omega-f", "1", "--omega-s", "1e200", "--kappa", "1",
            "--n-fock", "20"]
    rc, _, err = run(argv, capsys)
    assert rc == 1 and "J ladder not strictly increasing" in err


@pytest.mark.parametrize("command", ["verify", "demo", "gk-dump"])
def test_state_commands_refuse_energies_beyond_doubles(command, capsys):
    """At 1e306 the energies omega_f (N + 1/2 + R_N/2) overflow past N = 174: exit 2
    before any state is built, naming that N, which still answers."""
    point = ["--omega-f", "1e306", "--omega-s", "0.8e306", "--kappa", "0.7e306"]
    rc, out, err = run([command] + point + ["--n-fock", "1000"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: energies overflow") and "largest usable N is 174\n" in err
    assert run([command] + point + ["--n-fock", "175"], capsys)[0] == 2
    assert run([command] + point + ["--n-fock", "174"], capsys)[0] in (0, 1)
    # at 1e308 the bisection lands below the headroom N >= k0 + 10: no N is named
    point = ["--omega-f", "1e308", "--omega-s", "0.8e308", "--kappa", "0.7e308"]
    rc, out, err = run([command] + point + ["--n-fock", "1000"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: energies overflow a double at n_fock = 1000; "
                   "no N >= k0 + 10 = 13 is usable at this point\n")


def test_overflow_check_cannot_raise():
    """R_N is a hypot: rate ratios and couplings near the double range give a
    number or inf, never OverflowError."""
    assert not cli._energies_overflow(cli.JCParams(1.0, 1e300, 1e300), 10 ** 6)
    assert cli._energies_overflow(cli.JCParams(1.0, 1.0, 1e308), 10 ** 6)


def _quiet(argv):
    """main(argv) with stdout and stderr captured: (rc, out, err, RuntimeWarnings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return (rc, out.getvalue(), err.getvalue(),
            [w for w in caught if issubclass(w.category, RuntimeWarning)])


@settings(max_examples=150, deadline=None)
@given(scale=st.floats(-320.0, 300.0), ratio=st.floats(-200.0, 200.0),
       gamma_f=st.floats(0.0, 1e3), n_fock=st.integers(3, 2000))
@example(scale=-310.0, ratio=math.log10(0.8), gamma_f=0.7, n_fock=30)  # subnormal omega_f
def test_every_finite_point_gets_an_answer_or_a_refusal(scale, ratio, gamma_f, n_fock):
    """omega_f = 10^scale, omega_s = 10^ratio omega_f and kappa = gamma_f omega_f:
    each command exits 0, 1 or 2 with no traceback and no RuntimeWarning.  A
    product past the double range reaches the command as inf, which is refused;
    so is verify's horizon 10/omega_f at omega_f < 5.6e-308, subnormal included."""
    omega_f = 10.0 ** scale
    point = ["--omega-f", repr(omega_f), "--omega-s", repr(10.0 ** ratio * omega_f),
             "--kappa", repr(gamma_f * omega_f), "--n-fock", str(n_fock)]
    for command in ("mindim", "demo", "gk-dump", "verify"):
        rc, _, err, warned = _quiet([command] + point)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err and not warned


def _assert_finite_report(argv):
    """A verify report, exit 0 or 1, in strict JSON (no NaN or Infinity token),
    with every residual finite and no RuntimeWarning on the way."""
    def refuse(token):
        raise AssertionError(f"{token} in the report of {argv}")
    rc, out, err, warned = _quiet(["verify"] + argv)
    checks = json.loads(out, parse_constant=refuse)["checks"]
    assert rc in (0, 1) and not warned and "Traceback" not in err
    assert checks and all(math.isfinite(c["residual"]) for c in checks)


@pytest.mark.parametrize("exp, n_fock", [("e306", 174), ("e307", 16)])
def test_verify_at_the_overflow_edge_reports_finite_residuals(exp, n_fock):
    """The largest usable N at the default point times 1e306 and 1e307: every
    energy is within a double, and so is every product the records read (the
    spectrum residuals' diagonal entries and the stability bound included)."""
    _assert_finite_report(["--omega-f", "1" + exp, "--omega-s", "0.8" + exp,
                           "--kappa", "0.7" + exp, "--n-fock", str(n_fock)])


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(303.0, 308.2))
def test_verify_at_the_largest_usable_n_reports_finite_residuals(scale):
    """The default point times 10^scale at the N that verify's own refusal names
    (its bisection of the overflow test), or, past scale 307.09, that refusal
    with no N named.  The ladders are factorial, whose verify at scale 303 (N =
    179 620) takes a quarter of uniform_moment's; no tail reads the scale."""
    omega_f = 10.0 ** scale
    point = ["--omega-f", repr(omega_f), "--omega-s", repr(0.8 * omega_f),
             "--kappa", repr(0.7 * omega_f), "--family1", "factorial",
             "--family2", "factorial"]
    rc, out, err, _ = _quiet(["verify"] + point + ["--n-fock", str(10 ** 6)])
    assert (rc, out) == (2, "")
    usable = re.search(r"the largest usable N is (\d+)\n", err)
    if usable is None:
        assert "no N >= k0 + 10 = 13 is usable" in err
    else:
        _assert_finite_report(point + ["--n-fock", usable[1]])


@pytest.mark.parametrize("omega_f", [1e-310, 5.5e-308])
def test_verify_refuses_a_horizon_past_the_double_range(omega_f, capsys):
    """10/omega_f overflows below omega_f = 5.6e-308, subnormal or not: verify refuses
    before any stage runs, with no warning and no report, instead of writing inf bounds."""
    point = ["--omega-f", repr(omega_f), "--omega-s", repr(0.8 * omega_f),
             "--kappa", repr(0.7 * omega_f), "--n-fock", "30"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(["verify"] + point, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: the stability horizon T = 10/omega_f overflows")


@pytest.mark.parametrize("family", ["factorial", "uniform_moment"])
def test_verify_passes_at_gamma_1000(family, capsys):
    """k0* = 62 500 at gamma_f = gamma_s = 1000: no array of the run is
    dim x k0, and the anticlique is read off the frame exactly."""
    rc, out, err = run(["verify", "--gamma-f", "1000", "--gamma-s", "1000",
                        "--n-fock", "62510", "--family1", family, "--family2", family],
                       capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (rc, err) == (0, "")
    assert [checks[name]["residual"] for name in (
        "graph.anticlique", "graph.anticlique_alpha_zero",
        "graph.anticlique_alpha_identity")] == [0.0, 0.0, 0.0]


def test_mindim_cavity_benchmark_frequencies(capsys):
    argv = ["mindim", "--omega-f", "51.1e9", "--omega-s", "51.1e9",
            "--kappa", "47e3", "--hz"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    assert json.loads(out) == {"m0": 1, "k0_star": 3, "d_min": 2, "dim_h3": 3}


def test_mindim_needs_no_truncation_headroom(capsys):
    rc, out, _ = run(["mindim", "--gamma-f", "1e6", "--gamma-s", "1e6"], capsys)
    assert rc == 0
    assert json.loads(out)["m0"] == 62500000000


@pytest.mark.parametrize("argv", [
    ["mindim", "--omega-f", "nan", "--omega-s", "1", "--kappa", "1"],
    ["mindim", "--gamma-f", "inf", "--gamma-s", "1"],
    ["sweep", "--resonant", "--gamma-f-min", "1", "--gamma-f-max", "nan",
     "--gamma-f-steps", "3"],
    ["mindim", "--gamma-f", "1e15", "--gamma-s", "1e15"],
    ["mindim", "--gamma-f", "1e160", "--gamma-s", "1e160"],
    ["demo"] + SMALL + ["--t", "nan"],
    ["demo"] + SMALL + ["--t", "inf"],
    ["demo"] + SMALL + ["--x", "nan"],
    ["demo"] + SMALL + ["--x=-inf", "--allow-leak"],
    ["demo"] + SMALL + ["--x", "5"],
    ["demo"] + SMALL + ["--x", "-1"],
    ["demo"] + SMALL + ["--family1", "factorial", "--family2", "uniform_moment",
                        "--x", "2"],
    ["gk-dump"] + SMALL + ["--ys", "0,nan"],
    ["gk-dump"] + SMALL + ["--ys", "inf"],
    ["gk-dump"] + SMALL + ["--ys", "1e307"],
    ["demo"] + SMALL + ["--t", "1e307"],
    ["demo"] + SMALL + ["--state", "nan,1"],
    ["demo"] + SMALL + ["--state", "inf,1"],
    ["verify"] + SMALL + ["--seed", "-1"],
    ["demo"] + SMALL + ["--seed", "-1"],
    ["verify"] + SMALL + ["--config", "SEED_CONFIG"],
    ["demo"] + SMALL + ["--config", "SEED_CONFIG"],
    ["verify"] + DEGENERATE,
    ["demo"] + DEGENERATE,
    ["gk-dump"] + DEGENERATE,
], ids=["omega-nan", "gamma-inf", "sweep-nan", "gamma-1e15", "gamma-1e160",
        "demo-t-nan", "demo-t-inf", "demo-x-nan", "demo-x-inf", "demo-x-above-radius",
        "demo-x-negative", "demo-x-above-shared-radius", "dump-y-nan",
        "dump-y-inf", "dump-phase-overflow", "demo-phase-overflow", "demo-state-nan",
        "demo-state-inf", "verify-seed-negative",
        "demo-seed-negative", "verify-seed-config", "demo-seed-config",
        "verify-degenerate", "demo-degenerate", "dump-degenerate"])
def test_bad_rates_fail_fast(argv, capsys, tmp_path):
    config = tmp_path / "seed.ini"
    config.write_text("[run]\nseed = -1\n")
    argv = [str(config) if a == "SEED_CONFIG" else a for a in argv]
    start = time.perf_counter()
    rc, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == "" and err.startswith("error:")


def test_degenerate_point_fails_only_where_states_are_built(capsys):
    rc, _, err = run(["verify"] + DEGENERATE, capsys)
    assert rc == 2 and "degenerate" in err
    rc, out, _ = run(["mindim"] + DEGENERATE, capsys)
    assert rc == 0
    assert json.loads(out)["k0_star"] == 3
    # sweep reads rate ranges only: system parameters are refused
    with pytest.raises(SystemExit) as exc:
        run(["sweep"] + DEGENERATE + ["--resonant", "--gamma-f-min", "7",
                                      "--gamma-f-max", "8", "--gamma-f-steps", "5"], capsys)
    assert exc.value.code == 2
    assert "unrecognized arguments: --omega-f" in capsys.readouterr().err


def test_verify_factorial_passes_at_960(capsys):
    """The moment rule covers every rung: x^k/k! at k ~ 960 sits beyond x ~ 745."""
    rc, out, _ = run(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                      "--n-fock", "960", "--family1", "factorial",
                      "--family2", "factorial"], capsys)
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["tolerance"]) for c in checks] == _expected_checks("factorial")
    assert all(c["pass"] and c["residual"] < c["tolerance"] for c in checks)
    assert rc == 0


def test_non_finite_rule_fails_the_moment_check(monkeypatch, capsys):
    """The spot check's 21-node rule is its only rule: a NaN weight fails gk.moments."""
    build_rule = QuadratureRule.gauss_laguerre

    def broken_laguerre(n):
        rule = build_rule(n)
        log_weights = rule.log_weights.copy()
        log_weights[-1] = math.nan
        return QuadratureRule(nodes=rule.nodes, log_weights=log_weights)

    monkeypatch.setattr(QuadratureRule, "gauss_laguerre", staticmethod(broken_laguerre))
    start = time.perf_counter()
    rc, out, err = run(["verify"] + SMALL + ["--family1", "factorial", "--family2",
                                             "factorial"], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failed == {"gk.moments.J.factorial", "gk.moments.S.factorial"}
    assert all(f"check failed: {name}: residual nan" in err for name in failed)


def test_sweep_resonant_csv_golden(capsys):
    argv = ["sweep", "--gamma-f-min", "7", "--gamma-f-max", "8",
            "--gamma-f-steps", "5", "--resonant"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    assert out == ("gamma_s,gamma_f,m0,k0_star,d_min\n"
                   "7,7,3,3,2\n"
                   "7.25,7.25,3,3,2\n"
                   "7.5,7.5,4,4,3\n"
                   "7.75,7.75,4,4,3\n"
                   "8,8,4,4,3\n")


def _reference_csv(points):
    """The sweep CSV built row by row from the scalar M0, 12 significant digits."""
    lines = ["gamma_s,gamma_f,m0,k0_star,d_min"]
    for gf, gs in points:
        m0 = code_construction.minimal_m0_from_rates(float(gf), float(gs))
        k0 = max(3, m0)
        lines.append(f"{gs:.12g},{gf:.12g},{m0},{k0},{k0 - 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags, points", [
    (["--resonant", "--gamma-f-min", "7", "--gamma-f-max", "8",
      "--gamma-f-steps", "5"],
     [(g, g) for g in np.linspace(7.0, 8.0, 5)]),
    (["--resonant", "--gamma-f-min", "0.5", "--gamma-f-max", "16",
      "--gamma-f-steps", "1551"],
     [(g, g) for g in np.linspace(0.5, 16.0, 1551)]),
    (["--gamma-f-min", "2", "--gamma-f-max", "40", "--gamma-f-steps", "7",
      "--gamma-s-min", "0.5", "--gamma-s-max", "80", "--gamma-s-steps", "9"],
     [(gf, gs) for gf in np.linspace(2.0, 40.0, 7)
      for gs in np.linspace(0.5, 80.0, 9)]),
], ids=["readme", "resonant-1551-across-the-jump", "grid-detuned-both-ways"])
def test_sweep_csv_matches_the_scalar_rows(flags, points, capsys):
    rc, out, _ = run(["sweep"] + flags, capsys)
    assert rc == 0
    assert out == _reference_csv(points)


@pytest.mark.parametrize("chunk", [1, 7, 1550, 1551, 1 << 16])
def test_sweep_csv_is_the_same_in_every_chunk_size(chunk, monkeypatch, tmp_path, capsys):
    """The CSV is written _SWEEP_CHUNK rows at a time, to stdout or --out alike."""
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
    flags = ["sweep", "--resonant", "--gamma-f-min", "0.5", "--gamma-f-max", "16",
             "--gamma-f-steps", "1551"]
    want = _reference_csv([(g, g) for g in np.linspace(0.5, 16.0, 1551)])
    assert run(flags, capsys) == (0, want, "")
    target = tmp_path / "rows.csv"
    assert run(flags + ["--out", str(target)], capsys) == (0, "", "")
    assert target.read_text() == want


@settings(max_examples=60, deadline=None)
@given(steps_f=st.integers(1, 12), steps_s=st.integers(1, 12), data=st.data())
def test_grid_sweep_csv_is_the_same_in_every_chunk_size(steps_f, steps_s, data):
    """A grid's rows are written _SWEEP_CHUNK at a time, chunks ending anywhere in
    a gamma_f row, rows longer than a chunk included; stdout and --out alike."""
    chunk = data.draw(st.integers(1, steps_f * steps_s + 1), label="chunk")
    flags = ["sweep", "--gamma-f-min", "2", "--gamma-f-max", "40",
             "--gamma-f-steps", str(steps_f), "--gamma-s-min", "0.5",
             "--gamma-s-max", "80", "--gamma-s-steps", str(steps_s)]
    want = _reference_csv([(gf, gs) for gf in np.linspace(2.0, 40.0, steps_f)
                           for gs in np.linspace(0.5, 80.0, steps_s)])
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_SWEEP_CHUNK", chunk):
        target = os.path.join(tmp, "rows.csv")
        for argv in (flags, flags + ["--out", target]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            assert out.getvalue() == ("" if "--out" in argv else want)
        with open(target) as fh:
            assert fh.read() == want


@pytest.mark.parametrize("argv, message", [
    (["mindim", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
      "--reference-omega-f", "3"], "the frequency triple or the rate pair"),
    (["mindim", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
      "--config", "REFERENCE_CONFIG"], "the frequency triple or the rate pair"),
    (["gk-dump", "--gamma-f", "0.7", "--gamma-s", "0.875", "--hz"], "--hz needs a frequency"),
    (["mindim", "--gamma-f", "8", "--gamma-s", "8", "--config", "HZ_CONFIG"],
     "--hz needs a frequency"),
], ids=["reference-with-triple", "reference-config-with-triple", "hz-with-rates",
        "hz-config-with-rates"])
def test_a_system_flag_the_group_cannot_read_is_a_usage_error(argv, message, tmp_path,
                                                              capsys):
    """--reference-omega-f belongs to the rate pair and --hz converts a frequency, so
    the triple with a reference and a bare rate pair with --hz are refused, from
    flags or a config file, where either flag would otherwise go unread."""
    configs = {"REFERENCE_CONFIG": "reference-omega-f = 3\n", "HZ_CONFIG": "hz = true\n"}
    for name, body in configs.items():
        (tmp_path / name).write_text("[system]\n" + body)
    argv = [str(tmp_path / a) if a in configs else a for a in argv]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_hz_scales_the_reference_frequency(capsys):
    """--hz multiplies --reference-omega-f by 2 pi as it does the triple: the rates
    0.7 / 0.875 at a reference of 2 Hz are the triple 2 / 1.6 / 1.4 in Hz, bit for
    bit, and not the triple in rad/s."""
    rates = ["gk-dump", "--gamma-f", "0.7", "--gamma-s", "0.875", "--reference-omega-f", "2"]
    triple = ["gk-dump", "--omega-f", "2", "--omega-s", "1.6", "--kappa", "1.4"]
    hz = run(rates + ["--hz"], capsys)
    assert hz == run(triple + ["--hz"], capsys) and hz[0] == 0
    assert run(rates, capsys) == run(triple, capsys) != hz


@pytest.mark.parametrize("s_flags", [
    ["--gamma-s-min", "100", "--gamma-s-max", "200", "--gamma-s-steps", "3"],
    ["--gamma-s-steps", "3"],
    ["--config", "GRID_CONFIG"],
], ids=["all-flags", "one-flag", "config"])
def test_resonant_sweep_refuses_gamma_s_flags(s_flags, monkeypatch, tmp_path, capsys):
    """--resonant sets gamma_s = gamma_f, so a gamma_s axis from flags or a config
    file is a usage error, raised before any axis is built."""
    def no_axis(*_):
        raise AssertionError("the rate axis was built")
    monkeypatch.setattr(code_construction, "_rate_axis", no_axis)
    config = tmp_path / "grid.ini"
    config.write_text("[sweep]\ngamma-s-min = 100\ngamma-s-max = 200\n")
    s_flags = [str(config) if a == "GRID_CONFIG" else a for a in s_flags]
    rc, out, err = run(["sweep", "--resonant", "--gamma-f-min", "7", "--gamma-f-max", "8",
                        "--gamma-f-steps", "2"] + s_flags, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --resonant") and "--gamma-s-min" in err


def test_sweep_with_an_unresolvable_row_writes_nothing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    rc, out, err = run(["sweep", "--resonant", "--gamma-f-min", "1", "--gamma-f-max",
                        "1e9", "--gamma-f-steps", "3", "--out", str(target)], capsys)
    assert rc == 2 and out == "" and "not resolvable" in err
    assert not target.exists()


@pytest.mark.parametrize("flags, rows", [
    (["--resonant", "--gamma-f-steps", "1000000000000"], 10 ** 12),
    (["--gamma-f-steps", "10000", "--gamma-s-min", "1", "--gamma-s-max", "2",
      "--gamma-s-steps", "10000"], 10 ** 8),
], ids=["resonant-1e12", "grid-1e4x1e4"])
def test_sweep_row_cap_is_a_usage_error(flags, rows, monkeypatch, capsys):
    def no_axis(*_):
        raise AssertionError("the rate axis was built")
    monkeypatch.setattr(code_construction, "_rate_axis", no_axis)
    rc, out, err = run(["sweep", "--gamma-f-min", "1", "--gamma-f-max", "2"] + flags,
                       capsys)
    assert rc == 2 and out == ""
    assert f"{rows} rows exceeds the cap of 1000000" in err


def test_sweep_grid_row_order(capsys):
    argv = ["sweep", "--gamma-f-min", "0.5", "--gamma-f-max", "1",
            "--gamma-f-steps", "2", "--gamma-s-min", "0.5",
            "--gamma-s-max", "1", "--gamma-s-steps", "2"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma_s,gamma_f,m0,k0_star,d_min"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.5", "0.5", "1", "1"]
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.5", "1", "0.5", "1"]


@pytest.mark.parametrize("argv", [
    ["mindim"] + STRONG,
    ["sweep", "--resonant", "--gamma-f-min", "1", "--gamma-f-max", "2",
     "--gamma-f-steps", "3"],
    ["verify"] + SMALL,
], ids=["mindim", "sweep", "verify"])
@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_is_a_usage_error(argv, target, tmp_path, capsys):
    path = tmp_path / target
    rc, out, err = run(argv + ["--out", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot open output file {path}: ")
    assert not any(tmp_path.iterdir())  # a refused command writes nothing


@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_is_refused_before_the_work(target, monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(code_construction, "decompose",
                        lambda *args, **kwargs: calls.append("decompose"))
    monkeypatch.setattr(cli, "run_verification",
                        lambda cfg: calls.append("run_verification"))
    rc, out, err = run(["verify"] + SMALL + ["--out", str(tmp_path / target)], capsys)
    assert (rc, out, calls) == (2, "", [])
    assert err.startswith("error: cannot open output file ")


@pytest.mark.parametrize("argv, rc", [
    (["demo"] + SMALL + ["--k0", "2"], 1),  # decompose refuses the cut
    (["verify", "--gamma-f", "8", "--gamma-s", "8", "--n-fock", "5"], 2),  # no headroom
], ids=["check-failed", "usage-error"])
def test_a_refused_command_leaves_out_as_it_was(argv, rc, tmp_path, capsys):
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("earlier output\n")
    assert run(argv + ["--out", str(kept)], capsys)[:2] == (rc, "")
    assert run(argv + ["--out", str(new)], capsys)[:2] == (rc, "")
    assert kept.read_text() == "earlier output\n"  # not truncated
    assert sorted(tmp_path.iterdir()) == [kept]  # and nothing made


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    argv = ["sweep", "--gamma-f-min", "1", "--gamma-f-max", "2",
            "--gamma-f-steps", "3", "--resonant", "--out", str(target)]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("gamma_s,gamma_f,")
    assert text.endswith("\n")


def test_sweep_missing_flags(capsys):
    rc, _, err = run(["sweep", "--gamma-f-min", "1"], capsys)
    assert rc == 2
    assert "sweep needs" in err
    rc, _, err = run(["sweep", "--gamma-f-min", "1", "--gamma-f-max", "2",
                      "--gamma-f-steps", "3"], capsys)
    assert rc == 2
    rc, _, err = run(["sweep", "--gamma-f-min", "2", "--gamma-f-max", "1",
                      "--gamma-f-steps", "3", "--resonant"], capsys)
    assert rc == 2


def test_verify_passes_and_schema(capsys):
    rc, out, _ = run(["verify"] + SMALL, capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["overall_pass"] is True
    names = [c["name"] for c in report["checks"]]
    for expected in ("spectrum.eigen_residual", "spectrum.gram_identity",
                     "graph.identity_membership", "graph.anticlique",
                     "channel.trace_preservation", "channel.code_fidelity",
                     "channel.leak_control"):
        assert expected in names
    for c in report["checks"]:
        assert set(c) == {"name", "residual", "tolerance", "pass",
                          "alpha_re", "alpha_im"}
        assert c["pass"] is True


def _expected_checks(family, family2=None):
    ladder = [(f"gk.{kind}.{label}{suffix}", tol)
              for label, fam in (("J", family), ("S", family2 or family))
              for kind, suffix, tol in (("moments", f".{fam}", 1e-8),
                                        ("resolution", f".{fam}", 1e-6),
                                        ("temporal_stability", "", 1e-9))]
    return ([("spectrum.eigen_residual", 1e-10), ("spectrum.gram_identity", 1e-10)]
            + ladder
            + [("graph.identity_membership", 1e-6), ("graph.anticlique", 1e-8),
               ("graph.anticlique_alpha_zero", 1e-10),
               ("graph.anticlique_alpha_identity", 1e-10),
               ("channel.trace_preservation", 1e-10), ("channel.code_fidelity", 1e-8),
               ("channel.leak_control", 1e-12)])


@pytest.mark.parametrize("family,n_fock", [("factorial", 30), ("factorial", 60),
                                           ("factorial", 160), ("uniform_moment", 30)])
@pytest.mark.parametrize("omega_s", ["0.8", "1.2", "1"])  # delta > 0, < 0, = 0
def test_verify_keeps_its_checks_and_passes(capsys, family, n_fock, omega_s):
    rc, out, _ = run(["verify", "--omega-f", "1", "--omega-s", omega_s, "--kappa", "0.7",
                      "--family1", family, "--family2", family,
                      "--n-fock", str(n_fock)], capsys)
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["tolerance"]) for c in checks] == _expected_checks(family)
    assert all(c["pass"] and c["residual"] < c["tolerance"] for c in checks)
    assert rc == 0


def test_verify_mixed_families_sample_both_domains(capsys):
    # the leak probe's x must lie in both families' domains
    rc, out, _ = run(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                      "--family1", "factorial", "--family2", "uniform_moment",
                      "--n-fock", "40"], capsys)
    checks = json.loads(out)["checks"]
    assert ([(c["name"], c["tolerance"]) for c in checks]
            == _expected_checks("factorial", "uniform_moment"))
    assert all(c["pass"] and c["residual"] < c["tolerance"] for c in checks)
    assert rc == 0


@pytest.mark.parametrize("argv, failure, reason", [
    (STRONG + ["--k0", "3", "--n-fock", "20"], "gk.energy_order",
     "; S ladder not strictly increasing: h[1] - h[0] = -"),
    (["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", "--n-fock", "20",
      "--k0", "2"], "code.cut_constraint",
     "; k0 = 2 below the admissible minimum max(3, M0) = 3 (M0 = 1)\n"),
], ids=["gk.energy_order", "code.cut_constraint"])
def test_verify_detects_bad_cut(capsys, argv, failure, reason):
    """A refused cut ends the report: the spectrum records, then its failure,
    whose stderr line ends with decompose's reason."""
    rc, out, err = run(["verify"] + argv, capsys)
    assert rc == 1
    report = json.loads(out)
    assert report["overall_pass"] is False
    names = [c["name"] for c in report["checks"]]
    assert names == ["spectrum.eigen_residual", "spectrum.gram_identity", failure]
    bad = report["checks"][-1]
    assert bad["pass"] is False
    assert bad["residual"] > 0
    assert err.startswith(f"check failed: {failure}: residual ")
    assert reason in err and err.count("\n") == 1


# the README cavity point fails spectrum.eigen_residual, an absolute 1e-10 against
# energies near 1e13, until its tolerance is relative (ROADMAP item 10(b))
CAVITY = ["--omega-f", "51.1e9", "--omega-s", "51.1e9", "--kappa", "47e3", "--hz",
          "--n-fock", "20"]


def test_verify_names_each_failing_check_on_stderr(capsys):
    rc, out, err = run(["verify"] + CAVITY, capsys)
    assert rc == 1
    checks = json.loads(out)["checks"]
    failing = [c for c in checks if not c["pass"]]
    assert "spectrum.eigen_residual" in [c["name"] for c in failing]
    lines = err.splitlines()
    assert len(lines) == len(failing)
    for c, line in zip(failing, lines):
        assert line.startswith(f"check failed: {c['name']}: residual ")
        ratio = c["residual"] / c["tolerance"]
        assert line.endswith(f"tolerance {c['tolerance']:.3e}, "
                             f"residual/tolerance {ratio:.3g}")
    # a passing run writes nothing to stderr, and lists the same checks
    _, passing, err = run(["verify"] + SMALL, capsys)
    assert err == ""
    assert [c["name"] for c in json.loads(passing)["checks"]] == [c["name"] for c in checks]


def test_verify_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify"] + SMALL + ["--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family", ["factorial", "uniform_moment"])
def test_verify_report_does_not_depend_on_the_seed(capsys, family):
    # the code-state channel records are a certificate, not a sample, and the
    # leak probe's records read 0 at any (x, t) the seed draws
    argv = ["verify"] + SMALL + ["--family1", family, "--family2", family]
    reports = [run(argv + ["--seed", seed], capsys) for seed in ("1", "2", "3")]
    assert [rc for rc, _, _ in reports] == [0, 0, 0]
    assert reports[0][1] == reports[1][1] == reports[2][1]


def test_demo_random_state(capsys):
    # the default x is half the radius both families share: with factorial
    # (R = inf) on J and uniform_moment (R = 1) on S it is 0.5, not 1
    mixed = ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", "--n-fock", "20",
             "--family1", "factorial", "--family2", "uniform_moment"]
    for argv in (SMALL, mixed):
        rc, out, _ = run(["demo"] + argv, capsys)
        assert rc == 0
        assert out == "1.000000000000\n"


def test_demo_basis_and_amplitude_states(capsys):
    rc, out, _ = run(["demo"] + SMALL + ["--state", "basis1"], capsys)
    assert rc == 0 and out == "1.000000000000\n"
    rc, out, _ = run(["demo"] + SMALL + ["--state", "0.6,0.8"], capsys)
    assert rc == 0 and out == "1.000000000000\n"
    # scaled by the largest modulus first: the norm itself would overflow
    rc, out, _ = run(["demo"] + SMALL + ["--state", "1e308,1e308"], capsys)
    assert rc == 0 and out == "1.000000000000\n"


def test_demo_leak_negative_control(capsys):
    rc, out, _ = run(["demo"] + SMALL + ["--allow-leak"], capsys)
    assert rc == 1
    assert abs(float(out) - 0.5) < 1e-9


def test_demo_state_validation(capsys):
    rc, _, err = run(["demo"] + SMALL + ["--state", "basis9"], capsys)
    assert rc == 2
    rc, _, err = run(["demo"] + SMALL + ["--state", "spam"], capsys)
    assert rc == 2
    rc, _, err = run(["demo"] + SMALL + ["--state", "1,0,0"], capsys)
    assert rc == 2
    assert "amplitudes" in err


@pytest.mark.parametrize("x, cutoff", [("2000", "N >= 2275"), ("1e6", "no certified cutoff")])
def test_demo_beyond_the_ladder_fails_as_check(x, cutoff):
    """Every kept coefficient underflows at x = 2000 and 1e6: one stderr line, no
    traceback, from ``demo`` and from ``gk-dump``, which has no zero vector to
    dump.  At 1e6 no tail bound is certified, so no cutoff is named."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    point = ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7", "--n-fock", "160",
             "--family1", "factorial"]
    for argv in (["demo"] + point + ["--family2", "factorial", "--x", x, "--t", "1"],
                 ["gk-dump"] + point + ["--xs", x]):
        done = subprocess.run([sys.executable, "-m", "jcgraph.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1 and done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("check failed: the J ladder keeps no coefficient mass")
        assert done.stderr.rstrip().endswith(cutoff)
        assert done.stderr.count("\n") == 1


def test_demo_inadmissible_cut_fails_as_check(capsys):
    rc, _, err = run(["demo"] + SMALL + ["--k0", "2"], capsys)
    assert rc == 1
    assert "check failed" in err


def test_demo_cut_below_m0_names_the_ladder_gap(capsys):
    # decompose checks the ladders before the closed-form bound k0 >= max(3, M0)
    rc, out, err = run(["demo"] + STRONG + ["--k0", "3", "--n-fock", "20"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("check failed: S ladder not strictly increasing")


@pytest.mark.parametrize("k0", ["1", "2"])
def test_gk_dump_inadmissible_cut_fails_as_check(capsys, k0):
    rc, out, err = run(["gk-dump"] + SMALL + ["--k0", k0], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"check failed: k0 = {k0} below the admissible minimum")


def test_gk_dump_schema(capsys):
    argv = ["gk-dump"] + SMALL + ["--which", "S", "--xs", "0,0.4", "--ys", "0,1"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    d = json.loads(out)
    assert d["label"] == "S"
    assert d["R"] == 1.0
    assert len(d["coefficients"]) == 4
    norms = np.array(d["coefficients"][0]["re"]) ** 2
    assert abs(norms.sum() - 1.0) < 1e-12  # x = 0 keeps everything in k = 0


def test_gk_dump_is_strict_json(capsys):
    """c_k = k! overflows a double beyond k = 170: those weights dump as null."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    rc, out, _ = run(["gk-dump", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                      "--family1", "factorial", "--n-fock", "200"], capsys)
    assert rc == 0
    weights = json.loads(out, parse_constant=refuse)["weights"]
    assert len(weights) == 200
    assert weights[170] == float(math.factorial(170))
    assert weights[171:] == [None] * 29


def test_gk_dump_validation(capsys):
    rc, _, err = run(["gk-dump"] + SMALL + ["--xs", "1.5"], capsys)
    assert rc == 2
    rc, _, err = run(["gk-dump"] + SMALL + ["--which", "Q"], capsys)
    assert rc == 2


def test_config_file_supplies_parameters(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\ngamma_f = 8\ngamma_s = 8\n\n[run]\nn-fock = 20\n")
    rc, out, _ = run(["mindim", "--config", str(cfg)], capsys)
    assert rc == 0
    assert json.loads(out)["m0"] == 4


def test_config_flags_take_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\ngamma_f = 8\ngamma_s = 8\n")
    rc, out, _ = run(["mindim", "--config", str(cfg),
                      "--gamma-f", "0.1", "--gamma-s", "0.1"], capsys)
    assert rc == 0
    assert json.loads(out)["m0"] == 1


def test_config_file_errors(tmp_path, capsys):
    rc, _, err = run(["mindim", "--config", str(tmp_path / "missing.ini")], capsys)
    assert rc == 2
    assert "not found" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[x]\nbogus = 1\n")
    rc, _, err = run(["mindim", "--config", str(bad)], capsys)
    assert rc == 2
    assert "bogus" in err
    weird = tmp_path / "weird.ini"
    weird.write_text("[x]\nhz = maybe\n")
    rc, _, err = run(["mindim", "--config", str(weird),
                      "--omega-f", "1", "--omega-s", "1", "--kappa", "0.5"], capsys)
    assert rc == 2
    # bytes that are not UTF-8
    bad.write_bytes(b"\xff\xfe\x00bad = \xff")
    rc, out, err = run(["mindim"] + STRONG + ["--config", str(bad)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {bad}")


def test_config_values_are_literal(tmp_path, capsys):
    """A '%' in a config value is kept as written, as it is in a flag."""
    out = tmp_path / "res%1.txt"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[system]\ngamma_f = 8\ngamma_s = 8\n\n[run]\nout = {out}\n")
    rc, stdout, _ = run(["mindim", "--config", str(cfg)], capsys)
    assert rc == 0 and stdout == ""
    assert json.loads(out.read_text())["m0"] == 4
    cfg.write_text("[run]\nstate = 50%\n")
    rc, _, err = run(["demo"] + SMALL + ["--config", str(cfg)], capsys)
    assert rc == 2
    assert "cannot parse state '50%'" in err


SYSTEM = {"omega_f", "omega_s", "kappa", "gamma_f", "gamma_s", "reference_omega_f", "hz"}
STATES = SYSTEM | {"k0", "n_fock", "family1", "family2"}
# every command's flags and config keys: what it reads, --out, and the seed and
# n_fock that the benchmark's command lines pass
TABLES = {
    "mindim": SYSTEM | {"n_fock", "seed", "out"},
    "sweep": {"gamma_f_min", "gamma_f_max", "gamma_f_steps", "gamma_s_min", "gamma_s_max",
              "gamma_s_steps", "resonant", "seed", "out"},
    "verify": STATES | {"seed", "out"},
    "demo": STATES | {"seed", "x", "t", "state", "allow_leak", "out"},
    "gk-dump": STATES | {"which", "xs", "ys", "out"},
}
FOREIGN = [(command, key) for command, keys in TABLES.items()
           for key in sorted(set().union(*TABLES.values()) - keys)]


def test_each_command_has_its_own_key_table():
    assert {command: set(keys) for command, keys in cli._KEYS.items()} == TABLES


@pytest.mark.parametrize("command, key", FOREIGN, ids=[f"{c}-{k}" for c, k in FOREIGN])
def test_a_command_refuses_every_key_outside_its_table(command, key, tmp_path, capsys):
    """A key outside the command's table is refused, as a flag and as a config key."""
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "1"], capsys)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key} = 1\n")
    rc, out, err = run([command, "--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert f"error: unknown config key '{key}' in [run]" in err


@pytest.mark.parametrize("command", TABLES)
def test_no_command_takes_a_tolerance(command, tmp_path, capsys):
    """verify's records have fixed tolerances, graph.anticlique's 1e-8 too: --tol is
    refused by every command, as a flag and as a config key."""
    with pytest.raises(SystemExit) as exc:
        run([command, "--tol", "1e-8"], capsys)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ntol = 1e-8\n")
    rc, out, err = run([command, "--config", str(cfg)], capsys)
    assert (rc, out, err) == (2, "", "error: unknown config key 'tol' in [run]\n")


@pytest.mark.parametrize("argv, foreign", [
    (["sweep", "--resonant", "--gamma-f-min", "7", "--gamma-f-max", "8", "--gamma-f-steps",
      "2"], "--omega-f 3 --hz --k0 9 --family1 nosuch"),
    (["verify"] + SMALL, "--t 1e9"),
    (["gk-dump"] + SMALL, "--x 0.2"),
    (["mindim"] + STRONG, "--ref 3"),
], ids=["sweep-system-flags", "verify-t-for-tol", "gk-dump-x-for-xs", "mindim-ref"])
def test_a_flag_is_never_read_as_another_or_dropped(argv, foreign, capsys):
    """Flags match exactly: no prefix of a flag stands for it (--x is not --xs), and a
    flag the command does not take (verify's --t, sweep's system flags) is refused."""
    with pytest.raises(SystemExit) as exc:
        run(argv + foreign.split(), capsys)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {foreign}\n")


@pytest.mark.parametrize("body, message", [
    ("[run]\nx = 0.5\nwhich = S\nresonant = true\n", "unknown config key 'x' in [run]"),
    ("[a]\ngamma_f = 8\ngamma_s = 8\n\n[b]\ngamma_f = 1\n",
     "config key 'gamma_f' in [b] repeats the one in [a]"),
    ("[run]\nn-fock = 40\nn_fock = 20\n", "config key 'n_fock' in [run] repeats the one in [run]"),
], ids=["foreign-keys", "repeated-across-sections", "repeated-as-hyphen-and-underscore"])
def test_a_foreign_or_repeated_config_key_is_refused(body, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    rc, out, err = run(["verify"] + SMALL + ["--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


def test_a_default_section_is_read_like_any_other(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\ngamma_f = 8\ngamma_s = 8\n")
    rc, out, _ = run(["mindim", "--config", str(cfg)], capsys)
    assert rc == 0 and json.loads(out)["m0"] == 4
    cfg.write_text("[DEFAULT]\ngamma_f = 8\n\n[a]\ngamma_s = 8\n\n[b]\nn_fock = 20\n")
    rc, out, _ = run(["mindim", "--config", str(cfg)], capsys)
    assert rc == 0 and json.loads(out)["m0"] == 4


@pytest.mark.parametrize("command", TABLES)
def test_a_flag_and_its_config_key_read_the_same_value(command, tmp_path):
    """Each key's one reader reads --key V and key = V alike."""
    parser = cli.build_parser()
    for key, reader in cli._KEYS[command].items():
        flag = "--" + key.replace("_", "-")
        raw = {float: "0.25", int: "3", str: "J", cli._boolean: None}[reader]
        cfg = tmp_path / f"{key}.ini"
        cfg.write_text(f"[run]\n{key} = {'yes' if raw is None else raw}\n")
        from_flag = cli._merged(parser.parse_args([command, flag] + ([raw] if raw else [])))
        from_file = cli._merged(parser.parse_args([command, "--config", str(cfg)]))
        assert from_flag == from_file and list(from_flag) == [key], key
        assert [type(v) for v in from_flag.values()] == [type(v) for v in from_file.values()]


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
    rc, _, _ = run(["demo"] + SMALL + ["--allow-leak"], capsys)
    assert rc == 1
    rc, out, _ = run(["demo"] + SMALL, capsys)
    assert rc == 0 and out == "1.000000000000\n"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\ngamma_f = 8\ngamma_s = 8\n")
    rc, out, _ = run(["mindim", "--config", str(cfg)], capsys)
    assert rc == 0 and json.loads(out)["m0"] == 4
    rc, _, err = run(["mindim"], capsys)
    assert rc == 2
    assert "system parameters required" in err
    dest = tmp_path / "mindim.json"
    rc, out, _ = run(["mindim"] + STRONG + ["--out", str(dest)], capsys)
    assert rc == 0 and out == ""
    rc, out, _ = run(["mindim"] + STRONG, capsys)
    assert rc == 0 and out == dest.read_text()


_RUN_AND_REPORT = """
import sys
from jcgraph import cli
rc = cli.main(sys.argv[1:])
sys.stderr.write(f"\\n{rc} {'scipy' in sys.modules} {'numpy.random' in sys.modules}\\n")
"""


@pytest.mark.parametrize("argv, rc", [
    (["mindim"] + STRONG, 0),
    (["sweep", "--resonant", "--gamma-f-min", "7", "--gamma-f-max", "8",
      "--gamma-f-steps", "5"], 0),
    (["demo"] + SMALL, 0),
    (["demo"] + SMALL + ["--state", "basis1"], 0),
    (["demo"] + SMALL + ["--state", "1,2j"], 0),
    (["demo"] + SMALL + ["--allow-leak"], 1),
    (["gk-dump"] + SMALL, 0),
    (["verify"] + SMALL, 0),
], ids=["mindim", "sweep", "demo", "demo-basis1", "demo-amplitudes", "demo-leak",
        "gk-dump", "verify"])
def test_no_command_loads_scipy(argv, rc):
    """scipy costs about 0.3 s to import; the quadrature rules are numpy only.  Nor
    does a command load ``numpy.random`` (about 5 MB), which numpy >= 2 imports
    lazily: ``demo --state random`` draws with the standard library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, scipy_loaded, random_loaded = done.stderr.splitlines()[-1].split()
    assert (code, scipy_loaded) == (str(rc), "False"), done.stderr
    if int(np.__version__.split(".")[0]) >= 2:  # numpy 1 imports numpy.random eagerly
        assert random_loaded == "False", done.stderr


def test_demo_draws_a_seeded_unit_code_state(monkeypatch, capsys):
    """``demo --state random`` draws a normalized complex Gaussian on the code's
    dressed indices from ``random.Random(seed)``: one state per seed."""
    states = []
    dephase = cli.gv.dephase_pure_state

    def captured(families, ladders, v):
        states.append(v.copy())
        return dephase(families, ladders, v)
    monkeypatch.setattr(cli.gv, "dephase_pure_state", captured)
    for seed in ("3", "3", "4"):
        assert run(["demo"] + SMALL + ["--seed", seed], capsys)[0] == 0
    a, again, b = states
    assert np.array_equal(a, again) and not np.allclose(a, b)
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 1.0, "kappa": 0.5,
                                  "n_fock": 20})
    code = code_construction.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    off = np.ones(a.size, dtype=bool)
    off[code.h3_indices[:-1]] = False
    for v in (a, b):
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert not v[off].any()


@pytest.mark.parametrize("extra, rc", [
    (["--state", "basis1"], 0), (["--state", "1,2j"], 0), (["--allow-leak"], 1),
], ids=["basis1", "amplitudes", "leak"])
def test_a_demo_that_draws_nothing_builds_no_generator(monkeypatch, capsys, extra, rc):
    """With ``random.Random`` raising, every demo but ``--state random`` answers."""
    plain = run(["demo"] + SMALL + extra, capsys)

    def refused(*args, **kwargs):
        raise AssertionError("demo built a random generator")
    monkeypatch.setattr(cli.random, "Random", refused)
    assert run(["demo"] + SMALL + extra, capsys) == plain and plain[0] == rc
    with pytest.raises(AssertionError, match="built a random generator"):
        main(["demo"] + SMALL)


@pytest.mark.parametrize("argv, rc", [
    (["mindim"] + STRONG, 0),
    (["demo"] + SMALL, 0),
    (["demo"] + SMALL + ["--allow-leak"], 1),
    (["gk-dump"] + SMALL, 0),
    (["verify"] + SMALL, 0),
    (["verify", "--gamma-f", "8", "--gamma-s", "8", "--k0", "3", "--n-fock", "20"], 1),
], ids=["mindim", "demo", "demo-leak", "gk-dump", "verify", "verify-cut-below-m0"])
def test_every_command_evaluates_m0_once(argv, rc, monkeypatch, capsys):
    calls = []
    minimal_m0 = code_construction.minimal_m0

    def counted(params):
        calls.append(params)
        return minimal_m0(params)
    monkeypatch.setattr(code_construction, "minimal_m0", counted)
    assert run(argv, capsys)[0] == rc
    assert len(calls) == 1


def test_usage_errors(capsys, tmp_path):
    # both parameter groups at once
    rc, _, _ = run(["mindim", "--omega-f", "1", "--omega-s", "1",
                    "--kappa", "0.5", "--gamma-f", "1"], capsys)
    assert rc == 2
    # incomplete frequency triple
    rc, _, err = run(["mindim", "--omega-f", "1", "--kappa", "0.5"], capsys)
    assert rc == 2
    assert "missing" in err
    # no parameters at all
    rc, _, _ = run(["mindim"], capsys)
    assert rc == 2
    # unknown weight family
    rc, _, _ = run(["verify"] + WEAK + ["--family1", "nosuch"], capsys)
    assert rc == 2
    # not enough truncation headroom
    rc, _, err = run(["verify"] + WEAK + ["--n-fock", "12"], capsys)
    assert rc == 2
    assert "headroom" in err
    # the node count is no option: the rule is sized from the ladder; nor is
    # the tail tolerance: the library default holds
    for flag, key, value in (("--nodes", "nodes", "200"),
                             ("--tail-tol", "tail_tol", "1e-9")):
        with pytest.raises(SystemExit) as exc:
            run(["verify"] + WEAK + [flag, value], capsys)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg = tmp_path / f"{key}.ini"
        cfg.write_text(f"[run]\n{key} = {value}\n")
        rc, _, err = run(["verify"] + WEAK + ["--config", str(cfg)], capsys)
        assert rc == 2
        assert f"unknown config key '{key}'" in err
    # nonsense cut
    rc, _, err = run(["verify"] + WEAK + ["--k0", "0"], capsys)
    assert rc == 2
    assert "k0 must be >= 1" in err
