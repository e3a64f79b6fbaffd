"""End-to-end tests of the command line interface (in-process)."""
import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from jcgraph import cli, code_construction, gk_states
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
    ["verify"] + SMALL + ["--tol", "nan"],
    ["verify"] + SMALL + ["--tol", "-1"],
    ["verify"] + SMALL + ["--tol", "inf"],
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
        "dump-y-inf", "tol-nan", "tol-negative", "tol-inf", "verify-seed-negative",
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
    rc, out, _ = run(["sweep"] + DEGENERATE + ["--resonant", "--gamma-f-min", "7",
                                               "--gamma-f-max", "8",
                                               "--gamma-f-steps", "5"], capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "8,8,4,4,3"


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
    # the KL and channel samples must lie in both families' domains
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


def test_verify_names_each_failing_check_on_stderr(capsys):
    rc, out, err = run(["verify"] + SMALL + ["--tol", "1e-40"], capsys)
    assert rc == 1
    checks = json.loads(out)["checks"]
    failing = [c for c in checks if not c["pass"]]
    assert "graph.anticlique" in [c["name"] for c in failing]
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


def test_demo_beyond_the_ladder_fails_as_check():
    """Every kept coefficient underflows at x = 2000: one stderr line, no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "jcgraph.cli", "demo", "--omega-f", "1", "--omega-s", "0.8",
         "--kappa", "0.7", "--n-fock", "160", "--family1", "factorial",
         "--family2", "factorial", "--x", "2000", "--t", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("check failed: the J ladder keeps no coefficient mass")
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


def test_config_keys_match_the_flags():
    """Each config key set names exactly the flags of its kind, over all subcommands."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    kinds = {}
    for action in (a for p in (parser, *sub.choices.values()) for a in p._actions):
        if action.dest in ("help", "command", "config"):
            continue
        if isinstance(action, argparse._StoreConstAction):
            kind = "store_const"
        else:
            kind = {float: "float", int: "int", None: "str"}[action.type]
        assert kinds.setdefault(action.dest, kind) == kind, action.dest
    key_sets = {"float": cli._FLOAT_KEYS, "int": cli._INT_KEYS,
                "store_const": cli._BOOL_KEYS, "str": cli._STR_KEYS}
    assert sum(map(len, key_sets.values())) == len(cli._ALL_KEYS)
    assert kinds == {key: kind for kind, keys in key_sets.items() for key in keys}


def test_demos_share_the_log_weight_tables(capsys):
    """The built-in families are module values, so a second demo builds no table."""
    argv = ["demo", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
            "--n-fock", "120"]
    run(argv, capsys)
    misses = gk_states._log_weights.cache_info().misses
    rc, _, _ = run(argv, capsys)
    assert rc == 0
    assert gk_states._log_weights.cache_info().misses == misses


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
sys.stderr.write(f"\\n{rc} {'scipy' in sys.modules}\\n")
"""


@pytest.mark.parametrize("argv, rc", [
    (["mindim"] + STRONG, 0),
    (["sweep", "--resonant", "--gamma-f-min", "7", "--gamma-f-max", "8",
      "--gamma-f-steps", "5"], 0),
    (["demo"] + SMALL, 0),
    (["demo"] + SMALL + ["--allow-leak"], 1),
    (["gk-dump"] + SMALL, 0),
    (["verify"] + SMALL, 0),
], ids=["mindim", "sweep", "demo", "demo-leak", "gk-dump", "verify"])
def test_no_command_loads_scipy(argv, rc):
    """scipy costs about 0.3 s to import; the quadrature rules are numpy only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr.splitlines()[-1] == f"{rc} False", done.stderr


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
    rc, _, _ = run(["mindim"] + WEAK + ["--k0", "0"], capsys)
    assert rc == 2
