"""End-to-end tests of the command line interface (in-process)."""
import json
import time

import numpy as np
import pytest

from jcgraph.cli import main

WEAK = ["--gamma-f", "0.1", "--gamma-s", "0.1"]
STRONG = ["--gamma-f", "8", "--gamma-s", "8"]
SMALL = ["--omega-f", "1", "--omega-s", "1", "--kappa", "0.5", "--n-fock", "20"]


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
    ["gk-dump"] + SMALL + ["--ys", "0,nan"],
    ["gk-dump"] + SMALL + ["--ys", "inf"],
    ["verify"] + SMALL + ["--tol", "nan"],
    ["verify"] + SMALL + ["--tol", "-1"],
    ["verify"] + SMALL + ["--tol", "inf"],
], ids=["omega-nan", "gamma-inf", "sweep-nan", "gamma-1e15", "gamma-1e160",
        "demo-t-nan", "demo-t-inf", "demo-x-nan", "demo-x-inf", "dump-y-nan",
        "dump-y-inf", "tol-nan", "tol-negative", "tol-inf"])
def test_bad_rates_fail_fast(argv, capsys):
    start = time.perf_counter()
    rc, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == "" and err.startswith("error:")


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


def _expected_checks(family):
    ladder = [(f"gk.{kind}.{label}{suffix}", tol)
              for label in ("J", "S")
              for kind, suffix, tol in (("moments", f".{family}", 1e-8),
                                        ("resolution", f".{family}", 1e-6),
                                        ("temporal_stability", "", 1e-9))]
    return ([("spectrum.eigen_residual", 1e-10), ("spectrum.gram_identity", 1e-10),
             ("gk.ladder_increasing", 1e-12)] + ladder
            + [("graph.identity_membership", 1e-6), ("graph.anticlique", 1e-8),
               ("graph.anticlique_alpha_zero", 1e-10),
               ("graph.anticlique_alpha_identity", 1e-10),
               ("channel.trace_preservation", 1e-10), ("channel.positivity", 1e-9),
               ("channel.code_fidelity", 1e-8), ("channel.leak_control", 1e-12)])


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


def test_verify_detects_bad_cut(capsys):
    rc, out, _ = run(["verify"] + STRONG + ["--k0", "3", "--n-fock", "20"], capsys)
    assert rc == 1
    report = json.loads(out)
    assert report["overall_pass"] is False
    names = [c["name"] for c in report["checks"]]
    assert "gk.energy_order" in names
    bad = next(c for c in report["checks"] if c["name"] == "gk.energy_order")
    assert bad["pass"] is False
    assert bad["residual"] > 0


def test_verify_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify"] + SMALL + ["--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_demo_random_state(capsys):
    rc, out, _ = run(["demo"] + SMALL, capsys)
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


def test_demo_inadmissible_cut_fails_as_check(capsys):
    rc, _, err = run(["demo"] + SMALL + ["--k0", "2"], capsys)
    assert rc == 1
    assert "check failed" in err


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


def test_usage_errors(capsys):
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
    # nonsense node count and cut
    rc, _, _ = run(["verify"] + WEAK + ["--nodes", "1"], capsys)
    assert rc == 2
    rc, _, _ = run(["mindim"] + WEAK + ["--k0", "0"], capsys)
    assert rc == 2
