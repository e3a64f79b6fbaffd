"""Tests of the benchmark itself: span arithmetic, oracles, tracer, smoke runs."""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
import worker
import workloads

if worker.SRC not in sys.path:
    sys.path.append(worker.SRC)

import jcgraph  # noqa: E402
from jcgraph import cli  # noqa: E402
from jcgraph import code_construction as cc  # noqa: E402
from jcgraph.jc_spectrum import JCParams  # noqa: E402


def _span(name, start, end, parent=None, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_children():
    tree = [
        _span(spans.OP, 0.0, 10.0),
        _span("cli.run_verification", 1.0, 9.0, parent=0),
        _span("gk_states.tail_safe_xmax", 2.0, 5.0, parent=1),
        _span("gk_states.tail_mass", 2.5, 3.0, parent=2),
        _span("gk_states.tail_mass", 3.0, 4.5, parent=2),
        _span("jc_spectrum.dressed_basis", 6.0, 8.0, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 1.0, 0.5, 1.5, 2.0])


def test_self_time_clips_overlapping_children():
    tree = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, parent=0),
            _span("c", 2.0, 5.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_ratios_and_errors():
    tree = [_span(spans.OP, 0.0, 4.0),
            _span("gk_states.tail_safe_xmax", 0.0, 3.0, parent=0),
            _span("gk_states.tail_mass", 0.0, 1.0, parent=1),
            _span("gk_states.tail_mass", 1.0, 2.0, parent=1),
            _span("jc_spectrum.dressed_basis", 3.0, 4.0, parent=0)]
    tree[3].error = True
    m = spans.layer_metrics(tree, overhead_frac=0.1)
    assert set(m) == set(spans.metric_units())
    assert m["gk_states.tail_mass.calls"] == 2
    assert m["gk_states.tail_mass.errors"] == 1
    assert m["gk_states.tail_safe_xmax.self_s"] == pytest.approx(1.0)
    assert m["gk_states.tail_mass_per_xmax"] == 2.0
    assert m["jc_spectrum.dressed_basis_per_op"] == 1.0
    assert m["trace.ops"] == 1


def _rate_grid():
    jump = oracle.RESONANT_JUMP
    gammas = [jump * (1.0 + e) for e in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    gammas += [0.02 * i for i in range(1, 600, 7)]  # 0.02 .. 12, across the jump
    gammas += [1e-12, 1e-9, 1e-6, 1e-3, 50.0, 333.3, 1000.0]  # kappa -> 0 edge
    return gammas


def test_oracle_matches_both_library_forms():
    gammas = _rate_grid()
    for gf in gammas:
        for gs in (gf, 0.5 * gf, 2.0 * gf, 7.0, 1e-6):
            want = cc.minimal_m0_from_rates(gf, gs)
            assert oracle.m0_oracle(gf, gs) == want, (gf, gs)
            p = JCParams.from_rates(gf, gs)
            pred = oracle.frequency_predicate(p.omega_f, p.omega_s, p.kappa)
            assert oracle.m0_oracle(p.gamma_f, p.gamma_s, pred) == cc.minimal_m0(p)


def test_oracle_resonant_jump_and_decoupling():
    jump = oracle.RESONANT_JUMP
    assert max(3, oracle.m0_oracle(math.nextafter(jump, 0), math.nextafter(jump, 0))) == 3
    assert oracle.m0_oracle(jump * (1 + 1e-12), jump * (1 + 1e-12)) == 4
    assert oracle.m0_oracle(0.0, 0.0) == cc.minimal_m0(JCParams(1.0, 0.8, 0.0)) == 1


def test_tracer_wraps_every_binding_and_restores_originals():
    modules = {n: m for n, m in sys.modules.items()
               if n == "jcgraph" or n.startswith("jcgraph.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    quad = dict(vars(jcgraph.QuadratureRule))
    original = cli.dressed_basis
    stream = workloads.units("verify-tails", seed=5, tiny=True)
    tracer = spans.Tracer()
    with tracer:
        assert cli.dressed_basis is not original
        assert jcgraph.dressed_basis is cli.dressed_basis
        records, _ = worker.run_units(cli.main, stream, 0.0, 1, tracer=tracer)
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert dict(vars(jcgraph.QuadratureRule)) == quad
    assert [r["error"] for r in records] == [None, None]
    names = [s.name for s in tracer.spans]
    # uniform_moment tails near the radius hit the term cap and raise.
    layers = spans.layer_metrics(tracer.spans, overhead_frac=0.0)
    assert layers["gk_states.tail_mass.errors"] > 0
    # Intra-module call tail_safe_xmax -> tail_mass is seen with its parent.
    child = next(s for s in tracer.spans if s.name == "gk_states.tail_mass")
    assert tracer.spans[child.parent].name == "gk_states.tail_safe_xmax"
    assert names.count(spans.OP) == 2
    assert "hilbert.quadrature" in names


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_unit_shows_only_expected_failures(name):
    stream = workloads.units(name, seed=3, tiny=True)
    records, unit_s = worker.run_units(cli.main, stream, 0.0, 1)
    assert unit_s == [pytest.approx(sum(r["seconds"] for r in records))]
    assert [r["error"] for r in records] == [None] * len(records)
    verdicts = [r["verdict_ok"] for r in records]
    # The README cavity point fails spectrum.eigen_residual (absolute 1e-10
    # tolerance against energies near 1e13); nothing else may fail.
    want = [True, False] if name == "verify-tails" else [True] * len(records)
    assert verdicts == want


def test_benchmark_file_names_every_metric():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    fake = [{"setup_s": 1.0, "peak_rss_mb": 50.0, "unit_s": [0.1],
             "ops": [{"kind": "demo", "seconds": 0.1, "verdict_ok": True}]}]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (_, u, _) in run.end_to_end(fake).items()}


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(worker.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "rates-scan", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
