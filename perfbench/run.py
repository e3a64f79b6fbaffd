"""jcgraph benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0

Each run starts SETUPS fresh worker processes one after another (one with
``--trace 1``), each with BLAS pinned to one thread.  Every worker imports
jcgraph and runs one cold operation (its set-up), then measures whole
units of the workload for its share of ``--seconds`` and of the run's
fewest units, calling ``jcgraph.cli.main`` in-process.  Outputs are
checked against the benchmark's oracles.

Standard output holds a readable report: the per-workload metrics, each
with its unit and sample count, and a provenance block (machine, BLAS,
versions, commit, seed).  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``failed`` counts operations whose output the oracle refutes.  A verify
whose report is consistent but fails its own checks is not refuted; it
lowers ``verdict_ok_frac`` instead, which is how the cavity-point defect
shows on verify-tails.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3  # fresh processes per untraced run; setup_s is their median
DEADLINE_S = 170.0
# Fewest units a run measures, shared out over its processes: transmit-loop
# must hold at least 100 demos for its p90 even on a slow host.
MIN_UNITS = {"transmit-loop": 5}
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def p90(values: list) -> float:
    """90th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workers(args) -> list:
    n = 1 if args.trace else SETUPS
    env = dict(os.environ, **PINNED)
    deadline = time.monotonic() + DEADLINE_S
    results = []
    units = MIN_UNITS.get(args.workload, 1)
    for stream in range(n):
        spec = {"workload": args.workload, "seed": args.seed, "stream": stream,
                "seconds": args.seconds / n, "trace": bool(args.trace),
                "min_units": units // n + (stream >= n - units % n)}
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {stream} exited {proc.returncode}:\n"
                               f"{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def _timed(results: list, *kinds) -> list:
    return [op for r in results for op in r["ops"] if not kinds or op["kind"] in kinds]


def end_to_end(results: list) -> dict:
    """The BENCHMARK.json end-to-end metrics, with their sample counts.

    A unit is a fixed list of operations holding every kind the workload
    runs, so the median of per-unit seconds weighs every kind and draws
    its samples from one population; a median over mixed operations would
    sit between two kinds.
    """
    ops = _timed(results)
    unit_s = [s for r in results for s in r["unit_s"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s",
                    len(results)),
        "unit_s_p50": (statistics.median(unit_s), "s", len(unit_s)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB", len(results)),
        "verdict_ok_frac": (sum(op["verdict_ok"] for op in ops) / len(ops), "frac",
                            len(ops)),
    }


def workload_metrics(workload: str, results: list) -> dict:
    """The metrics named per workload, each (value, unit, samples)."""
    e2e = end_to_end(results)
    ops = _timed(results)
    bad = sum(1 for op in ops if op["error"] or not op["verdict_ok"])
    out = {"setup_s": e2e["setup_s"]}
    if workload.startswith("verify"):
        secs = [op["seconds"] for op in _timed(results, "verify", "verify-cavity")]
        out["verify_s_p50"] = (statistics.median(secs), "s", len(secs))
    elif workload == "rates-scan":
        sweeps = _timed(results, "sweep", "sweep-resonant")
        rows = sum(op["rows"] for op in sweeps)
        busy = sum(op["seconds"] for op in sweeps)
        out["sweep_points_per_s"] = (rows / busy, "1/s", rows)
        secs = [op["seconds"] for op in _timed(results, "mindim")]
        out["mindim_s_p50"] = (statistics.median(secs), "s", len(secs))
    else:
        ms = [1000.0 * op["seconds"] for op in _timed(results, "demo", "demo-leak")]
        out["demo_ms_p50"] = (statistics.median(ms), "ms", len(ms))
        out["demo_ms_p90"] = (p90(ms), "ms", len(ms))
    out["unit_s_p50"] = e2e["unit_s_p50"]
    out["peak_rss_mb"] = e2e["peak_rss_mb"]
    out["ops_failed_frac"] = (bad / len(ops), "frac", len(ops))
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, results: list) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "processes": len(results),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "blas_threads": PINNED, **results[0]["versions"],
            "commit": _git_commit()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "jcgraph", "cli.py")):
        print(f"error: no jcgraph sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        results = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = _timed(results) + [r["cold"] for r in results]
    failed = [op for op in everything if op["error"]]
    if args.trace:
        layers = results[0]["layers"]
        units = spans.metric_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        print(f"spans: {results[0]['spans_file']}")
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    else:
        print(f"workload {args.workload}, seed {args.seed}:")
        for name, (value, unit, n) in workload_metrics(args.workload,
                                                       results).items():
            print(f"  {name:20s} {value:>14.6g} {unit:6s} n={n}")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u, _) in end_to_end(results).items()}
    for op in failed[:5]:
        print(f"refuted {op['kind']}: {op['error']}")
    print("provenance: " + json.dumps(provenance(args, results)))
    print(json.dumps({"correct": not failed, "attempted": len(everything),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
