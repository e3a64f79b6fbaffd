"""One workload process: import jcgraph, run a cold operation, then timed units.

Usage: python3 perfbench/worker.py '<json spec>' (run.py starts it with
BLAS pinned to one thread).  The spec names the workload, seed, process
index, the seconds and fewest units this process measures, and whether
to trace.  The last line of stdout is a JSON object with the set-up time,
peak RSS, the seconds of each timed unit and one record per operation;
with tracing it also carries the layer metrics and writes the spans under
``.perfbench_out/``.

Set-up time runs from just before ``import jcgraph`` to the end of the
first operation, which is untimed as a latency sample.  Traced runs
measure a plain pass of whole units for half the time, then the same
number of fresh units under the tracer; the ratio of the two passes is
the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_op(main, op: workloads.Op) -> dict:
    """Run one command in-process, time it, then check its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op.argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        seconds = time.perf_counter() - start
        error, verdict_ok = traceback.format_exc(limit=3), False
    else:
        seconds = time.perf_counter() - start
        try:
            error, verdict_ok = op.check(rc, out.getvalue())
        except (ValueError, KeyError, IndexError) as exc:
            error, verdict_ok = f"unreadable output: {exc!r}", False
    return {"kind": op.kind, "seconds": seconds, "rows": op.rows,
            "error": error, "verdict_ok": verdict_ok}


def run_units(main, stream, budget_s: float, min_units: int,
              tracer=None) -> tuple:
    """Whole units until ``budget_s`` has passed and ``min_units`` have run.

    Returns the operation records and the seconds of each unit: the sum of
    its operations' times, so output checks are not counted.
    """
    records, unit_s = [], []
    start = time.perf_counter()
    while len(unit_s) < min_units or time.perf_counter() - start < budget_s:
        first = len(records)
        for op in next(stream):
            if tracer is None:
                records.append(run_op(main, op))
            else:
                with tracer.op(len(records)):
                    records.append(run_op(main, op))
        unit_s.append(sum(r["seconds"] for r in records[first:]))
    return records, unit_s


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")}}


def run(spec: dict) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from jcgraph import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"jcgraph imported from {cli.__file__}, not {SRC}")
    stream = workloads.units(spec["workload"], spec["seed"], spec["stream"])
    cold = run_op(cli.main, next(stream)[0])
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "cold": cold}
    if not spec["trace"]:
        result["ops"], result["unit_s"] = run_units(
            cli.main, stream, spec["seconds"], spec["min_units"])
    else:
        t0 = time.perf_counter()
        plain, plain_units = run_units(cli.main, stream, 0.5 * spec["seconds"], 1)
        plain_s = time.perf_counter() - t0
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        with tracer:
            traced, _ = run_units(cli.main, stream, 0.0, len(plain_units),
                                  tracer=tracer)
        traced_s = time.perf_counter() - t0
        result["ops"], result["unit_s"] = plain + traced, plain_units
        result["layers"] = spans.layer_metrics(tracer.spans,
                                               traced_s / plain_s - 1.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{spec['workload']}-seed{spec['seed']}.json")
        with open(path, "w") as fh:
            json.dump(spans.to_records(tracer.spans), fh)
        result["spans_file"] = os.path.relpath(path, ROOT)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
