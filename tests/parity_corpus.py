"""The parity corpus: command lines, their committed reports, and the rules
that compare a fresh run with them.

``tests/parity/<name>.json`` holds one command line (``argv``) and what
``cli.main`` gave for it: the exit code, stdout and stderr.
``tests/test_parity.py`` reruns each file and compares the run with it:

- ``verify``: the exit code, the record names, their order, tolerances and
  pass flags exactly.  A passing residual must stay below its tolerance; a
  failing one must stay within ``FAILING_RTOL`` of the corpus; a residual in
  ``EXACT_RESIDUALS`` must keep its stated value exactly.  stderr must match
  once its numbers are masked.
- ``mindim`` and ``sweep``: exit code, stdout and stderr byte for byte.
- ``demo`` and ``gk-dump``: the exit code; stdout and stderr must match once
  their numbers are masked, and each number must agree to ``FLOAT_RTOL``
  (or ``FLOAT_ATOL``), because BLAS and numpy versions may differ in the last
  bits.

Regenerating a file is a declared change: name each file that moved, and
why, in CHANGES.md.  Run from the repository root::

    PYTHONPATH=src python tests/parity_corpus.py            # every case
    PYTHONPATH=src python tests/parity_corpus.py demo-x1e6  # named cases
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import re
import sys

from jcgraph import cli

CORPUS = pathlib.Path(__file__).resolve().parent / "parity"
FLOAT_RTOL, FLOAT_ATOL = 1e-9, 1e-15
FAILING_RTOL = 1e-6
# residuals that hold their value by construction, not by rounding
EXACT_RESIDUALS = {"channel.leak_control": 0.0, "graph.anticlique_alpha_zero": 0.0,
                   "channel.input": 1.0, "code.cut_constraint": 1.0}
# verify's report reads no --seed: these cases repeat one at other seeds
SEEDS = ("1", "2")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b")


def _point(omega_s: str) -> list:
    return ["--omega-f", "1", "--omega-s", omega_s, "--kappa", "0.7"]


def _families(name: str) -> list:
    return ["--family1", name, "--family2", name]


def _cases() -> dict:
    cases = {}
    for fam in ("uniform_moment", "factorial"):
        for n in (30, 160, 2000):
            for ws in ("0.8", "1.2", "1"):
                cases[f"verify-{fam}-n{n}-ws{ws}"] = (
                    ["verify"] + _point(ws) + ["--n-fock", str(n)] + _families(fam))
        for seed in SEEDS:
            cases[f"verify-{fam}-n160-ws0.8-seed{seed}"] = (
                cases[f"verify-{fam}-n160-ws0.8"] + ["--seed", seed])
        demo = ["demo"] + _point("0.8") + ["--n-fock", "120"] + _families(fam)
        fixed = ["--x", "0.3", "--t", "2"]
        for form, extra in (("default", []), ("basis1", ["--state", "basis1"]),
                            ("amplitudes", ["--state", "1,2j"]),
                            ("leak", ["--allow-leak"]), ("fixed", fixed),
                            ("fixed-leak", fixed + ["--allow-leak"])):
            cases[f"demo-{fam}-{form}"] = demo + extra
    cases["verify-mixed-n160"] = (["verify"] + _point("0.8") + [
        "--n-fock", "160", "--family1", "factorial", "--family2", "uniform_moment"])
    cases["verify-cavity"] = ["verify", "--omega-f", "51.1e9", "--omega-s", "51.1e9",
                              "--kappa", "47e3", "--hz", "--n-fock", "20"]
    cases["verify-gamma1000"] = ["verify", "--gamma-f", "1000", "--gamma-s", "1000",
                                 "--n-fock", "62510"]
    cases["verify-k0-2"] = ["verify"] + _point("0.8") + ["--n-fock", "20", "--k0", "2"]
    # one long ladder per family: the leak probe's x_hi is a tail search on it
    for fam, n in (("uniform_moment", "50000"), ("factorial", "10000")):
        cases[f"verify-{fam}-n{n}"] = ["verify"] + _point("0.8") + ["--n-fock", n] + _families(fam)
    cases["demo-x1e6"] = (["demo"] + _point("0.8") + ["--n-fock", "160"]
                          + _families("factorial") + ["--x", "1e6", "--t", "1"])
    cases["gk-dump-S"] = ["gk-dump"] + _point("0.8") + ["--n-fock", "20", "--which", "S"]
    # y != 0: the phases, which no verify record reads
    cases["gk-dump-phases"] = (["gk-dump"] + _point("0.8")
                               + ["--n-fock", "20", "--xs", "0,0.4", "--ys", "0,1"])
    cases["gk-dump-x1e6"] = (["gk-dump"] + _point("0.8")
                             + ["--n-fock", "20", "--family1", "factorial", "--xs", "1e6"])
    cases["mindim-gamma8"] = ["mindim", "--gamma-f", "8", "--gamma-s", "8"]
    cases["sweep-resonant"] = ["sweep", "--resonant", "--gamma-f-min", "7",
                               "--gamma-f-max", "8", "--gamma-f-steps", "5"]
    # detuned both ways: each rate repeats along its grid axis
    cases["sweep-grid"] = ["sweep", "--gamma-f-min", "2", "--gamma-f-max", "40",
                           "--gamma-f-steps", "7", "--gamma-s-min", "0.5",
                           "--gamma-s-max", "80", "--gamma-s-steps", "9"]
    return cases


CASES = _cases()


def run(argv: list) -> dict:
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load(name: str) -> dict:
    return json.loads((CORPUS / f"{name}.json").read_text())


def _skeleton(text: str) -> tuple:
    """``text`` with each number masked, and the numbers."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=rtol,
                                                             abs_tol=atol)


def mismatches(want: dict, got: dict) -> list:
    """How ``got`` breaks the corpus entry ``want``; empty when it keeps parity."""
    if want["exit"] != got["exit"]:
        return [f"exit {got['exit']}, corpus {want['exit']}"]
    command = want["argv"][0]
    if command in ("mindim", "sweep"):
        return [f"{s} differs" for s in ("stdout", "stderr") if want[s] != got[s]]
    if command == "verify":
        problems = [] if _skeleton(want["stderr"])[0] == _skeleton(got["stderr"])[0] \
            else ["stderr differs beyond its numbers"]
        return problems + _report_mismatches(json.loads(want["stdout"]),
                                             json.loads(got["stdout"]))
    problems = []
    for stream in ("stdout", "stderr"):
        (text_w, nums_w), (text_g, nums_g) = _skeleton(want[stream]), _skeleton(got[stream])
        if text_w != text_g:
            problems.append(f"{stream} differs beyond its numbers")
        else:
            problems += [f"{stream} number {i}: {b!r}, corpus {a!r}"
                         for i, (a, b) in enumerate(zip(nums_w, nums_g))
                         if not _close(a, b, FLOAT_RTOL, FLOAT_ATOL)]
    return problems


def _report_mismatches(want: dict, got: dict) -> list:
    shape = [(c["name"], c["tolerance"], c["pass"]) for c in want["checks"]]
    if shape != [(c["name"], c["tolerance"], c["pass"]) for c in got["checks"]]:
        return ["record names, order, tolerances or pass flags differ"]
    problems = []
    for w, g in zip(want["checks"], got["checks"]):
        name, res = w["name"], g["residual"]
        if name in EXACT_RESIDUALS and w["residual"] == EXACT_RESIDUALS[name]:
            ok = res == w["residual"]
        elif w["pass"]:
            ok = res < w["tolerance"]
        else:
            ok = _close(w["residual"], res, FAILING_RTOL)
        for part in ("alpha_re", "alpha_im"):
            a, b = w[part], g[part]
            ok = ok and ((a is None) == (b is None)) and (
                a is None or _close(a, b, FLOAT_RTOL, FLOAT_ATOL))
        if not ok:
            problems.append(f"{name}: residual {res!r}, corpus {w['residual']!r}")
    return problems


def main(names: list) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown cases: {unknown}", file=sys.stderr)
        return 2
    CORPUS.mkdir(exist_ok=True)
    for name in names or CASES:
        (CORPUS / f"{name}.json").write_text(json.dumps(run(CASES[name]), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
