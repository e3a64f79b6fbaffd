"""The four workloads: command lines for ``jcgraph.cli.main`` and their checks.

A workload is an endless stream of units; a unit is a short, fixed list of
operations, and runs always stop on a unit boundary so that every run
holds the same mix.  All inputs come from ``random.Random`` seeded by the
workload seed, so a seed fixes the inputs.

- verify-tails: ``verify`` with ``uniform_moment`` on both ladders at
  N = 60.  A unit is the default point (omega 1 / 0.8 / 0.7) followed by
  the README cavity point (51.1e9 / 51.1e9 / 47e3 Hz).  Almost all time
  goes to ``gk_states.tail_mass``.  The cavity point fails its verdict on
  purpose: ``spectrum.eigen_residual`` uses an absolute tolerance while
  the energies there are about 1e13, so half the operations miss the
  expected verdict until that check is made unit-free.
- verify-dense: ``verify`` at the default point with ``factorial`` on both
  ladders at N = 160.  Tails are cheap; dense ``dim x dim`` algebra
  (evolution operators, dressed-basis rebuilds, Knill-Laflamme products,
  channel validation) dominates time and memory.
- rates-scan: only ``code_construction``.  A unit is ``mindim`` at the
  cavity point, a 2 000-point ``--resonant`` sweep over [1, 300] that
  crosses the jump at 2(2 + sqrt 3), ``mindim`` at gamma_f = gamma_s = 3000
  and a 40 x 10 ``sweep`` grid over gamma in [0.5, 1000].  ``mindim``
  refuses to run unless ``--n-fock >= k0* + 10`` although it builds no
  state, so the workload passes the oracle's k0* + 10.
- transmit-loop: ``demo`` at the default point with N = 120.  A unit is 20
  calls; each sends a seeded random code state at a seeded x in [0, 0.95)
  and t in [0, 10 / omega_f], and the 20th call is the ``--allow-leak``
  negative control.  Every call shares the system parameters, so this is
  the only workload where a per-process cache could help.

The verify workloads jitter omega_s and kappa by +-1 % (at the resonant
cavity point omega_f moves with omega_s), so no two operations share
parameters while k0* stays 3.  The rates workloads jitter every range
end by +-1 % for the same reason.  ``tiny=True`` shrinks every size so
that a whole unit runs in about a second, except verify-tails, whose
tails hit the 10^6-term cap at any N and take some seconds; the tests
use it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle

NAMES = ("verify-tails", "verify-dense", "rates-scan", "transmit-loop")

DEFAULT = (1.0, 0.8, 0.7)
CAVITY_HZ = (51.1e9, 51.1e9, 47e3)
DEMOS_PER_UNIT = 20


@dataclass(frozen=True)
class Op:
    """One command: its argv and a check of (exit code, stdout).

    ``check`` returns (error, verdict_ok): ``error`` is None when the
    output agrees with the oracle, and ``verdict_ok`` tells whether the
    verdict is the one the physics predicts.  ``rows`` counts sweep rows.
    """

    kind: str
    argv: list
    check: Callable[[int, str], tuple]
    rows: int = 0


def _num(value: float) -> str:
    return repr(float(value))


def _jitter(rng: random.Random) -> float:
    return rng.uniform(0.99, 1.01)


def _verify(rng, seed, point, hz, extra) -> Op:
    wf, ws, kappa = point
    scale = _jitter(rng)
    if hz:
        wf *= scale  # keep the cavity point on resonance
    argv = ["verify", "--omega-f", _num(wf), "--omega-s", _num(ws * scale),
            "--kappa", _num(kappa * _jitter(rng)), *extra, "--seed", str(seed)]
    if hz:
        argv.append("--hz")
    return Op("verify-cavity" if hz else "verify", argv, oracle.check_verify)


def _grid_sweep(rng, seed, hi, steps) -> Op:
    f_lo, f_hi = 0.5 * _jitter(rng), hi * _jitter(rng)
    s_lo, s_hi = 0.5 * _jitter(rng), hi * _jitter(rng)
    argv = ["sweep", "--gamma-f-min", _num(f_lo), "--gamma-f-max", _num(f_hi),
            "--gamma-f-steps", str(steps[0]), "--gamma-s-min", _num(s_lo),
            "--gamma-s-max", _num(s_hi), "--gamma-s-steps", str(steps[1]),
            "--seed", str(seed)]

    def check(rc, out):
        points = [(gf, gs) for gf in oracle.linspace(f_lo, f_hi, steps[0])
                  for gs in oracle.linspace(s_lo, s_hi, steps[1])]
        err = oracle.check_sweep(out, points) if rc == 0 else f"exit {rc}"
        return err, err is None
    return Op("sweep", argv, check, rows=steps[0] * steps[1])


def _resonant_sweep(rng, seed, hi, steps) -> Op:
    lo, hi = _jitter(rng), hi * _jitter(rng)
    argv = ["sweep", "--resonant", "--gamma-f-min", _num(lo), "--gamma-f-max",
            _num(hi), "--gamma-f-steps", str(steps), "--seed", str(seed)]

    def check(rc, out):
        points = [(g, g) for g in oracle.linspace(lo, hi, steps)]
        err = oracle.check_resonant(out, points) if rc == 0 else f"exit {rc}"
        return err, err is None
    return Op("sweep-resonant", argv, check, rows=steps)


def _mindim(kind, argv, seed, wf, ws, kappa) -> Op:
    m0 = oracle.m0_oracle(kappa / wf, kappa / ws,
                          oracle.frequency_predicate(wf, ws, kappa))
    argv = ["mindim", *argv, "--n-fock", str(max(3, m0) + 10), "--seed", str(seed)]

    def check(rc, out):
        err = oracle.check_mindim(out, m0) if rc == 0 else f"exit {rc}"
        return err, err is None
    return Op(kind, argv, check)


def _mindim_rates(rng, seed, gamma) -> Op:
    g = gamma * _jitter(rng)
    # The frequencies JCParams.from_rates(g, g) builds with omega_f = 1.
    kappa = g * 1.0
    return _mindim("mindim", ["--gamma-f", _num(g), "--gamma-s", _num(g)],
                   seed, 1.0, kappa / g, kappa)


def _mindim_cavity(rng, seed) -> Op:
    scale, kscale = _jitter(rng), _jitter(rng)
    wf, ws, kappa = (CAVITY_HZ[0] * scale, CAVITY_HZ[1] * scale,
                     CAVITY_HZ[2] * kscale)
    argv = ["--omega-f", _num(wf), "--omega-s", _num(ws), "--kappa", _num(kappa),
            "--hz"]
    two_pi = 2.0 * math.pi
    return _mindim("mindim-cavity", argv, seed, two_pi * wf, two_pi * ws,
                   two_pi * kappa)


def _demo(rng, n_fock, leak) -> Op:
    x, t = rng.uniform(0.0, 0.95), rng.uniform(0.0, 10.0 / DEFAULT[0])
    argv = ["demo", "--omega-f", _num(DEFAULT[0]), "--omega-s", _num(DEFAULT[1]),
            "--kappa", _num(DEFAULT[2]), "--n-fock", str(n_fock), "--x", _num(x),
            "--t", _num(t), "--state", "random", "--seed", str(rng.randrange(2 ** 31))]
    if leak:
        argv.append("--allow-leak")

    def check(rc, out):
        err = oracle.check_demo(rc, out, leak)
        return err, err is None
    return Op("demo-leak" if leak else "demo", argv, check)


def units(name: str, seed: int, stream: int = 0, tiny: bool = False):
    """Endless units of workload ``name``; ``stream`` separates processes."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(seed * 1000 + stream)
    tails = ["--n-fock", "16" if tiny else "60"]
    dense = ["--n-fock", "16" if tiny else "160", "--family1", "factorial",
             "--family2", "factorial"]
    while True:
        if name == "verify-tails":
            yield [_verify(rng, seed, DEFAULT, False, tails),
                   _verify(rng, seed, CAVITY_HZ, True, tails)]
        elif name == "verify-dense":
            yield [_verify(rng, seed, DEFAULT, False, dense)]
        elif name == "rates-scan":
            yield [_mindim_cavity(rng, seed),
                   _resonant_sweep(rng, seed, 20.0 if tiny else 300.0,
                                   40 if tiny else 2000),
                   _mindim_rates(rng, seed, 30.0 if tiny else 3000.0),
                   _grid_sweep(rng, seed, 50.0 if tiny else 1000.0,
                               (4, 3) if tiny else (40, 10))]
        else:
            yield [_demo(rng, 20 if tiny else 120, leak=(i == DEMOS_PER_UNIT - 1))
                   for i in range(DEMOS_PER_UNIT)]
