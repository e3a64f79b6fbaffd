"""Independent checks of jcgraph's command outputs.

The minimal photon cut M0 has a closed form.  With u = gamma_f / 2 and
d = 1/gamma_f - 1/gamma_s, the gap condition

    sqrt(d^2 + m + 1) + sqrt(d^2 + m) > u

holds exactly for m > m* = ((u - 1/u) / 2)^2 - d^2 when u >= 1, and for
every m >= 1 when u < 1 (the left side is at least 1).  The closed form
only gives the starting point: the exact strict predicate is evaluated
around it, so the resonant jump at gamma = 2(2 + sqrt 3) stays exact in
floating point.

Only the standard library is used, so importing this module costs nothing
inside a timed set-up.
"""
from __future__ import annotations

import json
import math

RESONANT_JUMP = 2.0 * (2.0 + math.sqrt(3.0))
SWEEP_HEADER = "gamma_s,gamma_f,m0,k0_star,d_min"


def rates_predicate(gamma_f: float, gamma_s: float):
    """Gap condition written in the dimensionless rates."""
    d = 1.0 / gamma_f - 1.0 / gamma_s
    half = 0.5 * gamma_f
    return lambda m: math.sqrt(d * d + m + 1) + math.sqrt(d * d + m) > half


def frequency_predicate(omega_f: float, omega_s: float, kappa: float):
    """Gap condition written in the angular frequencies."""
    delta = omega_f - omega_s
    bound = 2.0 * omega_f / kappa ** 2
    return lambda m: 1.0 / (math.sqrt(delta ** 2 + kappa ** 2 * (m + 1))
                            + math.sqrt(delta ** 2 + kappa ** 2 * m)) < bound


def m0_threshold(gamma_f: float, gamma_s: float) -> float:
    """Real threshold m*: the gap condition holds exactly for m > m*."""
    u = 0.5 * gamma_f
    if u < 1.0:
        return -math.inf
    d = 1.0 / gamma_f - 1.0 / gamma_s
    return (0.5 * (u - 1.0 / u)) ** 2 - d * d


def m0_oracle(gamma_f: float, gamma_s: float, predicate=None) -> int:
    """Smallest m >= 1 satisfying the strict gap condition.

    ``predicate`` defaults to the rates form; pass ``frequency_predicate``
    to match a command that received the frequency triple.
    """
    if gamma_f <= 0.0 or gamma_s <= 0.0:
        return 1  # kappa = 0 decouples the ladders; the library returns 1
    pred = predicate or rates_predicate(gamma_f, gamma_s)
    m_star = m0_threshold(gamma_f, gamma_s)
    m = 1 if m_star < 1.0 else math.floor(m_star) + 1
    while m > 1 and pred(m - 1):
        m -= 1
    while not pred(m):
        m += 1
    return m


def mindim_expected(m0: int) -> dict:
    k0 = max(3, m0)
    return {"m0": m0, "k0_star": k0, "d_min": k0 - 1, "dim_h3": k0}


def linspace(lo: float, hi: float, steps: int) -> list:
    """numpy.linspace(lo, hi, steps) with the same floating-point steps."""
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [i * step + lo for i in range(steps - 1)] + [hi]


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def check_sweep(text: str, points: list) -> str | None:
    """Compare CSV rows against (gamma_f, gamma_s) points; None when exact."""
    lines = text.strip().split("\n")
    if lines[0] != SWEEP_HEADER:
        return f"bad header {lines[0]!r}"
    if len(lines) - 1 != len(points):
        return f"{len(lines) - 1} rows for {len(points)} points"
    for line, (gf, gs) in zip(lines[1:], points):
        m0 = m0_oracle(gf, gs)
        k0 = max(3, m0)
        want = f"{_fmt(gs)},{_fmt(gf)},{m0},{k0},{k0 - 1}"
        if line != want:
            return f"row {line!r}, oracle {want!r}"
    return None


def resonant_jump(text: str) -> float | None:
    """First gamma on a resonant sweep whose d_min reaches 3."""
    for line in text.strip().split("\n")[1:]:
        _, gf, _, _, d_min = line.split(",")
        if int(d_min) >= 3:
            return float(gf)
    return None


def check_resonant(text: str, points: list) -> str | None:
    err = check_sweep(text, points)
    if err:
        return err
    step = points[1][0] - points[0][0]
    jump = resonant_jump(text)
    if jump is None or abs(jump - RESONANT_JUMP) > step:
        return f"resonant jump at {jump}, expected {RESONANT_JUMP} within {step}"
    return None


def check_mindim(text: str, m0: int) -> str | None:
    got = json.loads(text)
    want = mindim_expected(m0)
    return None if got == want else f"mindim {got}, oracle {want}"


def check_verify(rc: int, text: str) -> tuple:
    """(error, verdict_ok): the exit code must match the report's verdict."""
    report = json.loads(text)
    verdict = report["overall_pass"]
    if verdict != all(c["pass"] for c in report["checks"]):
        return "overall_pass disagrees with its checks", False
    if rc != (0 if verdict else 1):
        return f"exit code {rc} with overall_pass = {verdict}", False
    return None, verdict


def check_demo(rc: int, text: str, leak: bool) -> str | None:
    """Code states transmit exactly; the leaked probe must degrade and exit 1."""
    fid = float(text)
    if leak:
        ok = rc == 1 and fid < 1.0 - 1e-3
    else:
        ok = rc == 0 and fid >= 1.0 - 1e-8
    return None if ok else f"{'leak' if leak else 'code'} demo: exit {rc}, fidelity {fid}"
