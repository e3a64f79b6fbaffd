"""Command line interface: mindim, sweep, verify, demo and gk-dump.

System parameters come either as the frequency triple (--omega-f,
--omega-s, --kappa) or as the dimensionless rate pair (--gamma-f,
--gamma-s, optionally --reference-omega-f); exactly one group must be
given.  A key = value config file (INI sections, any section names) can
supply the same keys, with command line flags taking precedence.

Exit codes: 0 on success, 1 when a numerical check fails, 2 on usage or
configuration errors.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import code_construction as cc
from . import gk_states as gk
from . import graph_verify as gv
from .hilbert import TruncationConfig
# dressed_basis is unused: perfbench's tracer test pins cli.dressed_basis (ROADMAP item 1)
from .jc_spectrum import (DegenerateLevelError, JCParams, dressed_basis,
                          dressed_frame, spectrum_residuals)

_FLOAT_KEYS = {"omega_f", "omega_s", "kappa", "gamma_f", "gamma_s",
               "reference_omega_f", "tail_tol", "tol", "x", "t",
               "gamma_f_min", "gamma_f_max", "gamma_s_min", "gamma_s_max"}
_INT_KEYS = {"k0", "n_fock", "seed", "gamma_f_steps", "gamma_s_steps"}
_BOOL_KEYS = {"hz", "resonant", "allow_leak"}
_STR_KEYS = {"family1", "family2", "state", "which", "xs", "ys", "out"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    params: JCParams
    k0: int
    trunc: TruncationConfig
    family1: gk.WeightFamily
    family2: gk.WeightFamily
    tol: float
    seed: int


def _fmt(value: float) -> str:
    """12 significant digits, plain decimal point."""
    return f"{value:.12g}"


def load_config_file(path: str) -> dict:
    # values are literal, as flags are: no '%' interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key not in _ALL_KEYS:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            values[key] = raw
    return values


def _coerce(key: str, raw):
    if raw is None or not isinstance(raw, str):
        return raw
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {exc}") from exc
    return raw


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values overridden by explicitly given flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key, val in vars(args).items():
        if key in _ALL_KEYS and val is not None:
            values[key] = val
    return {k: _coerce(k, v) for k, v in values.items()}


def resolve_run_config(values: dict) -> RunConfig:
    freq = [k for k in ("omega_f", "omega_s", "kappa") if k in values]
    rates = [k for k in ("gamma_f", "gamma_s") if k in values]
    if freq and rates:
        raise UsageError("give either the frequency triple or the rate pair, not both")
    if not freq and not rates:
        raise UsageError("system parameters required: --omega-f/--omega-s/--kappa "
                         "or --gamma-f/--gamma-s")
    missing = ({"omega_f", "omega_s", "kappa"} - set(freq)) if freq else \
        ({"gamma_f", "gamma_s"} - set(rates))
    if missing:
        raise UsageError(f"incomplete parameter group; missing {sorted(missing)}")
    try:
        if freq:
            scale = 2.0 * math.pi if values.get("hz") else 1.0
            params = JCParams(omega_f=scale * values["omega_f"],
                              omega_s=scale * values["omega_s"],
                              kappa=scale * values["kappa"])
        else:
            params = JCParams.from_rates(values["gamma_f"], values["gamma_s"],
                                         omega_f=values.get("reference_omega_f", 1.0))
        k0_star = cc.minimal_k0(cc.minimal_m0(params))
        trunc = TruncationConfig(n_fock=values.get("n_fock", 60),
                                 tail_tol=values.get("tail_tol", 1e-9))
        fam1 = gk.builtin_family(values.get("family1", "uniform_moment"))
        fam2 = gk.builtin_family(values.get("family2", "uniform_moment"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    k0 = values.get("k0", k0_star)
    if k0 < 1:
        raise UsageError(f"k0 must be >= 1, got {k0}")
    tol = values.get("tol", 1e-8)
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be positive and finite, got {tol}")
    seed = values.get("seed", 7)
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return RunConfig(params=params, k0=k0, trunc=trunc, family1=fam1,
                     family2=fam2, tol=tol, seed=seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands

def cmd_mindim(cfg: RunConfig) -> dict:
    m0 = cc.minimal_m0(cfg.params)
    k0_star = cc.minimal_k0(m0)
    return {"m0": m0, "k0_star": k0_star, "d_min": k0_star - 1,
            "dim_h3": k0_star}


def cmd_sweep(values: dict) -> str:
    needed = ("gamma_f_min", "gamma_f_max", "gamma_f_steps")
    if any(k not in values for k in needed):
        raise UsageError("sweep needs --gamma-f-min/--gamma-f-max/--gamma-f-steps")
    f_range = (values["gamma_f_min"], values["gamma_f_max"])
    try:
        if values.get("resonant"):
            rows = cc.resonant_sweep(f_range, values["gamma_f_steps"])
        else:
            s_needed = ("gamma_s_min", "gamma_s_max", "gamma_s_steps")
            if any(k not in values for k in s_needed):
                raise UsageError("grid sweep needs --gamma-s-min/--gamma-s-max/"
                                 "--gamma-s-steps (or --resonant)")
            rows = cc.dmin_sweep(f_range,
                                 (values["gamma_s_min"], values["gamma_s_max"]),
                                 (values["gamma_f_steps"], values["gamma_s_steps"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = ["gamma_s,gamma_f,m0,k0_star,d_min"]
    for r in rows:
        lines.append(f"{_fmt(r.gamma_s)},{_fmt(r.gamma_f)},{r.m0},{r.k0_star},{r.d_min}")
    return "\n".join(lines) + "\n"


def run_verification(cfg: RunConfig) -> gv.VerificationReport:
    """The full numerical battery for one configuration."""
    report = gv.VerificationReport()
    params, trunc = cfg.params, cfg.trunc
    rng = np.random.default_rng(cfg.seed)

    # a frame of its own: these records precede decompose, whose errors end the report
    eig_res, gram = spectrum_residuals(params, dressed_frame(params, trunc))
    report.add(gv.CheckRecord("spectrum.eigen_residual", eig_res, 1e-10,
                              eig_res < 1e-10))
    report.add(gv.CheckRecord("spectrum.gram_identity", gram, 1e-10, gram < 1e-10))

    try:
        code = cc.decompose(params, cfg.k0, trunc)
    except cc.EnergyOrderError as exc:
        report.add(gv.CheckRecord("gk.energy_order", abs(exc.gap), 0.0, False))
        return report
    except ValueError:
        report.add(gv.CheckRecord("code.cut_constraint", 1.0, 0.0, False))
        return report
    families = gk.jc_families(code, cfg.family1, cfg.family2)

    gap_min = min(float(np.diff(spec.energies).min()) for spec in families)
    report.add(gv.CheckRecord("gk.ladder_increasing", max(0.0, -gap_min), 1e-12,
                              gap_min > 0))

    # Identity membership always runs on the finite-radius built-in family,
    # on the same ladders.
    if math.isfinite(cfg.family1.radius) and cfg.family2.radius == cfg.family1.radius:
        mem_families = families
    else:
        uni = gk.builtin_family("uniform_moment")
        mem_families = [replace(spec, family=uni) for spec in families]
    # one moment rule per family, shared by the ladders and identity membership,
    # exact for every moment of the longer (J) ladder
    n_nodes = gk.rule_nodes(families[0].terms)
    rules = {}
    for fam in (spec.family for spec in (*families, *mem_families)):
        if fam.name in rules:
            continue
        rule = rules[fam.name] = fam.moment_rule(n_nodes)
        if not (np.isfinite(rule.nodes).all() and np.isfinite(rule.log_weights).all()):
            raise UsageError(f"the {n_nodes}-node moment rule of family "
                             f"{fam.name!r} has non-finite nodes or weights, "
                             f"so no moment can be checked with it")

    for spec in families:
        fam = spec.family
        res = gk.verify_resolution(spec, rules[fam.name])
        # moment_diagonals treats each k alone: these are the first 41 it would return
        dev = float(np.abs(res.diagonals[:41] - 1.0).max())
        report.add(gv.CheckRecord(f"gk.moments.{spec.label}.{fam.name}", dev, 1e-8,
                                  dev < 1e-8))
        report.add(gv.CheckRecord(f"gk.resolution.{spec.label}.{fam.name}",
                                  res.residual, 1e-6, res.residual < 1e-6))
        xmax = gk.tail_safe_xmax(fam, spec.terms - 1, budget=1e-12)
        fids = gk.verify_temporal_stability(
            spec, np.linspace(0.0, xmax, 10),
            np.linspace(0.0, 10.0 / params.omega_f, 10), trunc)
        worst = float(np.max(1.0 - fids, initial=0.0))
        report.add(gv.CheckRecord(f"gk.temporal_stability.{spec.label}", worst,
                                  1e-9, worst < 1e-9))

    mem = gv.verify_identity_membership(
        code, mem_families, [rules[spec.family.name] for spec in mem_families])
    report.add(gv.CheckRecord("graph.identity_membership", mem, 1e-6, mem < 1e-6))

    xmax = gk.tail_safe_xmax(cfg.family1, families[0].terms - 1, budget=1e-6)
    # one range for both ladders, so a sample x is in both families' domains
    x_hi = min(xmax, 0.95 * cfg.family1.radius, 0.95 * cfg.family2.radius)
    # Knill-Laflamme in the k0-dimensional frame of W = h3_basis (P3 = W W+):
    # every operator A enters as W+ A W, the identity as W+ W.
    js, frames = [], []
    for _ in range(40):
        j = int(rng.integers(1, 4))
        x = float(rng.uniform(0.0, x_hi))
        t = float(rng.uniform(0.0, 10.0 / params.omega_f))
        js.append(j)
        frames.append(gv.frame_generator(code, families, j, x, t))
    combos = []
    for _ in range(8):
        coeffs = rng.normal(size=len(frames))
        combos.append(sum(c * m for c, m in zip(coeffs, frames)))
    w = code.h3_basis
    kl = gv.knill_laflamme_frame(w, frames + combos + [w.conj().T @ w], tol=cfg.tol)
    worst_kl = kl.max_residual()
    report.add(gv.CheckRecord("graph.anticlique", worst_kl, cfg.tol,
                              all(c.passed for c in kl.checks)))
    alpha_zero = max(abs(c.alpha) for c, j in zip(kl.checks, js) if j in (1, 2))
    report.add(gv.CheckRecord("graph.anticlique_alpha_zero", alpha_zero, 1e-10,
                              alpha_zero < 1e-10))
    alpha_id = abs(kl.checks[-1].alpha - 1.0)
    report.add(gv.CheckRecord("graph.anticlique_alpha_identity", alpha_id, 1e-10,
                              alpha_id < 1e-10, alpha=kl.checks[-1].alpha))

    # The channel on pure code states, from the branches P_k v.
    dim_code = code.code_basis.shape[1]
    worst_fid, worst_tr, worst_neg = 0.0, 0.0, 0.0
    leak_slack = 0.0
    for i in range(5):
        amps = rng.normal(size=dim_code) + 1j * rng.normal(size=dim_code)
        amps /= np.linalg.norm(amps)
        v = code.code_basis @ amps
        x = float(rng.uniform(0.0, x_hi))
        t = float(rng.uniform(0.0, 10.0 / params.omega_f))
        out = gv.dephase_pure_state(families, x, t, v)
        worst_tr = max(worst_tr, abs(out.trace - 1.0))
        worst_neg = max(worst_neg, -out.min_eigenvalue)
        worst_fid = max(worst_fid, 1.0 - out.fidelity)
        if i == 0:
            probe = gv.leak_probe(code, families, x, t)
            f_leak = gv.dephase_pure_state(families, x, t, probe).fidelity
            leak_slack = max(0.0, f_leak - (1.0 - 1e-3))
    report.add(gv.CheckRecord("channel.trace_preservation", worst_tr, 1e-10,
                              worst_tr < 1e-10))
    report.add(gv.CheckRecord("channel.positivity", worst_neg, 1e-9,
                              worst_neg < 1e-9))
    report.add(gv.CheckRecord("channel.code_fidelity", worst_fid, 1e-8,
                              worst_fid < 1e-8))
    report.add(gv.CheckRecord("channel.leak_control", leak_slack, 1e-12,
                              leak_slack < 1e-12))
    return report


def cmd_demo(cfg: RunConfig, values: dict) -> tuple:
    code = cc.decompose(cfg.params, cfg.k0, cfg.trunc)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    x = values.get("x", 0.5 * cfg.family1.radius
                   if math.isfinite(cfg.family1.radius) else 1.0)
    t = values.get("t", 1.0 / cfg.params.omega_f)
    if not (math.isfinite(x) and math.isfinite(t)):
        raise UsageError(f"x and t must be finite, got x = {x}, t = {t}")
    rng = np.random.default_rng(cfg.seed)
    state = values.get("state", "random")
    dim_code = code.code_basis.shape[1]
    if values.get("allow_leak"):
        v = gv.leak_probe(code, families, x, t)
    else:
        if state == "random":
            amps = rng.normal(size=dim_code) + 1j * rng.normal(size=dim_code)
        elif state.startswith("basis"):
            try:
                idx = int(state[5:] or 0)
            except ValueError as exc:
                raise UsageError(f"cannot parse state {state!r}") from exc
            if not 0 <= idx < dim_code:
                raise UsageError(f"basis index {idx} outside code dimension {dim_code}")
            amps = np.zeros(dim_code, dtype=complex)
            amps[idx] = 1.0
        else:
            try:
                amps = np.array([complex(part) for part in state.split(",")])
            except ValueError as exc:
                raise UsageError(f"cannot parse state {state!r}: {exc}") from exc
            if amps.size != dim_code:
                raise UsageError(
                    f"state needs {dim_code} amplitudes, got {amps.size}")
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise UsageError("state must be nonzero")
        v = code.code_basis @ (amps / norm)
    # v is a code vector by construction, or the leaked probe; the channel's
    # fidelity on |v><v| tells the two apart.
    fid = gv.dephase_pure_state(families, x, t, v).fidelity
    return fid, 0 if fid >= 1.0 - 1e-8 else 1


def cmd_gk_dump(cfg: RunConfig, values: dict) -> dict:
    code = cc.decompose(cfg.params, cfg.k0, cfg.trunc)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    which = values.get("which", "J").upper()
    if which not in ("J", "S"):
        raise UsageError(f"--which must be J or S, got {which!r}")
    spec = families[0] if which == "J" else families[1]
    try:
        xs = [float(p) for p in values.get("xs", "0,0.25,0.5").split(",")]
        ys = [float(p) for p in values.get("ys", "0").split(",")]
    except ValueError as exc:
        raise UsageError(f"bad grid list: {exc}") from exc
    if not all(map(math.isfinite, ys)):
        raise UsageError(f"y values must be finite, got {ys}")
    for x in xs:
        if not 0.0 <= x < spec.family.radius:
            raise UsageError(f"x = {x} outside [0, {spec.family.radius})")
    return gk.dump_family(spec, xs, ys)


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_argument_group("system parameters")
    grp.add_argument("--omega-f", type=float, dest="omega_f")
    grp.add_argument("--omega-s", type=float, dest="omega_s")
    grp.add_argument("--kappa", type=float)
    grp.add_argument("--gamma-f", type=float, dest="gamma_f")
    grp.add_argument("--gamma-s", type=float, dest="gamma_s")
    grp.add_argument("--reference-omega-f", type=float, dest="reference_omega_f")
    grp.add_argument("--hz", action="store_const", const=True,
                     help="interpret frequencies as Hz (multiplied by 2 pi)")
    com = common.add_argument_group("construction")
    com.add_argument("--k0", type=int)
    com.add_argument("--n-fock", type=int, dest="n_fock")
    com.add_argument("--tail-tol", type=float, dest="tail_tol")
    com.add_argument("--family1")
    com.add_argument("--family2")
    com.add_argument("--tol", type=float)
    com.add_argument("--seed", type=int)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="jcgraph",
        description="Qubit-oscillator zero-error codes from Jaynes-Cummings "
                    "operator graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("mindim", parents=[common],
                   help="report M0, the minimal cut and the code dimension")
    sw = sub.add_parser("sweep", parents=[common],
                        help="sweep the minimal code dimension over rate grids")
    sw.add_argument("--gamma-f-min", type=float, dest="gamma_f_min")
    sw.add_argument("--gamma-f-max", type=float, dest="gamma_f_max")
    sw.add_argument("--gamma-f-steps", type=int, dest="gamma_f_steps")
    sw.add_argument("--gamma-s-min", type=float, dest="gamma_s_min")
    sw.add_argument("--gamma-s-max", type=float, dest="gamma_s_max")
    sw.add_argument("--gamma-s-steps", type=int, dest="gamma_s_steps")
    sw.add_argument("--resonant", action="store_const", const=True,
                    help="sweep along gamma_s = gamma_f")
    sub.add_parser("verify", parents=[common],
                   help="run the full verification battery, emit a JSON report")
    de = sub.add_parser("demo", parents=[common],
                        help="transmit a code state through the graph channel")
    de.add_argument("--x", type=float)
    de.add_argument("--t", type=float)
    de.add_argument("--state", help="'random', 'basisK', or comma amplitudes")
    de.add_argument("--allow-leak", action="store_const", const=True,
                    dest="allow_leak",
                    help="send a deliberately leaked probe state instead")
    du = sub.add_parser("gk-dump", parents=[common],
                        help="dump coherent-state data as JSON")
    du.add_argument("--which", help="J (upper ladder) or S (lower ladder)")
    du.add_argument("--xs", help="comma separated x grid")
    du.add_argument("--ys", help="comma separated y grid")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        values = _merged(args)
        out = values.get("out")
        if args.command == "sweep":
            _emit(cmd_sweep(values), out)
            return 0
        cfg = resolve_run_config(values)
        if args.command == "mindim":
            _emit(json.dumps(cmd_mindim(cfg), indent=2) + "\n", out)
            return 0
        # mindim builds no state; every other command needs truncation headroom
        if cfg.trunc.n_fock < cfg.k0 + 10:
            raise UsageError(f"n_fock = {cfg.trunc.n_fock} leaves no truncation "
                             f"headroom; need N >= k0 + 10 = {cfg.k0 + 10}")
        if args.command == "verify":
            report = run_verification(cfg)
            _emit(json.dumps(report.to_dict(), indent=2) + "\n", out)
            return 0 if report.overall_pass else 1
        if args.command == "demo":
            fid, rc = cmd_demo(cfg, values)
            _emit(f"{fid:.12f}\n", out)
            return rc
        if args.command == "gk-dump":
            _emit(json.dumps(cmd_gk_dump(cfg, values), indent=2, allow_nan=False)
                  + "\n", out)
            return 0
    except (UsageError, DegenerateLevelError) as exc:
        # a degenerate level has no dressed basis: no state can be built
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cc.CutConstraintError, gk.DomainError,
            gk.TruncationTooSmallError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command dispatch")


def entry() -> None:  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
