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
import bisect
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import code_construction as cc
from . import gk_states as gk
from . import graph_verify as gv
from .hilbert import TruncationConfig, ValidationError
# dressed_basis is unused: perfbench's tracer test pins cli.dressed_basis (ROADMAP item 18)
from .jc_spectrum import (DegenerateLevelError, JCParams, dressed_basis,
                          dressed_frame, spectrum_residuals)

_FLOAT_KEYS = {"omega_f", "omega_s", "kappa", "gamma_f", "gamma_s", "reference_omega_f",
               "tol", "x", "t", "gamma_f_min", "gamma_f_max", "gamma_s_min", "gamma_s_max"}
_INT_KEYS = {"k0", "n_fock", "seed", "gamma_f_steps", "gamma_s_steps"}
_BOOL_KEYS = {"hz", "resonant", "allow_leak"}
_STR_KEYS = {"family1", "family2", "state", "which", "xs", "ys", "out"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS
_SWEEP_CHUNK = 1 << 16  # CSV rows formatted per write: bounds a sweep's text in memory


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    params: JCParams
    m0: int
    k0: int
    trunc: TruncationConfig
    family1: gk.WeightFamily
    family2: gk.WeightFamily
    tol: float
    seed: int


def load_config_file(path: str) -> dict:
    # values are literal, as flags are: no '%' interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
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
        m0 = cc.minimal_m0(params)  # the run's only M0: the commands read cfg.m0
        k0_star = cc.minimal_k0(m0)
        trunc = TruncationConfig(n_fock=values.get("n_fock", 60))
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
    return RunConfig(params=params, m0=m0, k0=k0, trunc=trunc, family1=fam1,
                     family2=fam2, tol=tol, seed=seed)


def _energies_overflow(params: JCParams, n: int) -> bool:
    """Whether omega_f (n + 1/2 + R_n/2) >= |E| overflows; R_n, a hypot, cannot raise."""
    rabi = math.hypot(params.delta_f, params.gamma_f * math.sqrt(n))
    return not math.isfinite(params.omega_f * (n + 0.5 + 0.5 * rabi))


def _emit(text, out: str | None, mode: str = "w") -> None:
    """Write a string, or an iterable of strings in turn, to ``out`` (opened in
    ``mode``) or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out:
        try:
            fh = open(out, mode)
        except OSError as exc:
            raise UsageError(f"cannot open output file {out}: {exc.strerror}") from exc
        with fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------- commands

def cmd_mindim(cfg: RunConfig) -> dict:
    k0_star = cc.minimal_k0(cfg.m0)
    return {"m0": cfg.m0, "k0_star": k0_star, "d_min": k0_star - 1,
            "dim_h3": k0_star}


def cmd_sweep(values: dict, out: str | None) -> None:
    """Write the sweep's CSV, formatting ``_SWEEP_CHUNK`` rows at a time.

    Every M0 is computed, and every usage error raised, before the first
    line is written, so a refused sweep writes nothing.
    """
    needed = ("gamma_f_min", "gamma_f_max", "gamma_f_steps")
    if any(k not in values for k in needed):
        raise UsageError("sweep needs --gamma-f-min/--gamma-f-max/--gamma-f-steps")
    f_range = (values["gamma_f_min"], values["gamma_f_max"])
    try:
        if values.get("resonant"):
            rates = cc.resonant_rates(f_range, values["gamma_f_steps"])
        else:
            s_needed = ("gamma_s_min", "gamma_s_max", "gamma_s_steps")
            if any(k not in values for k in s_needed):
                raise UsageError("grid sweep needs --gamma-s-min/--gamma-s-max/"
                                 "--gamma-s-steps (or --resonant)")
            rates = cc.grid_rates(f_range,
                                  (values["gamma_s_min"], values["gamma_s_max"]),
                                  (values["gamma_f_steps"], values["gamma_s_steps"]))
        columns = cc.sweep_columns(*rates)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    def chunks():
        yield "gamma_s,gamma_f,m0,k0_star,d_min\n"
        for start in range(0, columns[0].size, _SWEEP_CHUNK):
            rows = zip(*(c[start:start + _SWEEP_CHUNK].tolist() for c in columns))
            yield "".join(["%.12g,%.12g,%d,%d,%d\n" % row for row in rows])
    _emit(chunks(), out)


def _below(name: str, residual, tolerance: float, **alpha) -> gv.CheckRecord:
    """The record of a check that passes when its residual is below its tolerance."""
    return gv.CheckRecord(name, residual, tolerance, residual < tolerance, **alpha)


def _cut(cfg: RunConfig) -> tuple:
    """The cut (None if refused), the spectrum residuals and records, then a refusal's
    record with ``decompose``'s message.  A refused cut has no frame, so the spectrum
    reads one built here; a degenerate level raises again there, before any record."""
    code = failure = None
    try:
        code = cc.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    except cc.EnergyOrderError as exc:
        failure = gv.CheckRecord("gk.energy_order", abs(exc.gap), 0.0, False, reason=str(exc))
    except ValueError as exc:
        failure = gv.CheckRecord("code.cut_constraint", 1.0, 0.0, False, reason=str(exc))
    frame = dressed_frame(cfg.params, cfg.trunc) if code is None else code.frame
    eig_res, gram = spectrum_residuals(cfg.params, frame)
    return code, (eig_res, gram), [
        _below("spectrum.eigen_residual", eig_res, 1e-10),
        _below("spectrum.gram_identity", gram, 1e-10), *filter(None, [failure])]


@functools.lru_cache(maxsize=8)
def _ladder_moments(fam: gk.WeightFamily, terms: int) -> tuple:
    """A ladder's d_k, k < terms, from the family's closed forms, read-only, and the
    ``gk.moments`` residual of its 21-node rule on k < min(41, terms), which that
    rule integrates exactly; built once per process for each (family, terms)."""
    diag = gk.closed_form_diagonals(fam, terms)
    diag.flags.writeable = False
    spot = gk.moment_diagonals(fam, np.arange(min(41, terms)), fam.moment_rule(21))
    return diag, float(np.abs(spot - 1.0).max())


def _ladder_records(spec, residuals, cfg: RunConfig) -> list:
    """Moments and resolution off the ladder's closed-form d_k, then stability."""
    fam = spec.family
    diag, moments = _ladder_moments(fam, spec.terms)
    resolution = gk.verify_resolution(spec, diag)
    stability = gk.verify_temporal_stability(spec, *residuals, 10.0 / cfg.params.omega_f)
    return [_below(f"gk.moments.{spec.label}.{fam.name}", moments, 1e-8),
            _below(f"gk.resolution.{spec.label}.{fam.name}", resolution, 1e-6),
            _below(f"gk.temporal_stability.{spec.label}", stability, 1e-9)]


def _membership(code, families) -> gv.CheckRecord:
    """Identity membership on the same ladders under uniform_moment (finite radius)."""
    uni = gk.builtin_family("uniform_moment")
    mem = [replace(spec, family=uni) for spec in families]
    residual = gv.verify_identity_membership(
        code, mem, [_ladder_moments(uni, spec.terms)[0] for spec in mem])
    return _below("graph.identity_membership", residual, 1e-6)


def _x_range(families) -> float:
    """The samples' largest x: within 0.95 R and tail-safe to 1e-6 on both ladders.
    A family's tail grows as its ladder shortens, so S alone sizes a shared family."""
    specs = families[1:] if families[0].family == families[1].family else families
    return min(min(gk.tail_safe_xmax(spec.family, spec.terms - 1, budget=1e-6),
                   0.95 * spec.family.radius) for spec in specs)


def _draw(cfg: RunConfig, code, families) -> tuple:
    """Every sample, one at a time in a fixed order: 40 generators (j, x, t), 8 x 40
    combination coefficients, 5 unit code amplitudes with (x, t); x in both domains."""
    x_hi, t_hi = _x_range(families), 10.0 / cfg.params.omega_f
    rng = np.random.default_rng(cfg.seed)
    # h * random() is uniform(0, h) bit for bit: numpy forms 0 + h * random()
    gens = [(int(rng.integers(1, 4)), x_hi * rng.random(), t_hi * rng.random())
            for _ in range(40)]
    coeffs = np.array([rng.normal(size=len(gens)) for _ in range(8)])
    dim_code, states = code.code_basis.shape[1], []
    for _ in range(5):
        a = rng.normal(size=dim_code) + 1j * rng.normal(size=dim_code)
        states.append((a / np.linalg.norm(a), x_hi * rng.random(), t_hi * rng.random()))
    return [list(col) for col in zip(*gens)], coeffs, [list(col) for col in zip(*states)]


def _anticlique(code, families, js, xs, ts, coeffs, tol: float) -> list:
    """Knill-Laflamme in the k0-dim frame of W = h3_basis (P3 = W W+): each
    operator A enters as W+ A W, the combinations as one tensordot, I as W+ W."""
    frames = gv.frame_generator(code, families, js, xs, ts)
    w = code.h3_basis
    kl = gv.knill_laflamme_frame(
        w, np.concatenate([frames, np.tensordot(coeffs, frames, axes=1),
                           (w.conj().T @ w)[None]]), tol=tol)
    alpha_zero = max(abs(c.alpha) for c, j in zip(kl.checks, js) if j in (1, 2))
    alpha_id = kl.checks[-1].alpha
    return [gv.CheckRecord("graph.anticlique", kl.max_residual(), tol, kl.overall_pass),
            _below("graph.anticlique_alpha_zero", alpha_zero, 1e-10),
            _below("graph.anticlique_alpha_identity", abs(alpha_id - 1.0), 1e-10,
                   alpha=alpha_id)]


def _channel(code, families, amps, xs, ts) -> list:
    """The channel on the code states, from the branches P_k v, and on the leak
    probe at the first state's (x, t): one column each, one call."""
    probe = gv.leak_probe(code, families, xs[0], ts[0])
    vs = np.column_stack([code.code_basis @ np.transpose(amps), probe])
    out = gv.dephase_pure_state(families, xs + xs[:1], ts + ts[:1], vs)
    trace, fid = out.trace[:-1], out.fidelity[:-1]
    return [_below("channel.trace_preservation",
                   max(0.0, *np.abs(trace - 1.0).tolist()), 1e-10),
            _below("channel.code_fidelity", max(0.0, *(1.0 - fid).tolist()), 1e-8),
            _below("channel.leak_control",
                   max(0.0, float(out.fidelity[-1]) - (1.0 - 1e-3)), 1e-12)]


def run_verification(cfg: RunConfig) -> gv.VerificationReport:
    """The full numerical battery for one configuration, one stage per layer.

    Records come in stage order; a refused cut ends the report.  A record
    passes when its residual is below its tolerance (``_below``), except the
    anticlique and a refused cut."""
    code, residuals, checks = _cut(cfg)
    if code is None:
        return gv.VerificationReport(checks)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    for spec in families:
        checks += _ladder_records(spec, residuals, cfg)
    checks.append(_membership(code, families))
    gens, coeffs, states = _draw(cfg, code, families)
    checks += _anticlique(code, families, *gens, coeffs, cfg.tol)
    checks += _channel(code, families, *states)
    return gv.VerificationReport(checks)


def cmd_demo(cfg: RunConfig, values: dict) -> tuple:
    code = cc.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    radius = min(cfg.family1.radius, cfg.family2.radius)
    x = values.get("x", 0.5 * radius if math.isfinite(radius) else 1.0)
    t = values.get("t", 1.0 / cfg.params.omega_f)
    if not (math.isfinite(x) and math.isfinite(t)):
        raise UsageError(f"x and t must be finite, got x = {x}, t = {t}")
    if not 0.0 <= x < radius:
        raise UsageError(f"x = {x} outside [0, {radius})")
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
                raise UsageError(f"state needs {dim_code} amplitudes, got {amps.size}")
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise UsageError("state must be nonzero")
        v = code.code_basis @ (amps / norm)
    # v is a code vector by construction, or the leaked probe; the channel's
    # fidelity on |v><v| tells the two apart.
    fid = gv.dephase_pure_state(families, x, t, v).fidelity
    return fid, 0 if fid >= 1.0 - 1e-8 else 1


def cmd_gk_dump(cfg: RunConfig, values: dict) -> dict:
    code = cc.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
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
        if out:  # refuse a bad path before the work; appending truncates nothing
            made = not os.path.lexists(out)
            _emit("", out, "a")
            if made:  # a refused command leaves no file
                os.remove(out)
        if args.command == "sweep":
            cmd_sweep(values, out)
            return 0
        cfg = resolve_run_config(values)
        if args.command == "mindim":
            _emit(json.dumps(cmd_mindim(cfg), indent=2) + "\n", out)
            return 0
        # mindim builds no state; every other command needs headroom and finite energies
        n, overflows = cfg.trunc.n_fock, functools.partial(_energies_overflow, cfg.params)
        if n < cfg.k0 + 10:
            raise UsageError(f"n_fock = {n} leaves no truncation "
                             f"headroom; need N >= k0 + 10 = {cfg.k0 + 10}")
        if overflows(n):
            top = bisect.bisect(range(n), False, key=overflows) - 1
            raise UsageError(f"energies overflow a double at n_fock = {n}; " + (
                f"the largest usable N is {top}" if top >= cfg.k0 + 10 else
                f"no N >= k0 + 10 = {cfg.k0 + 10} is usable at this point"))
        if args.command == "verify":
            report = run_verification(cfg)
            _emit(json.dumps(report.to_dict(), indent=2) + "\n", out)
            for c in report.checks:
                if not c.passed:
                    ratio = c.residual / c.tolerance if c.tolerance else math.inf
                    print(f"check failed: {c.name}: residual {c.residual:.3e}, "
                          f"tolerance {c.tolerance:.3e}, residual/tolerance {ratio:.3g}"
                          + (f"; {c.reason}" if c.reason else ""), file=sys.stderr)
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
    except (cc.CutConstraintError, gk.DomainError, gk.TruncationTooSmallError,
            ValidationError, gv.InvalidDensityError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command dispatch")


def entry() -> None:  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
