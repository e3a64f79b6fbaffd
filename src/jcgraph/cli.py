"""Command line interface: mindim, sweep, verify, demo and gk-dump.

Each command takes only the keys in its ``_KEYS`` table, as exact flags (no
prefix stands for a flag) or from a key = value config file (INI sections, any
names, each key once); flags win.  Every command but sweep takes the system
parameters, either the frequency triple (--omega-f, --omega-s, --kappa) or the
dimensionless rate pair (--gamma-f, --gamma-s, optionally --reference-omega-f),
exactly one group; --hz multiplies the triple or the reference by 2 pi.

Exit codes: 0 on success, 1 when a numerical check fails, 2 on usage or
configuration errors.
"""
from __future__ import annotations

import argparse
import bisect
import configparser
import functools
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import code_construction as cc
from . import gk_states as gk
from . import graph_verify as gv
from .hilbert import TruncationConfig, ValidationError
# dressed_basis is unused: perfbench's tracer test pins cli.dressed_basis (ROADMAP item 18)
from .jc_spectrum import (DegenerateLevelError, JCParams, dressed_basis,
                          dressed_frame, spectrum_residuals)

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
    seed: int


def _boolean(raw: str) -> bool:
    """A config file's yes or no; as a flag the key takes no value and means yes."""
    try:  # 1/0, true/false, yes/no or on/off, in any case
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


_SYSTEM = {"omega_f": float, "omega_s": float, "kappa": float, "gamma_f": float,
           "gamma_s": float, "reference_omega_f": float, "hz": _boolean}
_STATES = {**_SYSTEM, "k0": int, "n_fock": int, "family1": str, "family2": str}
# Each command's keys, as flags and config keys, and the reader of each value.
# mindim reads no n_fock or seed, and sweep and verify no seed: they stay only
# because perfbench's command lines pass them.
_KEYS = {command: {**keys, "out": str} for command, keys in {
    "mindim": {**_SYSTEM, "n_fock": int, "seed": int},
    "sweep": {"gamma_f_min": float, "gamma_f_max": float, "gamma_f_steps": int,
              "gamma_s_min": float, "gamma_s_max": float, "gamma_s_steps": int,
              "resonant": _boolean, "seed": int},
    "verify": {**_STATES, "seed": int},
    "demo": {**_STATES, "seed": int, "x": float, "t": float, "state": str,
             "allow_leak": _boolean},
    "gk-dump": {**_STATES, "which": str, "xs": str, "ys": str},
}.items()}
_HELP = {"mindim": "report M0, the minimal cut and the code dimension",
         "sweep": "sweep the minimal code dimension over rate grids",
         "verify": "run the full verification battery, emit a JSON report",
         "demo": "transmit a code state through the graph channel",
         "gk-dump": "dump coherent-state data as JSON",
         "hz": "interpret frequencies as Hz (multiplied by 2 pi)",
         "resonant": "sweep along gamma_s = gamma_f", "xs": "comma separated x grid",
         "state": "'random', 'basisK', or comma amplitudes", "ys": "comma separated y grid",
         "allow_leak": "send a deliberately leaked probe state instead",
         "which": "J (upper ladder) or S (lower ladder)",
         "out": "write output to this file instead of stdout"}


def load_config_file(path: str, keys: dict) -> dict:
    """The file's values, each read by its reader in ``keys``; a key outside ``keys``
    or given twice (in two sections, or as n-fock and n_fock) is refused.  Values are
    literal, as flags are (no '%' interpolation), and [DEFAULT] is a plain section."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    values, where = {}, {}  # each key's value and the section that gave it
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key not in keys:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            if key in where:
                raise UsageError(f"config key {key!r} in [{section}] repeats the one "
                                 f"in [{where[key]}]")
            where[key] = section
            try:
                values[key] = keys[key](raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {key}: {exc}") from exc
    return values


def _merged(args: argparse.Namespace) -> dict:
    """The command's config-file values overridden by explicitly given flags."""
    keys = _KEYS[args.command]
    values = load_config_file(args.config, keys) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return values


def resolve_run_config(values: dict) -> RunConfig:
    freq = [k for k in ("omega_f", "omega_s", "kappa") if k in values]
    rates = [k for k in ("gamma_f", "gamma_s", "reference_omega_f") if k in values]
    if freq and rates:
        raise UsageError("give either the frequency triple or the rate pair "
                         "(with --reference-omega-f), not both")
    if not freq and not rates:
        raise UsageError("system parameters required: --omega-f/--omega-s/--kappa "
                         "or --gamma-f/--gamma-s")
    missing = ({"omega_f", "omega_s", "kappa"} - set(freq)) if freq else \
        ({"gamma_f", "gamma_s"} - set(rates))
    if missing:
        raise UsageError(f"incomplete parameter group; missing {sorted(missing)}")
    scale = 2.0 * math.pi if values.get("hz") else 1.0
    if scale != 1.0 and rates == ["gamma_f", "gamma_s"]:  # no frequency to convert
        raise UsageError("--hz needs a frequency: give --reference-omega-f with the rate pair")
    try:
        if freq:
            params = JCParams(omega_f=scale * values["omega_f"],
                              omega_s=scale * values["omega_s"],
                              kappa=scale * values["kappa"])
        else:
            params = JCParams.from_rates(values["gamma_f"], values["gamma_s"],
                                         omega_f=scale * values.get("reference_omega_f", 1.0))
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
    seed = values.get("seed", 7)
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return RunConfig(params=params, m0=m0, k0=k0, trunc=trunc, family1=fam1,
                     family2=fam2, seed=seed)


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
    """Write the sweep's CSV, ``_SWEEP_CHUNK`` rows at a time.

    Every M0 is computed, and every usage error raised (``--resonant`` with a
    gamma_s key is one), before the first line is written, so a refused sweep
    writes nothing.  Each distinct rate is formatted once and its text indexed
    into the rows: on the resonant line chunk by chunk, twice a row; on a grid
    in blocks of at most a chunk, gamma_f rows times gamma_s columns.  Only a
    grid row longer than a chunk formats rates again: its gamma_s blocks for
    each gamma_f rate, and that rate for each block.
    """
    needed = ("gamma_f_min", "gamma_f_max", "gamma_f_steps")
    if any(k not in values for k in needed):
        raise UsageError("sweep needs --gamma-f-min/--gamma-f-max/--gamma-f-steps")
    s_keys = ("gamma_s_min", "gamma_s_max", "gamma_s_steps")
    resonant = values.get("resonant")
    if resonant and any(k in values for k in s_keys):
        raise UsageError("--resonant sets gamma_s = gamma_f; drop --gamma-s-min/"
                         "--gamma-s-max/--gamma-s-steps")
    f_range = (values["gamma_f_min"], values["gamma_f_max"])
    try:
        if resonant:
            rates = cc.resonant_rates(f_range, values["gamma_f_steps"])
        else:
            if any(k not in values for k in s_keys):
                raise UsageError("grid sweep needs --gamma-s-min/--gamma-s-max/"
                                 "--gamma-s-steps (or --resonant)")
            rates = cc.grid_rates(f_range,
                                  (values["gamma_s_min"], values["gamma_s_max"]),
                                  (values["gamma_f_steps"], values["gamma_s_steps"]))
        m0, k0_star, d_min = cc.sweep_columns(*rates)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = functools.partial(map, "%.12g,".__mod__)  # a rate's CSV field and its comma
    # cells: the rows' (gamma_f, gamma_s) texts in order, made a block at a time
    if resonant:  # one axis: each rate's text is both
        blocks = (list(text(rates[0][i:i + _SWEEP_CHUNK].tolist()))
                  for i in range(0, m0.size, _SWEEP_CHUNK))
        cells = itertools.chain.from_iterable(zip(t, t) for t in blocks)
    else:  # blocks of at most a chunk: gamma_f rows times gamma_s columns
        steps_s = values["gamma_s_steps"]
        f_axis, s_axis = rates[0][::steps_s], rates[1][:steps_s]
        f_rows = max(1, _SWEEP_CHUNK // steps_s)
        # a row longer than a chunk is read in chunk-sized blocks; the last block is kept
        s_block = functools.lru_cache(1)(
            lambda j: list(text(s_axis[j:j + _SWEEP_CHUNK].tolist())))
        cells = itertools.chain.from_iterable(
            itertools.product(text(f_axis[i:i + f_rows].tolist()), s_block(j))
            for i in range(0, f_axis.size, f_rows) for j in range(0, steps_s, _SWEEP_CHUNK))

    def chunks():
        yield "gamma_s,gamma_f,m0,k0_star,d_min\n"
        for start in range(0, m0.size, _SWEEP_CHUNK):
            part = slice(start, start + _SWEEP_CHUNK)
            # the cells come last: zip ends with the chunk and takes no cell beyond it
            rows = zip(m0[part].tolist(), k0_star[part].tolist(), d_min[part].tolist(), cells)
            yield "".join([f"{s}{f}{m},{k},{d}\n" for m, k, d, (f, s) in rows])
    _emit(chunks(), out)


def _cut(cfg: RunConfig) -> tuple:
    """The cut (None if refused), the spectrum residuals and records, then a refusal's
    record with ``decompose``'s message.  A refused cut has no frame, so the spectrum
    reads one built here; a degenerate level raises again there, before any record."""
    code = failure = None
    try:
        code = cc.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    except cc.EnergyOrderError as exc:
        failure = gv.CheckRecord("gk.energy_order", abs(exc.gap), 0.0, reason=str(exc))
    except ValueError as exc:
        failure = gv.CheckRecord("code.cut_constraint", 1.0, 0.0, reason=str(exc))
    frame = dressed_frame(cfg.params, cfg.trunc) if code is None else code.frame
    eig_res, gram = spectrum_residuals(cfg.params, frame)
    return code, (eig_res, gram), [
        gv.CheckRecord("spectrum.eigen_residual", eig_res, 1e-10),
        gv.CheckRecord("spectrum.gram_identity", gram, 1e-10), *filter(None, [failure])]


@functools.lru_cache(maxsize=8)
def _ladder_moments(fam: gk.WeightFamily, orders: int) -> float:
    """The ``gk.moments`` residual of the family's 21-node rule on k < orders, which
    that rule integrates exactly for orders <= 41; built once per process for each
    (family, orders), so a family riding both ladders is spot-checked once."""
    spot = gk.moment_diagonals(fam, np.arange(orders), fam.moment_rule(21))
    return float(np.abs(spot - 1.0).max())


def _ladder_records(spec, stability: float) -> list:
    """Moments and resolution off the closed-form d_k, then the frame's stability bound."""
    fam = spec.family
    resolution = gk.verify_resolution(spec, gk.closed_form_diagonals(fam, spec.terms))
    moments = _ladder_moments(fam, min(41, spec.terms))  # after d_k: its k < 41 read a slice
    return [gv.CheckRecord(f"gk.moments.{spec.label}.{fam.name}", moments, 1e-8),
            gv.CheckRecord(f"gk.resolution.{spec.label}.{fam.name}", resolution, 1e-6),
            gv.CheckRecord(f"gk.temporal_stability.{spec.label}", stability, 1e-9)]


def _membership(code) -> gv.CheckRecord:
    """Identity membership on the cut's ladders under uniform_moment's d_k (finite radius)."""
    uni = gk.builtin_family("uniform_moment")
    d = [gk.closed_form_diagonals(uni, idx.size) for idx in (code.j_indices, code.s_indices)]
    residual = gv.verify_identity_membership(code, d)
    return gv.CheckRecord("graph.identity_membership", residual, 1e-6)


def _x_range(families) -> float:
    """x_hi, the leak probe's x: the largest x whose certified tail is within beta on
    both ladders, the x domain of ``gk.temporal_stability.*``.  A tail grows as its
    ladder shortens, so S alone sizes a shared family."""
    specs = families[1:] if families[0].family == families[1].family else families
    return min(gk.tail_safe_xmax(spec.family, spec.terms - 1) for spec in specs)


def _anticlique(code) -> list:
    """The anticlique bounds over the whole graph (``gv.anticlique_certificate``)."""
    cert = gv.anticlique_certificate(code)
    return [gv.CheckRecord("graph.anticlique", cert.residual, 1e-8),
            gv.CheckRecord("graph.anticlique_alpha_zero", cert.alpha_zero, 1e-10),
            gv.CheckRecord("graph.anticlique_alpha_identity", abs(cert.alpha_identity - 1.0),
                           1e-10, alpha=cert.alpha_identity)]


def _channel(code, families, x: float, t: float) -> list:
    """The channel on every code state (``gv.channel_certificate``), and on the leak
    probe at (x, t): ``verify`` sends it at (x_hi, T), within the x and t that
    ``gk.temporal_stability.*`` covers.  A refused input is one failing
    ``channel.input`` record with the channel's reason."""
    try:
        trace, loss = gv.channel_certificate(code)
        ladders = [gv.ladder_vector(spec, x, t) for spec in families]
        probe = gv.dephase_pure_state(families, ladders, gv.leak_probe(code, ladders[0]))
    except ValidationError as exc:
        return [gv.CheckRecord("channel.input", 1.0, 0.0, reason=str(exc))]
    return [gv.CheckRecord("channel.trace_preservation", trace, 1e-10),
            gv.CheckRecord("channel.code_fidelity", loss, 1e-8),
            gv.CheckRecord("channel.leak_control",
                           max(0.0, probe.fidelity - (1.0 - 1e-3)), 1e-12)]


def run_verification(cfg: RunConfig) -> gv.VerificationReport:
    """The full numerical battery for one configuration, one stage per layer.

    Records come in stage order; a refused cut ends the report.  Nothing is
    drawn, so ``cfg.seed`` plays no part: stability covers t in [0, T], T =
    10 / omega_f, one bound for the frame that both ladder records carry, and
    the leak probe is sent at (x_hi, T), x_hi = ``_x_range``."""
    code, residuals, checks = _cut(cfg)
    if code is None:
        return gv.VerificationReport(checks)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    horizon = 10.0 / cfg.params.omega_f
    membership = _membership(code)  # first: uniform_moment's table at J's length
    stability = gk.verify_temporal_stability(code.frame, *residuals, horizon)
    for spec in families:
        checks += _ladder_records(spec, stability)
    checks.append(membership)
    checks += _anticlique(code)
    checks += _channel(code, families, _x_range(families), horizon)
    return gv.VerificationReport(checks)


def cmd_demo(cfg: RunConfig, values: dict) -> tuple:
    code = cc.decompose(cfg.params, cfg.k0, cfg.trunc, cfg.m0)
    families = gk.jc_families(code, cfg.family1, cfg.family2)
    radius = min(cfg.family1.radius, cfg.family2.radius)
    x = values.get("x", 0.5 * radius if math.isfinite(radius) else 1.0)
    t = values.get("t", 1.0 / cfg.params.omega_f)
    e_max = float(np.abs(code.frame.energies).max())  # every phase |E t| <= e_max |t|
    if not (math.isfinite(x) and math.isfinite(e_max * t)):
        raise UsageError(f"x and the phases max|E| t must be finite, got x = {x}, t = {t}")
    if not 0.0 <= x < radius:
        raise UsageError(f"x = {x} outside [0, {radius})")
    state = values.get("state", "random")
    dim_code = code.h3_indices.size - 1
    if not values.get("allow_leak"):
        if state == "random":  # gauss has no default arguments before Python 3.11
            gauss = functools.partial(random.Random(cfg.seed).gauss, 0.0, 1.0)
            amps = np.array([complex(gauss(), gauss()) for _ in range(dim_code)])
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
        top = np.abs(amps).max()
        if not 0.0 < top < math.inf:  # also false for NaN
            raise UsageError(f"state must be nonzero and finite, got {state!r}")
        amps = amps / top  # the norm of 1e308-sized amplitudes would overflow
        v = np.zeros(code.frame.energies.size, dtype=complex)
        v[code.h3_indices[:-1]] = amps / np.linalg.norm(amps)
    ladders = [gv.ladder_vector(spec, x, t) for spec in families]
    if values.get("allow_leak"):
        v = gv.leak_probe(code, ladders[0])
    # v is a code vector by construction, or the leaked probe; the channel's
    # fidelity on |v><v| tells the two apart.
    fid = gv.dephase_pure_state(families, ladders, v).fidelity
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
    if not math.isfinite(float(np.abs(code.frame.energies).max()) * float(np.abs(ys).max())):
        raise UsageError(f"y values and the phases max|E| y must be finite, got {ys}")
    for x in xs:
        if not 0.0 <= x < spec.family.radius:
            raise UsageError(f"x = {x} outside [0, {spec.family.radius})")
    return gk.dump_family(spec, xs, ys)


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcgraph",
        description="Qubit-oscillator zero-error codes from Jaynes-Cummings "
                    "operator graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _KEYS.items():
        # flags match exactly: gk-dump would otherwise read a prefix such as --x as --xs
        cmd = sub.add_parser(command, help=_HELP[command], allow_abbrev=False)
        for key, reader in keys.items():
            kind = (dict(action="store_const", const=True) if reader is _boolean
                    else dict(type=reader))
            cmd.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key), **kind)
        cmd.add_argument("--config", help="key = value config file")
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
            if not math.isfinite(10.0 / cfg.params.omega_f):  # a subnormal omega_f
                raise UsageError(f"the stability horizon T = 10/omega_f overflows a "
                                 f"double at omega_f = {cfg.params.omega_f!r}")
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
            ValidationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command dispatch")


def entry() -> None:  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
