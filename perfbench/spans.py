"""Spans around jcgraph's public functions, recorded from outside the package.

``Tracer.install`` wraps each target function in every ``jcgraph`` module
namespace that binds it: ``from .jc_spectrum import dressed_basis`` gives
``cli`` and ``gk_states`` bindings of their own, and calls inside a module
(``tail_safe_xmax -> tail_mass``) resolve through that module's globals.
Static methods are wrapped on their class.  ``restore`` puts every
original object back.  Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "jcgraph"

# (module, attribute or Class.staticmethod, layer metric key)
TARGETS = (
    ("hilbert", "projector_onto", "hilbert.projector_onto"),
    ("hilbert", "QuadratureRule.gauss_legendre", "hilbert.quadrature"),
    ("hilbert", "QuadratureRule.gauss_laguerre", "hilbert.quadrature"),
    ("jc_spectrum", "dressed_basis", "jc_spectrum.dressed_basis"),
    ("jc_spectrum", "evolution_operator", "jc_spectrum.evolution_operator"),
    ("jc_spectrum", "hamiltonian_matrix", "jc_spectrum.hamiltonian_matrix"),
    ("code_construction", "minimal_m0", "code_construction.minimal_m0"),
    ("code_construction", "minimal_m0_from_rates",
     "code_construction.minimal_m0_from_rates"),
    ("code_construction", "decompose", "code_construction.decompose"),
    ("gk_states", "tail_safe_xmax", "gk_states.tail_safe_xmax"),
    ("gk_states", "tail_mass", "gk_states.tail_mass"),
    ("gk_states", "verify_temporal_stability", "gk_states.verify_temporal_stability"),
    ("gk_states", "gk_state", "gk_states.gk_state"),
    ("gk_states", "verify_resolution", "gk_states.verify_resolution"),
    ("gk_states", "moment_diagonals", "gk_states.moment_diagonals"),
    ("gk_states", "jc_families", "gk_states.jc_families"),
    ("graph_verify", "generator", "graph_verify.generator"),
    ("graph_verify", "knill_laflamme_check", "graph_verify.knill_laflamme_check"),
    ("graph_verify", "verify_identity_membership",
     "graph_verify.verify_identity_membership"),
    ("graph_verify", "dephasing_channel", "graph_verify.dephasing_channel"),
    ("graph_verify", "channel_apply", "graph_verify.channel_apply"),
    ("graph_verify", "fidelity", "graph_verify.fidelity"),
    ("graph_verify", "transmit_demo", "graph_verify.transmit_demo"),
    ("cli", "run_verification", "cli.run_verification"),
    ("cli", "resolve_run_config", "cli.resolve_run_config"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
)
ERROR_KEYS = ("gk_states.tail_mass",)  # raises TailBoundError near the radius
OP = "op"  # the benchmark's root span, one per operation


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: bool = False


class Tracer:
    """Record a span per call of each target while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list = []  # (owner, attribute, original object)

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._exit(span)
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span for one operation; spans inside carry its id."""
        self._op = op_id
        span = self._enter(OP)
        try:
            yield
        finally:
            self._exit(span)
            self._op = None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, key in self.targets:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                setattr(cls, method, staticmethod(self._wrap(key, raw.__func__)))
                self._saved.append((cls, method, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._saved.append((module, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def _keys() -> list:
    return list(dict.fromkeys(key for _, _, key in TARGETS))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in _keys():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        if key in ERROR_KEYS:
            units[f"{key}.errors"] = "count"
    units["jc_spectrum.dressed_basis_per_op"] = "calls/op"
    units["gk_states.tail_mass_per_xmax"] = "calls/call"
    units["trace.ops"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


def layer_metrics(spans: list, overhead_frac: float) -> dict:
    """Per-layer counts, self times and ratios from one traced pass."""
    calls = dict.fromkeys(_keys(), 0)
    self_s = dict.fromkeys(_keys(), 0.0)
    errors = dict.fromkeys(ERROR_KEYS, 0)
    ops = 0
    for span, own in zip(spans, self_times(spans)):
        if span.name == OP:
            ops += 1
            continue
        calls[span.name] += 1
        self_s[span.name] += own
        if span.error and span.name in errors:
            errors[span.name] += 1
    values = {}
    for key in calls:
        values[f"{key}.calls"] = calls[key]
        values[f"{key}.self_s"] = self_s[key]
        if key in errors:
            values[f"{key}.errors"] = errors[key]
    xmax = calls["gk_states.tail_safe_xmax"]
    values["jc_spectrum.dressed_basis_per_op"] = (
        calls["jc_spectrum.dressed_basis"] / ops if ops else 0.0)
    values["gk_states.tail_mass_per_xmax"] = (
        calls["gk_states.tail_mass"] / xmax if xmax else 0.0)
    values["trace.ops"] = ops
    values["trace.overhead_frac"] = overhead_frac
    return values


def to_records(spans: list) -> list:
    """JSON-ready spans, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "op": s.op, "error": s.error} for s in spans]
