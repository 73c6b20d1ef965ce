"""Span recording around gausslab's public functions, from outside the library.

A :class:`Tracer` wraps the functions listed in :data:`LAYERS`.  While an
operation is open (``tracer.op`` is not None) every wrapped call records a
:class:`Span`: its name, start, end, the span that was open when it began and
the operation id.  Spans stay in memory until the run ends.

Each function is patched in every ``gausslab`` namespace that holds it,
because some modules import functions by name (``husimi`` holds its own
reference to ``majorization.trace_functional``); ``FockChannel.apply`` is
patched on the class.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from gausslab import channels, cli, fock, husimi, majorization, states

SETUP_OP = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    work: int = 0  # husimi.values: nodes evaluated; fock.kraus: 1 on a cache miss


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[object, str], object] = {}

    def wrap(self, fn, namer):
        """Return ``fn`` recording a span named by ``namer(args, kwargs)``,
        which gives ``(name, work)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            name, work = namer(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.op, work)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Patch every function in :data:`LAYERS` wherever gausslab holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gausslab" or name.startswith("gausslab.")]
        for owner, attr, make_namer in LAYERS:
            original = getattr(owner, attr)
            if (owner, attr) not in self._wrappers:
                self._wrappers[owner, attr] = self.wrap(original, make_namer())
            traced = self._wrappers[owner, attr]
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fixed(name: str):
    return lambda: (lambda args, kwargs: (name, 0))


def _kraus_namer():
    seen = set()

    def namer(args, kwargs):
        key = (float(args[0]), _arg(args, kwargs, 1, "space").cutoff)
        cold = key not in seen
        seen.add(key)
        return "fock.kraus", int(cold)

    return namer


def _apply_namer():
    return lambda args, kwargs: (f"fock.apply.{args[0].space.modes}mode", 0)


def _husimi_namer():
    def namer(args, kwargs):
        state = _arg(args, kwargs, 0, "state")
        ref = _arg(args, kwargs, 1, "ref")
        a0 = ref.a0 if isinstance(ref, husimi.ReferenceState) else float(ref)
        if isinstance(state, fock.FockOperator):
            kind = "mixed"
        else:
            kind = "vacuum_ref" if a0 == 0.5 else "thermal_ref"
        return f"husimi.values.{kind}", int(np.size(_arg(args, kwargs, 2, "z_nodes")))

    return namer


# (owner, attribute, namer factory): the layer boundaries the benchmark times.
LAYERS = (
    (cli, "run", _fixed("cli.run")),
    (channels, "load_channel", _fixed("channels.load")),
    (fock, "attenuator_kraus", _kraus_namer),
    (fock, "amplifier_kraus", _kraus_namer),
    (fock, "realize_channel", _fixed("fock.realize")),
    (fock.FockChannel, "apply", _apply_namer),
    (fock, "spectrum", _fixed("fock.spectrum")),
    (fock, "random_pure_state", _fixed("fock.sample")),
    (majorization, "trace_functional", _fixed("majorization.reduce")),
    (majorization, "partial_sum_deficit", _fixed("majorization.reduce")),
    (majorization, "optimality_sweep", _fixed("majorization.sweep")),
    (majorization, "majorization_sweep", _fixed("majorization.sweep")),
    (majorization, "additivity_test", _fixed("majorization.additivity")),
    (husimi, "husimi_values", _husimi_namer),
    (husimi, "smooth_field", _fixed("husimi.smooth")),
    (husimi, "wehrl_optimality_test", _fixed("husimi.check")),
    (husimi, "berezin_lieb_check", _fixed("husimi.check")),
    (husimi, "convolution_check", _fixed("husimi.check")),
    (husimi, "classical_functional", _fixed("husimi.reduce")),
    (states, "output_purity", _fixed("states.closed_form")),
    (states, "minimal_output_entropy", _fixed("states.closed_form")),
    (states, "minimal_output_renyi", _fixed("states.closed_form")),
)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reached = span.start
        pieces = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                        for c in children[index])
        for lo, hi in pieces:
            lo = max(lo, reached)
            if hi > lo:
                covered += hi - lo
                reached = hi
        out.append(span.end - span.start - covered)
    return out


def has_ancestor(spans: list[Span], index: int, names) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_totals(spans: list[Span], ops=None) -> dict[str, dict[str, float]]:
    """Per span name, over operation spans only (of the operation ids in
    ``ops`` when given): calls, self seconds, work."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for span, own in zip(spans, self_times(spans)):
        if span.op == SETUP_OP or (ops is not None and span.op not in ops):
            continue
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["work"] += span.work
    return dict(totals)


# Layer metrics read from the traced spans, as means per operation:
# "<span name>.<calls|self_s|node_evals>"; node_evals sums the span work.
PER_OP = (
    "cli.run.self_s",
    "channels.load.calls", "channels.load.self_s",
    "fock.kraus.calls",
    "fock.realize.calls", "fock.realize.self_s",
    "fock.apply.1mode.calls", "fock.apply.1mode.self_s",
    "fock.apply.2mode.calls", "fock.apply.2mode.self_s",
    "fock.spectrum.calls", "fock.spectrum.self_s",
    "fock.sample.calls",
    "majorization.reduce.calls", "majorization.reduce.self_s",
    "majorization.sweep.self_s", "majorization.additivity.self_s",
    *(f"husimi.values.{kind}.{field}" for kind in ("vacuum_ref", "thermal_ref", "mixed")
      for field in ("calls", "self_s", "node_evals")),
    "husimi.smooth.calls", "husimi.smooth.self_s",
    "husimi.check.self_s", "husimi.reduce.self_s",
    "states.closed_form.calls", "states.closed_form.self_s",
)

SAMPLERS = ("majorization.sweep", "majorization.additivity")


def layer_metrics(spans: list[Span], ops: int, rejected: int) -> dict[str, float]:
    """Per-operation layer metrics plus the cold Kraus time and the sampler's
    acceptance ratio (accepted draws / draws, 1 when nothing was drawn)."""
    totals = layer_totals(spans)
    out = {}
    for metric in PER_OP:
        name, field = metric.rsplit(".", 1)
        field = "work" if field == "node_evals" else field
        out[metric] = totals.get(name, {}).get(field, 0) / ops
    out["fock.kraus.cold_s"] = sum(s.end - s.start for s in spans
                                   if s.name == "fock.kraus" and s.work)
    draws = sum(1 for i, s in enumerate(spans)
                if s.name == "fock.sample" and s.op != SETUP_OP
                and has_ancestor(spans, i, SAMPLERS))
    out["majorization.sampler.accept_ratio"] = (draws - rejected) / draws if draws else 1.0
    return out


def family_summary(spans: list[Span], ops) -> dict:
    """For the operation ids in ``ops``: the layer with the largest self time
    and the number of ``FockChannel.apply`` calls."""
    totals = layer_totals(spans, ops)
    return {"largest_self_time": max(totals, key=lambda name: totals[name]["self_s"]),
            "fock_apply_calls": sum(entry["calls"] for name, entry in totals.items()
                                    if name.startswith("fock.apply."))}
