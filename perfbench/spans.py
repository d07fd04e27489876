"""Spans around the program's layer functions, recorded from outside.

``stepdist`` modules import each other's functions by name (``from
.changepoint import detect_change_points``), so replacing a function in
its home module alone would miss every call made through another
module's binding. ``patched`` therefore replaces the function object in
every ``stepdist.*`` namespace that binds it, fails loudly when a listed
function cannot be found, and restores every binding on exit.

Spans carry parent ids and live in memory until the run ends. Per-pair
calls (the break-set metrics) are aggregated into a count and a time on
their enclosing span instead of one span each, which keeps the tracing
overhead out of the parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field

# Layer name -> (home module, function). One span per call.
SPAN_FUNCTIONS = {
    "ingest": ("stepdist.pipeline", "ingest"),
    "changepoint.detect": ("stepdist.changepoint", "detect_change_points"),
    "stepfn.embed": ("stepdist.stepfn", "from_changepoints"),
    "stepfn.lp_norm": ("stepdist.stepfn", "lp_norm"),
    "matrices.distance_unscaled": ("stepdist.matrices", "unscaled_distance_matrix"),
    "matrices.distance_normalized": ("stepdist.matrices", "normalized_distance_matrix"),
    "matrices.alignment": ("stepdist.matrices", "alignment_matrix"),
    "matrices.write_csv": ("stepdist.matrices", "write_matrix_csv"),
    "clustering.linkage": ("stepdist.clustering", "hierarchical_cluster"),
    "clustering.eigengap": ("stepdist.clustering", "eigengap_k"),
    "clustering.spectral": ("stepdist.clustering", "spectral_cluster"),
    "clustering.newick": ("stepdist.clustering", "to_newick"),
}
# Layer name -> functions called once per pair; aggregated, not spanned.
AGGREGATE_FUNCTIONS = {
    "set_metrics": (
        ("stepdist.set_metrics", "hausdorff"),
        ("stepdist.set_metrics", "modified_hausdorff"),
        ("stepdist.set_metrics", "mj_semi_metric"),
    ),
}

# Layers each command passes through. A traced job that never enters one
# of them means the program no longer calls the wrapped function, and the
# layer's numbers would silently read zero.
COMMAND_LAYERS = {
    "run": frozenset(SPAN_FUNCTIONS),
    "compare-metrics": frozenset({
        "ingest", "changepoint.detect", "stepfn.embed", "matrices.distance_unscaled",
        "matrices.write_csv", "clustering.linkage", "clustering.newick", "set_metrics",
    }),
}


def bindings(module: str, attr: str) -> tuple[object, list[tuple[object, str]]]:
    """The function and every (stepdist module, name) that binds it.

    Raises LookupError when the function does not exist, so a renamed or
    removed layer function stops the benchmark instead of going unmeasured.
    A function that still exists but is no longer called shows up in
    ``Tracer.missing_layers`` instead.
    """
    try:
        fn = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"layer function {module}.{attr} not found: {exc}") from None
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "stepdist" or name.startswith("stepdist.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, key))
    return fn, found


@contextlib.contextmanager
def patched(replacements: dict[tuple[str, str], object]):
    """Bind each replacement in place of the original function everywhere.

    ``replacements`` maps (module, function) to a factory that takes the
    original function and returns its stand-in.
    """
    undo = []
    try:
        for (module, attr), factory in replacements.items():
            fn, where = bindings(module, attr)
            stand_in = factory(fn)
            for mod, key in where:
                setattr(mod, key, stand_in)
                undo.append((mod, key, fn))
        yield
    finally:
        for mod, key, fn in reversed(undo):
            setattr(mod, key, fn)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children and aggregates
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Aggregate:
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder; one instance per traced job."""

    spans: list[Span] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, args: tuple = ()):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, name, time.perf_counter(), args=args)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name, args) as s:
                s.result = fn(*args, **kwargs)
            return s.result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregated(self, name: str, fn):
        agg = self.aggregates.setdefault(name, Aggregate())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg.calls += 1
                agg.seconds += dt
                if stack:
                    stack[-1].child_s += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(self):
        """Context manager that wraps every listed layer function."""
        replacements = {}
        for name, target in SPAN_FUNCTIONS.items():
            replacements[target] = lambda fn, name=name: self._spanned(name, fn)
        for name, targets in AGGREGATE_FUNCTIONS.items():
            for target in targets:
                replacements[target] = lambda fn, name=name: self._aggregated(name, fn)
        return patched(replacements)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, plus aggregated layers as their own rows."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        for name, agg in self.aggregates.items():
            out[name] = out.get(name, 0.0) + agg.seconds
        return out

    def missing_layers(self, command: str) -> list[str]:
        seen = {s.name for s in self.spans} | {k for k, a in self.aggregates.items() if a.calls}
        return sorted(COMMAND_LAYERS[command] - seen)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end,
                 "self_s": s.self_s}
                for s in self.spans
            ],
            "aggregates": {k: {"calls": a.calls, "seconds": a.seconds} for k, a in self.aggregates.items()},
        }


class ChangePointCapture:
    """Records every detection result, in call order, without timing.

    The output checks need the detected change points; this is the only
    wrapper active during timed jobs and costs one list append per series.
    """

    TARGET = SPAN_FUNCTIONS["changepoint.detect"]

    def __init__(self):
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def _wrap(self, fn):
        calls = self.calls

        def wrapper(series, params):
            cps = fn(series, params)
            calls.append((series.id, tuple(cps.points)))
            return cps

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(self):
        return patched({self.TARGET: self._wrap})
