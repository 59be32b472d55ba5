"""Per-layer tracing of the abflux package, installed from outside it.

``Tracer.installed()`` wraps every public function of the layer modules,
plus ``geometry._gk15`` (one call per quadrature panel) and
``geometry._integrate_pieces`` (one call per adaptive integration), in
every ``abflux`` module namespace that holds the function, so calls
between modules are seen too.  The originals are put back on exit.

Layer-function calls and the benchmark's operations become spans kept in
memory.  The leaf calls ``eval_A``/``eval_B`` and the panels are too many
for one span each: they are aggregated into counts and time, and their
time is subtracted from the enclosing span's self time all the same.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from time import perf_counter_ns

LAYERS = ("fields", "geometry", "stokes", "phase", "quantize", "cli")
LEAVES = ("eval_A", "eval_B")
PANEL = "_gk15"
PIECES = "_integrate_pieces"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for an operation
    op: int
    layer: str   # "op" for the benchmark's own operation span
    name: str
    start_ns: int
    end_ns: int
    self_ns: int  # duration minus the time covered by child spans and leaves


def layer_functions():
    """(layer, name, function) for every function the tracer wraps."""
    for layer in LAYERS:
        module = importlib.import_module(f"abflux.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not name.startswith("_") or name in (PANEL, PIECES))):
                yield layer, name, obj


def abflux_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "abflux" or name.startswith("abflux."))]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.leaf_ns = [0]
        self.panels = [0, 0, 0]  # count, inclusive ns, self ns
        self.seed_panels = 0
        self.splits = 0
        self._ids = count()
        # frames of open spans: [span id, ns covered by children]
        self._stack: list[list[int]] = []
        self._op = -1

    def run_op(self, index: int, fn):
        """Run one benchmark operation as a root span."""
        self._op = index
        frame = [next(self._ids), 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(frame[0], -1, index, "op", "op", start, end,
                                   end - start - frame[1]))

    def _leaf(self, key, fn):
        stack, calls, leaf_ns = self._stack, self.calls, self.leaf_ns

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - start
                calls[key] += 1
                leaf_ns[0] += dt
                stack[-1][1] += dt
        return wrapper

    def _panel(self, fn):
        stack, panels = self._stack, self.panels

        def wrapper(*args, **kwargs):
            frame = [-1, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - start
                stack.pop()
                panels[0] += 1
                panels[1] += dt
                panels[2] += dt - frame[1]
                stack[-1][1] += dt
        return wrapper

    def _span(self, layer, name, fn):
        stack, spans, calls, ids = self._stack, self.spans, self.calls, self._ids
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                calls[key] += 1
                parent[1] += end - start
                spans.append(Span(frame[0], parent[0], self._op, layer, name,
                                  start, end, end - start - frame[1]))
        return wrapper

    def _pieces(self, traced):
        def wrapper(pieces, *args, **kwargs):
            pieces = list(pieces)
            seeds = sum(piece[3] for piece in pieces)
            before = self.panels[0]
            try:
                return traced(pieces, *args, **kwargs)
            finally:
                self.seed_panels += seeds
                # every split replaces one panel by two new ones
                self.splits += (self.panels[0] - before - seeds) // 2
        return wrapper

    def _wrap(self, layer, name, fn):
        if name in LEAVES:
            return self._leaf(f"{layer}.{name}", fn)
        if name == PANEL:
            return self._panel(fn)
        traced = self._span(layer, name, fn)
        return self._pieces(traced) if name == PIECES else traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        wrappers = {id(fn): (fn, self._wrap(layer, name, fn))
                    for layer, name, fn in layer_functions()}
        patched = []
        try:
            for module in abflux_modules():
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def counts(self) -> dict[str, int]:
        """Deterministic work counts: calls per function, panels, splits."""
        return {**self.calls, "geometry.panels": self.panels[0],
                "geometry.seed_panels": self.seed_panels,
                "geometry.splits": self.splits}

    def self_ns(self) -> dict[str, int]:
        """Self time per layer, leaves and panels included."""
        totals = Counter({layer: 0 for layer in LAYERS})
        for span in self.spans:
            if span.layer != "op":
                totals[span.layer] += span.self_ns
        totals["fields"] += self.leaf_ns[0]
        totals["geometry"] += self.panels[2]
        return dict(totals)

    def inclusive_ns(self, layer: str, name: str) -> int:
        return sum(s.end_ns - s.start_ns for s in self.spans
                   if s.layer == layer and s.name == name)
