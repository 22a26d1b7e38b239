"""Per-layer spans recorded from outside the package.

A layer is one module of `lww`. Tracer.install() replaces, for the life of
the process:

- every public module-level function of each layer, under every name a
  layer binds it to (`from .series import exp_series` in enumeration is a
  second binding of series.exp_series);
- the ring operators of ZSeries and SpatialSeries;
- CycleHeap.of.

Each wrapper records one span. Per layer it aggregates calls, total time
(outermost spans of the layer only) and self time (span time minus the time
of the spans it encloses). Summed over layers, self time equals the time of
the outermost spans, so traced wall = sum of self times + unattributed time.
Aggregates stay in memory; report() returns them once, at the end.
Only spans inside counting() blocks are reported.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = (
    "core", "series", "enumeration", "heaps", "laces",
    "expansion", "sampling", "analysis", "verify", "cli",
)
# The ring operations. Constructors (one, zero, of, build), predicates and
# accessors are left unwrapped: they are called millions of times per lace
# sum, cost less than a span, and their time stays with the caller.
SERIES_OPERATORS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "shift", "derivative", "scale",
)


class Tracer:
    def __init__(self):
        self.stack = []  # one [child_seconds] cell per open span
        self.depth = Counter()  # open spans per layer
        self.layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # calls, total, self
        self.calls = Counter()  # per wrapped name, "layer.qualname"
        self.kept_layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self.kept_calls = Counter()

    def wrap(self, layer: str, key: str, fn):
        stack, depth, calls = self.stack, self.depth, self.calls
        agg = self.layers[layer]
        clock = time.perf_counter

        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                agg[0] += 1
                agg[2] += dur - cell[0]
                if not depth[layer]:
                    agg[1] += dur
                if stack:
                    stack[-1][0] += dur
                calls[key] += 1

        return functools.wraps(fn)(span)

    def install(self):
        mods = {layer: importlib.import_module(f"lww.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = self.wrap(layer, f"{layer}.{name}", obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        for cls in (mods["series"].ZSeries, mods["series"].SpatialSeries):
            for name, obj in list(vars(cls).items()):
                if name in SERIES_OPERATORS:
                    self._wrap_attr("series", cls, name, obj)
        heap = mods["heaps"].CycleHeap
        self._wrap_attr("heaps", heap, "of", vars(heap)["of"])

    def _wrap_attr(self, layer, cls, name, obj):
        key = f"{layer}.{cls.__name__}.{name}"
        if isinstance(obj, staticmethod):
            setattr(cls, name, staticmethod(self.wrap(layer, key, obj.__func__)))
        elif inspect.isfunction(obj):
            setattr(cls, name, self.wrap(layer, key, obj))

    @contextlib.contextmanager
    def counting(self):
        """Report only the spans recorded inside this block (and other such blocks)."""
        layers = {k: list(v) for k, v in self.layers.items()}
        calls = Counter(self.calls)
        try:
            yield
        finally:
            for layer, now in self.layers.items():
                kept = self.kept_layers[layer]
                for i, (a, b) in enumerate(zip(now, layers[layer])):
                    kept[i] += a - b
            self.kept_calls.update(self.calls - calls)

    def report(self) -> dict:
        return {
            "layers": {
                layer: {"calls": c, "total_s": t, "self_s": s}
                for layer, (c, t, s) in self.kept_layers.items()
            },
            "calls": dict(self.kept_calls),
        }
