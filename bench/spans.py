"""Span tracing of contab's public functions, installed from outside the package.

Tracer.install rebinds every reference to a traced function that contab's
modules hold: module attributes, names another module imported by value
(contab.ehrhart.count_exact) and function tables held in dicts (the CLI's
estimate methods).  Each call then records a span, kept in memory, with its
name, start, end, parent span and the benchmark operation it belongs to.
Tracer.uninstall puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass

# layer (a contab module) -> the public functions traced in it
TRACED = {
    "exact": ("count_exact",),
    "estimators": ("good_estimate", "refined_estimate", "closed_form_estimate",
                   "high_density_estimate", "bracket_interval", "bracket_delta",
                   "independence_decomposition"),
    "montecarlo": ("mc_estimate", "enumerate_proposal"),
    "integral": ("integral_numeric", "reconstruct_count", "envelope_check"),
    "ehrhart": ("ehrhart_polynomial",),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None     # id of the operation now running
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in TRACED]
        namespaces = [vars(mod) for mod in modules]
        namespaces += [value for ns in list(namespaces) for value in ns.values()
                       if isinstance(value, dict)]
        for layer, names in TRACED.items():
            home = vars(importlib.import_module(f"{package.__name__}.{layer}"))
            for fname in names:
                original = home[fname]
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for key in [k for k, v in ns.items() if v is original]:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapped

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def busy_seconds(spans: list[Span], layer: str) -> float:
    """Wall time inside `layer`: outermost spans of the layer, nested calls counted once."""
    total = 0.0
    for span in spans:
        if span.layer == layer and not _inside(spans, span, layer):
            total += span.seconds
    return total


def self_seconds(spans: list[Span], layer: str) -> float:
    """Time in `layer`'s spans not covered by their child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    return sum(span.seconds - child_time[i]
               for i, span in enumerate(spans) if span.layer == layer)


def _inside(spans: list[Span], span: Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False
