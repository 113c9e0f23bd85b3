"""In-memory spans around calls into dpbudget's public functions.

The tracer wraps each public function of each dpbudget module where other
code looks it up: in the package namespace, in every module that imported
it by name, and, unless the function calls itself, in its own module. A
call from one layer into another therefore opens a span whose parent is
the innermost span still open. Nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from pathlib import Path

# module -> public functions traced as that module's layer.
LAYERS = {
    "workload": ("load_workload", "load_allocation", "validate_allocation"),
    "expressions": ("parse_expression", "evaluate", "evaluate_batch", "free_statistics"),
    "noise": ("noise_stream", "sample_noise_batch"),
    "propagation": (
        "gradient_at_reference",
        "propagate_variance_analytic",
        "propagate_variance_montecarlo",
        "trimmed_rmse",
    ),
    "scoring": ("score_allocation", "compare_allocations", "equation_score"),
    "allocator": ("optimize_descent", "grid_search", "sqrt_rule_allocation", "objective_gradient"),
    "simulation": ("simulate_pipeline", "simulate_with_series"),
}


def _stream_key(args, kwargs):
    seed = args[0] if args else kwargs.get("seed")
    index = args[1] if len(args) > 1 else kwargs.get("index")
    return (seed, index)


def _draw_count(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("count")


# Argument recorded with the span, where a per-layer count needs it.
_NOTES = {"noise.noise_stream": _stream_key, "noise.sample_noise_batch": _draw_count}


class Span:
    __slots__ = ("index", "parent", "name", "start", "end", "note")

    def __init__(self, index, parent, name, start, note=None):
        self.index = index
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.note = note

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records spans (name, start, end, parent) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self._by_name: dict[str, list[Span]] | None = None

    @contextlib.contextmanager
    def span(self, name: str, note=None):
        span = self._begin(name, note)
        try:
            yield span
        finally:
            self._finish(span)

    def _begin(self, name: str, note=None) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(), note)
        self.spans.append(span)
        self._open.append(span.index)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, name: str, function):
        begin, finish = self._begin, self._finish
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = begin(name, note(args, kwargs) if note else None)
            try:
                return function(*args, **kwargs)
            finally:
                finish(span)

        traced.__wrapped__ = function
        return traced

    def install(self, package) -> list[str]:
        """Wraps every layer function found; returns the names not found."""
        self.active = True
        self._by_name = None
        modules = [m for key, m in sys.modules.items() if key.startswith(package.__name__ + ".") and m]
        missing = []
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{package.__name__}.{layer}")
            for fname in names:
                function = getattr(home, fname, None) if home else None
                if function is None:
                    missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", function)
                recursive = fname in function.__code__.co_names
                for module in [package] + modules:
                    if getattr(module, fname, None) is not function:
                        continue
                    if module is home and recursive:
                        continue
                    self._patches.append((module, fname, function))
                    setattr(module, fname, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, fname, function in reversed(self._patches):
            setattr(module, fname, function)
        self._patches.clear()
        self.active = False

    # -- reading the trace -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        if self._by_name is None:
            self._by_name = {}
            for s in self.spans:
                self._by_name.setdefault(s.name, []).append(s)
        return self._by_name.get(name, [])

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Seconds of every span with this name (and this parent's name)."""
        spans = self.spans
        return [
            s.seconds
            for s in self.named(name)
            if parent is None or (s.parent >= 0 and spans[s.parent].name == parent)
        ]

    def within(self, root: Span) -> list[Span]:
        """Spans opened while ``root`` was open, root excluded."""
        inner = []
        for s in itertools.islice(self.spans, root.index + 1, None):
            if s.start >= root.end:
                break
            inner.append(s)
        return inner

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total time minus the time covered by child spans."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start - child[s.index]) * 1e-9
        return totals

    def summary(self) -> dict[str, dict[str, float]]:
        selfs = self.self_seconds()
        table: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
        for name, row in table.items():
            row["self_s"] = selfs[name]
        return table

    def write(self, path: Path, first: str) -> None:
        """Writes the spans of the first ``first`` span and everything under it,
        one JSON line each, then the per-name summary of every span."""
        roots = self.named(first)
        kept = [roots[0]] + self.within(roots[0]) if roots else []
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in kept:
                handle.write(
                    json.dumps(
                        {"id": s.index, "parent": s.parent, "name": s.name, "start_ns": s.start, "end_ns": s.end}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"summary": self.summary()}, sort_keys=True) + "\n")
