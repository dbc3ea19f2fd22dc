"""In-memory span tracing of the bergerspec layers, from outside the package.

Each public function is wrapped where its caller binds it: the CLI calls
`bergerspec.cli.kth_distinct_piecewise`, `slice_index_nullity` calls
`bergerspec.slices.spectrum_with_multiplicity`, and so on.  Wrapping the
binding rather than the defining module means a call is seen exactly
once, by the layer that made it.  Nothing in the package changes; the
original functions are put back when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

LAYERS = ("cli", "berger", "slices", "jacobi", "page", "spheres")


def _count_cells(counts: Counter, result: Any) -> None:
    counts["berger.kth_distinct_piecewise.cells"] += len(result)


def _count_values(counts: Counter, result: Any) -> None:
    counts["berger.distinct_spectrum_at.values"] += len(result)
    counts["berger.distinct_spectrum_at.modes"] += sum(len(modes) for _, modes in result)


_HANDLERS = ("handle_sphere", "handle_berger", "handle_piecewise", "handle_index", "handle_plotdata")

# (module, attribute, span name, counter).  A span is named after the layer
# that owns the function, except root finding, which is named after the
# page layer whose solver loop drives it.
BINDINGS: list[tuple[str, str, str, Callable | None]] = [
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    *[("cli", h, "cli.handler", None) for h in _HANDLERS],
    ("cli", "emit", "cli.emit", None),
    ("cli", "kth_distinct_piecewise", "berger.kth_distinct_piecewise", _count_cells),
    ("cli", "eleven_slot_table", "berger.eleven_slot_table", None),
    ("cli", "distinct_spectrum_at", "berger.distinct_spectrum_at", _count_values),
    ("cli", "spectrum_with_multiplicity", "berger.spectrum_with_multiplicity", None),
    ("berger", "distinct_spectrum_at", "berger.distinct_spectrum_at", _count_values),
    ("cli", "sphere_spectrum", "spheres.sphere_spectrum", None),
    ("cli", "jacobi_shift", "jacobi.jacobi_shift", None),
    ("cli", "cp2_slice", "slices.cp2_slice", None),
    ("cli", "cp2_lambda1", "slices.cp2_lambda1", None),
    ("cli", "slice_spectrum", "slices.slice_spectrum", None),
    ("cli", "slice_index_nullity", "slices.slice_index_nullity", None),
    ("slices", "slice_spectrum", "slices.slice_spectrum", None),
    ("slices", "spectrum_with_multiplicity", "berger.spectrum_with_multiplicity", None),
    ("slices", "jacobi_shift", "jacobi.jacobi_shift", None),
    ("slices", "jacobi_spectrum", "jacobi.jacobi_spectrum", None),
    ("slices", "index_nullity", "jacobi.index_nullity", None),
    ("slices", "cp2_slice", "slices.cp2_slice", None),
    ("cli", "page_constants", "page.page_constants", None),
    ("cli", "page_transition_roots", "page.page_transition_roots", None),
    ("cli", "page_slice", "page.page_slice", None),
    ("cli", "page_index_nullity", "page.page_index_nullity", None),
    ("page", "page_shifted_lambda1", "page.page_shifted_lambda1", None),
    ("page", "find_root_bisection", "page.find_root_bisection", None),
    ("page", "page_slice", "page.page_slice", None),
    ("page", "slice_index_nullity", "slices.slice_index_nullity", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int


@dataclass
class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    request: int = -1
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child_time)]

    def summary(self) -> dict[str, float]:
        """calls and self_s per span name and per layer, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            layer = s.name.split(".", 1)[0]
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += own
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
        out.update(self.counts)
        return dict(out)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "request": s.request}
            for s in self.spans
        ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in BINDINGS for the duration of the block.

    A binding the package no longer has is skipped and reported on stderr,
    so a refactor that drops one records zero calls there instead of
    breaking the benchmark.
    """
    saved = []
    try:
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(f"bergerspec.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: bergerspec.{module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
