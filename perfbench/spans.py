"""Spans recorded from outside the program.

A :class:`Tracer` wraps calls into ``tuning``'s public functions (and the
CLI's model loader) by patching the names a caller looks them up by, for
the duration of one traced op. Each span records its name, start, end,
op id and parent span; spans are kept in memory and written out when the
run ends. A span's self time is its duration minus its direct children's
durations; calls are single-threaded, so children never overlap.

With ``measure_memory`` the tracer also records each span's peak traced
allocation (tracemalloc, which numpy reports to) above the level at entry.
That mode slows Python code, so its timings are discarded.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    peak_mib: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer(name: str) -> str:
    """Layer of a span: the module prefix of its name (``cli.main`` -> ``cli``)."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, measure_memory: bool = False) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.measure_memory = measure_memory
        self._stack: list[int] = []
        self._memory: list[list[int]] = []  # [base, running peak] per open span
        self._op = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, op=self._op, parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        if self.measure_memory:
            self._enter_memory()
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if self.measure_memory:
                record.peak_mib = self._exit_memory()
            self._stack.pop()

    def _enter_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._memory:
            # the counter is about to be reset: keep the enclosing span's peak
            self._memory[-1][1] = max(self._memory[-1][1], peak)
        self._memory.append([current, current])
        tracemalloc.reset_peak()

    def _exit_memory(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, top = self._memory.pop()
        top = max(top, peak)
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], top)
        return (top - base) / MIB

    @contextmanager
    def op(self, op_id: str, root: str):
        """All spans opened inside belong to ``op_id``, under a root span."""
        self._op = op_id
        try:
            with self.span(root) as record:
                yield record
        finally:
            self._op = ""

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, targets: list[tuple[str, str, str]]):
        """Route ``module.attr`` through a span called ``name`` for each
        (module, attr, name) target. A name the module no longer has is
        skipped and listed in ``missing``; its time stays in the caller."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.duration
    return selfs


@dataclass
class OpTotals:
    """Per-op sums: durations by span name, self times by span name and by
    layer, and the root span's duration."""

    duration: dict[str, float]
    self_time: dict[str, float]
    layer_self: dict[str, float]
    calls: dict[str, int]
    root: float


def per_op(spans: list[Span], layers: tuple[str, ...]) -> dict[str, OpTotals]:
    """Group spans by op. Spans whose layer is not in ``layers`` (the
    harness's own root span) add to no layer's self time."""
    selfs = self_times(spans)
    ops: dict[str, OpTotals] = {}
    for s, own in zip(spans, selfs):
        totals = ops.get(s.op)
        if totals is None:
            totals = ops[s.op] = OpTotals(defaultdict(float), defaultdict(float), defaultdict(float), defaultdict(int), 0.0)
        totals.duration[s.name] += s.duration
        totals.self_time[s.name] += own
        totals.calls[s.name] += 1
        if layer(s.name) in layers:
            totals.layer_self[layer(s.name)] += own
        if s.parent is None:
            totals.root += s.duration
    return ops


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
