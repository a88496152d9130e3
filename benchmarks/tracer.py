"""Spans and counters recorded from outside the program, by wrapping names.

A ``Probe`` names an attribute of a module or class (a function or method of
the program).  ``install`` replaces each with a wrapper that records a span
around the call, or only observes it, and returns a function that puts every
original back.  Spans are kept in memory and reduced after the run.

Time is wall time from ``time.perf_counter``.  A span's parent is the span
open on the same thread; a span that starts on a worker thread with nothing
open there (a cross-validation fold) is parented to the span open on the
thread that installed the probes, which is blocked waiting for the folds.
Self time is a span's interval minus the union of its children's intervals,
so overlapping children on two fold threads are not subtracted twice.
"""

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

Interval = tuple[float, float]


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: int | None  # index into Tracer.spans


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    samples: defaultdict[str, list] = field(default_factory=lambda: defaultdict(list))

    def __post_init__(self):
        self._root_thread = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks[thread]
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks[self._root_thread]
                parent = root[-1] if root and thread != self._root_thread else None
            stack.append(len(self.spans))
            record = Span(name, time.perf_counter(), 0.0, thread, parent)
            self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            with self._lock:
                stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].append(value)

    # ------------------------------------------------------------ reduction

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(index)
        return kids

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def self_intervals(self, index: int, kids: dict[int, list[int]]) -> list[Interval]:
        span = self.spans[index]
        covered = [(self.spans[k].start, self.spans[k].end) for k in kids.get(index, ())]
        return subtract((span.start, span.end), covered)


def union(intervals: list[Interval]) -> list[Interval]:
    """Sorted, disjoint cover of the given intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def subtract(interval: Interval, covered: list[Interval]) -> list[Interval]:
    """The parts of ``interval`` not covered by any of ``covered``."""
    start, end = interval
    parts = []
    for a, b in union(covered):
        if b <= start or a >= end:
            continue
        if a > start:
            parts.append((start, a))
        start = max(start, b)
    if start < end:
        parts.append((start, end))
    return parts


def measure(intervals: list[Interval]) -> float:
    return sum(b - a for a, b in union(intervals))


# ---------------------------------------------------------------- probes

Observer = Callable[[Tracer, tuple, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr``; ``span`` names the span (None: observe only)."""

    owner: object
    attr: str
    span: str | Callable[[tuple], str] | None
    observe: Observer | None = None


def _wrap(tracer: Tracer, probe: Probe, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if probe.span is None:
            result = original(*args, **kwargs)
        else:
            name = probe.span if isinstance(probe.span, str) else probe.span(args)
            with tracer.span(name):
                result = original(*args, **kwargs)
        if probe.observe is not None:
            probe.observe(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, probes: list[Probe]) -> Callable[[], None]:
    """Wrap every probed attribute; the returned function restores the originals."""
    originals = []
    try:
        for probe in probes:
            # vars() gives the plain function of a method, not a bound one
            original = vars(probe.owner)[probe.attr]
            originals.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, _wrap(tracer, probe, original))
    except BaseException:
        _restore(originals)
        raise
    return functools.partial(_restore, originals)


def _restore(originals) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)
