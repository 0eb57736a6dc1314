"""In-memory span tracer for the benchmark's traced runs.

A span is one call through a traced binding: its name, start, end, the span
that was open when it began (its parent) and an optional tag.  Spans stay
in memory until the run ends and writes them out.  Calls made on worker
threads take as parent the span open on the thread that installed the
tracer, which is blocked in the call that fanned the work out.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; `wrap` makes a traced copy of a function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             tag: str | None = None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, tag))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def wrap(self, name: str, fn: Callable,
             on_return: Callable | None = None) -> Callable:
        """Traced stand-in for fn.  on_return(tracer, result, bound_args)
        derives counters from a call's arguments and result."""
        if on_return is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        else:
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self.call(name, fn, args, kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, result, bound.arguments)
                return result
        return traced


def covered_time(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = self.children.get(span.sid, ())
        return span.duration - covered_time(
            span.start, span.end, ((k.start, k.end) for k in kids))

    def descendants(self, span: Span) -> set[int]:
        out: set[int] = set()
        todo = [span.sid]
        while todo:
            for kid in self.children.get(todo.pop(), ()):
                out.add(kid.sid)
                todo.append(kid.sid)
        return out

    def named(self, name: str, within: set[int] | None = None) -> list[Span]:
        spans = self.by_name.get(name, [])
        if within is None:
            return spans
        return [s for s in spans if s.sid in within]

    def total(self, name: str, within: set[int] | None = None) -> float:
        """Summed duration of the spans called `name` (over all threads)."""
        return sum(s.duration for s in self.named(name, within))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def tagged(self, tag: str) -> Span | None:
        for s in self.spans:
            if s.tag == tag:
                return s
        return None
