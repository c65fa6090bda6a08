"""Low-overhead span tracing for one query's execution tree.

A :class:`Tracer` records a :class:`Trace` — a tree of :class:`Span`
objects — per query: parse → bind → plan → codegen → each operator of
the run (stage / join / aggregate / sort), stamped with monotonic
timestamps, thread ids, rows and bytes.

Overhead discipline (tracing is *off* by default):

* The hot gate is a module-level integer, ``_ENABLED_TRACERS``.  When
  zero, :func:`current_span` and the buffer-pool hook return after one
  global read and one ``ContextVar.get`` — no allocation, no locking.
* Span propagation uses a :class:`contextvars.ContextVar`.  Pool
  threads start from an *empty* context, so code that hands work to
  one re-activates the parent span explicitly via
  :meth:`Span.activate`.
* Child spans are appended with ``list.append`` — atomic under the
  GIL — so siblings on different threads never take a lock.

Timestamps are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux), so
spans recorded on different threads share one timeline.  Exports: plain JSON (span tree) and Chrome
``trace_event`` JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "current_span",
    "maybe_span",
    "record_page_access",
    "suppress_overhead_probe",
]

#: Number of enabled tracers in the process.  The single-read fast gate:
#: when zero, every hook in the hot path returns immediately.
_ENABLED_TRACERS = 0

#: The active span for the current logical context (task/thread).
_ACTIVE: ContextVar["Span | None"] = ContextVar("repro_active_span", default=None)

#: When set, instrumentation behaves as if the module were absent —
#: used by the overhead benchmark to measure the cost of the disabled
#: hooks themselves against a no-hook control.
_SUPPRESSED = False

_span_ids = itertools.count(1)


def current_span() -> "Span | None":
    """The span the calling context should attach children to.

    Near-free when no tracer is enabled: one global int read.
    """
    if not _ENABLED_TRACERS or _SUPPRESSED:
        return None
    return _ACTIVE.get()


@contextmanager
def maybe_span(name: str, category: str = "", **attrs: Any) -> Iterator["Span | None"]:
    """Open a child of the current span, or do nothing if untraced."""
    parent = current_span()
    if parent is None:
        yield None
        return
    span = parent.child(name, category, **attrs)
    token = _ACTIVE.set(span)
    try:
        yield span
    finally:
        _ACTIVE.reset(token)
        span.finish()


def record_page_access(hit: bool) -> None:
    """Attribute one buffer-pool access to the active span (if any).

    Called by the buffer manager on every page touch; must be near-free
    when tracing is off, and lock-free when on (int adds on the span
    are GIL-atomic; a rare lost update under thread races costs one
    count, never a crash).
    """
    if not _ENABLED_TRACERS or _SUPPRESSED:
        return
    span = _ACTIVE.get()
    if span is None:
        return
    if hit:
        span.pages_hit += 1
    else:
        span.pages_missed += 1


@contextmanager
def suppress_overhead_probe() -> Iterator[None]:
    """Disable even the cheap disabled-path hooks (benchmark control).

    The observability bench compares instrumented-but-disabled against
    this mode to bound the overhead the hooks add to a build that never
    traces.
    """
    global _SUPPRESSED
    previous = _SUPPRESSED
    _SUPPRESSED = True
    try:
        yield
    finally:
        _SUPPRESSED = previous


class Span:
    """One timed node of a query's trace tree."""

    __slots__ = (
        "span_id",
        "name",
        "category",
        "start",
        "end",
        "thread_id",
        "pid",
        "attrs",
        "children",
        "trace",
        "pages_hit",
        "pages_missed",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        category: str = "",
        start: float | None = None,
        end: float | None = None,
        thread_id: int | None = None,
        pid: int | None = None,
        **attrs: Any,
    ):
        self.span_id = next(_span_ids)
        self.trace = trace
        self.name = name
        self.category = category
        self.start = time.perf_counter() if start is None else start
        self.end = end
        self.thread_id = threading.get_ident() if thread_id is None else thread_id
        self.pid = os.getpid() if pid is None else pid
        self.attrs: dict[str, Any] = attrs
        self.children: list[Span] = []
        self.pages_hit = 0
        self.pages_missed = 0

    # -- structure -----------------------------------------------------------
    def child(
        self,
        name: str,
        category: str = "",
        start: float | None = None,
        end: float | None = None,
        thread_id: int | None = None,
        pid: int | None = None,
        **attrs: Any,
    ) -> "Span":
        """Create (and attach) a child span.

        ``list.append`` is GIL-atomic, so concurrent threads can
        attach siblings to one parent without a lock.  The trace's span
        budget bounds memory on degenerate queries.
        """
        trace = self.trace
        if not trace.admit():
            return _DROPPED_SPAN_FACTORY(trace, name)
        span = Span(
            trace,
            name,
            category,
            start=start,
            end=end,
            thread_id=thread_id,
            pid=pid,
            **attrs,
        )
        self.children.append(span)
        return span

    def finish(self, end: float | None = None) -> None:
        if self.end is None:
            self.end = time.perf_counter() if end is None else end

    @contextmanager
    def activate(self) -> Iterator["Span"]:
        """Make this span the active parent for the calling context.

        Used by pool threads (which start from an empty context) to
        re-establish the submitting code's span before running work.
        """
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # -- data ----------------------------------------------------------------
    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def bump(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric attribute (rows, bytes, tasks...)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str | None = None, category: str | None = None) -> list["Span"]:
        out = []
        for span in self.walk():
            if name is not None and span.name != name:
                continue
            if category is not None and span.category != category:
                continue
            out.append(span)
        return out

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "pid": self.pid,
        }
        if self.pages_hit or self.pages_missed:
            data["pages_hit"] = self.pages_hit
            data["pages_missed"] = self.pages_missed
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


def _DROPPED_SPAN_FACTORY(trace: "Trace", name: str) -> "Span":
    # Budget exhausted: hand back a detached span so callers still work,
    # but nothing further is recorded in the tree.
    return Span(trace, name, category="dropped")


class Trace:
    """The span tree recorded for one query."""

    #: Span budget per trace — bounds memory on degenerate queries.
    MAX_SPANS = 20000

    def __init__(self, name: str, **attrs: Any):
        #: Wall-clock anchor so monotonic stamps can be mapped to real time.
        self.wall_time = time.time()
        self._span_budget = self.MAX_SPANS
        self.dropped_spans = 0
        self.root = Span(self, name, category="query", **attrs)

    def admit(self) -> bool:
        # GIL-atomic enough: a slight overshoot under races is harmless.
        if self._span_budget <= 0:
            self.dropped_spans += 1
            return False
        self._span_budget -= 1
        return True

    def finish(self) -> None:
        self.root.finish()

    # -- export --------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.root.name,
            "wall_time": self.wall_time,
            "dropped_spans": self.dropped_spans,
            "root": self.root.to_dict(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def to_chrome_trace(self) -> str:
        """Chrome ``trace_event`` JSON — load in Perfetto or chrome://tracing.

        Complete events (``ph: "X"``) with microsecond timestamps
        relative to the trace root; ``pid``/``tid`` come from the span,
        so spans from other threads appear on their own tracks.
        """
        origin = self.root.start
        events: list[dict[str, Any]] = []
        for span in self.root.walk():
            end = span.end if span.end is not None else span.start
            args: dict[str, Any] = {
                k: v for k, v in span.attrs.items()
                if isinstance(v, (int, float, str, bool))
            }
            if span.pages_hit or span.pages_missed:
                args["pages_hit"] = span.pages_hit
                args["pages_missed"] = span.pages_missed
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": max(0.0, (end - span.start) * 1e6),
                    "pid": span.pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace": self.root.name,
                "wall_time": self.wall_time,
            },
        }
        return json.dumps(payload, indent=None, sort_keys=True, default=str)


class Tracer:
    """Per-database span recorder.

    ``enabled`` gates everything: when off, :meth:`span` yields ``None``
    without touching the context var, and the module-level fast gate
    keeps hooks elsewhere near-free.  Finished root traces land in a
    bounded deque; :meth:`last_trace` returns the most recent.
    """

    MAX_TRACES = 16

    def __init__(self, enabled: bool = False):
        self._enabled = False
        self._lock = threading.Lock()
        self.traces: deque[Trace] = deque(maxlen=self.MAX_TRACES)
        #: Called with each finished root trace (workload profiling).
        #: Listener exceptions are swallowed and counted: observability
        #: must never fail the query it observed.
        self._listeners: list = []
        self.listener_errors = 0
        if enabled:
            self.enabled = True

    # -- trace listeners -----------------------------------------------------
    def add_trace_listener(self, listener) -> None:
        """Register a callable invoked with every finished root trace."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_trace_listener(self, listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, trace: "Trace") -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(trace)
            except Exception:
                self.listener_errors += 1

    # -- enablement ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        global _ENABLED_TRACERS
        value = bool(value)
        with self._lock:
            if value == self._enabled:
                return
            self._enabled = value
            _ENABLED_TRACERS += 1 if value else -1

    @contextmanager
    def ensure_enabled(self) -> Iterator[None]:
        """Temporarily enable tracing (EXPLAIN ANALYZE path)."""
        was = self.enabled
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = was

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "", **attrs: Any) -> Iterator[Span | None]:
        """Open a span: child of the active one, else a new root trace."""
        if not self._enabled or _SUPPRESSED:
            yield None
            return
        parent = _ACTIVE.get()
        if parent is not None:
            span = parent.child(name, category, **attrs)
            trace = None
        else:
            trace = Trace(name, **attrs)
            span = trace.root
            span.category = category or "query"
        token = _ACTIVE.set(span)
        try:
            yield span
        finally:
            _ACTIVE.reset(token)
            span.finish()
            if trace is not None:
                trace.finish()
                with self._lock:
                    self.traces.append(trace)
                self._notify(trace)

    def last_trace(self) -> Trace | None:
        with self._lock:
            return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        with self._lock:
            self.traces.clear()
