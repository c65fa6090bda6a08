"""Benchmark-owned spans: recorded around calls into the program.

The program has its own tracer (``repro.obs``); this one is the
benchmark's, so that a per-layer number means the same thing before and
after a change to the program's instrumentation.  Spans live in memory
and are written out when the workload ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class Span:
    """One timed interval: name, layer, start, end, cause, request."""

    __slots__ = (
        "id", "name", "layer", "start", "end", "parent", "request", "attrs",
    )

    def __init__(self, id, name, layer, start, parent, request):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        #: Counts read off the finished call (rows, bytes, phase times).
        self.attrs: dict[str, Any] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; wraps entry points in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def begin(
        self,
        name: str,
        layer: str,
        parent: int | None = None,
        request: Any = None,
    ) -> Span:
        """Open a span that is not tied to this thread's call stack —
        for coroutines, which interleave on one thread."""
        return Span(
            next(self._ids), name, layer, time.perf_counter(), parent, request
        )

    def finish(self, span: Span, end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        self.spans.append(span)

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        parent: int | None = None,
        request: Any = None,
    ) -> Iterator[Span]:
        """Time the enclosed block.  Parent and request default to the
        span open on this thread; pass them to adopt work that crossed
        a thread boundary."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            if parent is None:
                parent = stack[-1].id
            if request is None:
                request = stack[-1].request
        span = self.begin(name, layer, parent, request)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.finish(span)

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        after: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function, or a method on a
        class or instance) by a version that records a span per call.
        ``after(span, args, result)`` reads counts off a finished call
        into ``span.attrs``.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = original
        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Install a hand-written wrapper; :meth:`unwrap_all` undoes it."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def write(self, path: Path, origin: float, **header: Any) -> None:
        """Dump every span, times relative to ``origin``, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(header)
        body["spans"] = [
            {
                "id": s.id,
                "name": s.name,
                "layer": s.layer,
                "start": round(s.start - origin, 7),
                "end": round(s.end - origin, 7),
                "parent": s.parent,
                "request": s.request,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        path.write_text(json.dumps(body, separators=(",", ":")) + "\n")


def covered(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``
    (which may overlap each other and overhang the bounds)."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of that
    interval its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.seconds
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
