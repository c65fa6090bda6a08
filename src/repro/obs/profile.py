"""Aggregated operator profiles: fold span trees across queries.

A single trace answers "where did *this* query spend its time"; the
:class:`ProfileAggregator` answers the workload-level question — where
do *all* queries spend staging vs join vs aggregate — by
folding every finished span tree into two bounded structures:

* a **path tree** keyed by normalized span names (``ScanStage o1`` and
  ``ScanStage o7`` fold into one ``ScanStage`` node), each node
  carrying call count, inclusive/self seconds, rows and buffer
  traffic — rendered as a text flamegraph;
* **per-kind totals** over the same normalized names, rendered as a
  ranked table.

Self time is inclusive time minus the children's inclusive time,
clamped at zero, so a child span recorded on another thread can never
print a negative slice.

Memory is bounded regardless of workload shape: each tree node keeps
at most :data:`ProfileNode.MAX_CHILDREN` distinct children (overflow
folds into a ``<other>`` bucket) and normalization collapses the
per-query id/ordinal variation that would otherwise grow the tree.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.trace import Span, Trace

__all__ = [
    "KindTotals",
    "ProfileAggregator",
    "ProfileNode",
    "normalize_span_name",
]

#: ``ScanStage o1+Aggregate o2`` → ``ScanStage+Aggregate``;
#: ``task 12`` → ``task``.  One pattern handles both: strip a trailing
#: ``\d+`` token (with its separating space) wherever it follows a word.
_ID_TOKEN = re.compile(r" (?:o)?\d+\b")


def normalize_span_name(span: Span) -> str:
    """Fold per-query ids out of a span name for cross-query grouping."""
    return _ID_TOKEN.sub("", span.name)


@dataclass
class KindTotals:
    """Workload-wide accumulation for one normalized span kind."""

    kind: str
    spans: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    rows: int = 0
    pages_hit: int = 0
    pages_missed: int = 0


class ProfileNode:
    """One node of the folded path tree (normalized name → totals)."""

    #: Distinct children kept per node; the long tail folds into
    #: ``<other>`` so adversarial name diversity cannot grow the tree.
    MAX_CHILDREN = 32

    __slots__ = (
        "name",
        "count",
        "seconds",
        "self_seconds",
        "rows",
        "pages_hit",
        "pages_missed",
        "children",
    )

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.rows = 0
        self.pages_hit = 0
        self.pages_missed = 0
        self.children: dict[str, ProfileNode] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            if len(self.children) >= self.MAX_CHILDREN:
                name = "<other>"
                node = self.children.get(name)
                if node is not None:
                    return node
            node = self.children[name] = ProfileNode(name)
        return node

    def walk(self) -> Iterable["ProfileNode"]:
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "count": self.count,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "rows": self.rows,
        }
        if self.pages_hit or self.pages_missed:
            data["pages_hit"] = self.pages_hit
            data["pages_missed"] = self.pages_missed
        if self.children:
            data["children"] = [c.to_dict() for c in self.children.values()]
        return data


@dataclass
class _Folded:
    """One span's contribution, precomputed outside the lock."""

    path: tuple[str, ...]
    seconds: float
    self_seconds: float
    rows: int
    pages_hit: int
    pages_missed: int
    kind: str = field(default="")


class ProfileAggregator:
    """Folds finished traces into the bounded workload profile."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.root = ProfileNode("workload")
        self.traces = 0
        self._kinds: dict[str, KindTotals] = {}

    # -- folding -------------------------------------------------------------
    def add_trace(self, trace: Trace) -> None:
        """Fold one finished span tree into the aggregate."""
        contributions = list(self._fold(trace.root, ()))
        with self._lock:
            self.traces += 1
            for item in contributions:
                node = self.root
                for name in item.path:
                    node = node.child(name)
                node.count += 1
                node.seconds += item.seconds
                node.self_seconds += item.self_seconds
                node.rows += item.rows
                node.pages_hit += item.pages_hit
                node.pages_missed += item.pages_missed
                totals = self._kinds.get(item.kind)
                if totals is None:
                    totals = self._kinds[item.kind] = KindTotals(item.kind)
                totals.spans += 1
                totals.seconds += item.seconds
                totals.self_seconds += item.self_seconds
                totals.rows += item.rows
                totals.pages_hit += item.pages_hit
                totals.pages_missed += item.pages_missed

    def _fold(
        self, span: Span, prefix: tuple[str, ...]
    ) -> Iterable[_Folded]:
        name = normalize_span_name(span)
        path = prefix + (name,)
        child_seconds = 0.0
        for child in span.children:
            child_seconds += child.duration
            yield from self._fold(child, path)
        rows = span.attrs.get("rows")
        yield _Folded(
            path=path,
            seconds=span.duration,
            self_seconds=max(0.0, span.duration - child_seconds),
            rows=int(rows) if isinstance(rows, (int, float)) else 0,
            pages_hit=span.pages_hit,
            pages_missed=span.pages_missed,
            kind=self._kind(span, name),
        )

    @staticmethod
    def _kind(span: Span, name: str) -> str:
        if span.category == "prepare":
            return f"prepare:{name}"
        return name

    # -- introspection -------------------------------------------------------
    def kind_totals(self) -> list[KindTotals]:
        """Per-kind totals, most self-time first."""
        with self._lock:
            snapshot = [
                KindTotals(**vars(t)) for t in self._kinds.values()
            ]
        snapshot.sort(key=lambda t: t.self_seconds, reverse=True)
        return snapshot

    def reset(self) -> None:
        with self._lock:
            self.root = ProfileNode("workload")
            self.traces = 0
            self._kinds.clear()

    # -- rendering -----------------------------------------------------------
    def render_text(self, max_depth: int = 8, bar_width: int = 20) -> str:
        """Text flamegraph plus the per-kind ranking."""
        with self._lock:
            traces = self.traces
        if not traces:
            return "operator profile: no traces folded yet"
        lines = [f"operator profile: {traces} trace(s) folded"]
        with self._lock:
            total = sum(
                c.seconds for c in self.root.children.values()
            )
            for top in self._ranked(self.root):
                lines.extend(
                    self._render_node(top, total, 0, max_depth, bar_width)
                )
        kinds = self.kind_totals()
        if kinds:
            lines.append("")
            lines.append(
                f"{'kind':<28} {'spans':>7} {'self ms':>10} "
                f"{'total ms':>10} {'rows':>10}"
            )
            for totals in kinds[:16]:
                lines.append(
                    f"{totals.kind[:28]:<28} {totals.spans:>7} "
                    f"{totals.self_seconds * 1000:>10.2f} "
                    f"{totals.seconds * 1000:>10.2f} "
                    f"{totals.rows:>10}"
                )
        return "\n".join(lines)

    @staticmethod
    def _ranked(node: ProfileNode) -> list[ProfileNode]:
        return sorted(
            node.children.values(), key=lambda c: c.seconds, reverse=True
        )

    def _render_node(
        self,
        node: ProfileNode,
        total: float,
        depth: int,
        max_depth: int,
        bar_width: int,
    ) -> list[str]:
        share = node.seconds / total if total > 0 else 0.0
        bar = "#" * max(1, round(share * bar_width)) if share > 0 else ""
        parts = [
            f"{'  ' * depth}{node.name}",
            f"{share * 100:5.1f}%",
            f"{node.seconds * 1000:9.2f}ms",
            f"x{node.count}",
        ]
        if node.pages_hit or node.pages_missed:
            parts.append(f"pages={node.pages_hit}h/{node.pages_missed}m")
        lines = [" ".join(parts) + (f"  {bar}" if bar else "")]
        if depth + 1 < max_depth:
            for child in self._ranked(node):
                lines.extend(
                    self._render_node(
                        child, total, depth + 1, max_depth, bar_width
                    )
                )
        return lines
