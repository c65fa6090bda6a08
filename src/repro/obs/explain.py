"""EXPLAIN ANALYZE rendering: a physical plan annotated with a trace.

Mirrors :meth:`PhysicalPlan.explain`'s ``o{op_id}: Kind detail`` shape
and appends what the span tree recorded per operator — wall time, rows,
morsel task count, queue wait, workers — plus query-wide totals
(preparation stages, buffer-pool traffic).  Works from a finished
:class:`~repro.obs.trace.Trace`, so it renders identically whether the
query took the serial walk or was scheduled on threads.
"""

from __future__ import annotations

from repro.obs.trace import Span, Trace
from repro.plan.descriptors import PhysicalPlan, operator_detail


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


def _node_spans(root: Span) -> dict[int, tuple[Span, bool]]:
    """op_id → (node span, primary?) over the whole span tree.

    A scheduler node may fuse several operators (``stage+join``); its
    span lists every covered id in ``op_ids``.  The *last* id is the
    node's output operator, where per-node annotations attach; the
    other ids render as fused references.
    """
    by_op: dict[int, tuple[Span, bool]] = {}
    for span in root.walk():
        if span.category != "node":
            continue
        raw = span.attrs.get("op_ids")
        if not raw:
            continue
        ids = [int(piece) for piece in str(raw).split(",") if piece]
        for op_id in ids:
            by_op[op_id] = (span, op_id == ids[-1])
    return by_op


def _task_stats(node: Span) -> tuple[int, float]:
    """(task count, total queue wait) of a node."""
    tasks = 0
    queue_seconds = 0.0
    for child in node.children:
        if child.category != "task":
            continue
        tasks += 1
        queue_seconds += float(child.attrs.get("queue_seconds", 0.0))
    return tasks, queue_seconds


def _annotate(span: Span) -> str:
    parts = [f"time={_ms(span.duration)}"]
    rows = span.attrs.get("rows")
    if rows is not None:
        parts.append(f"rows={rows}")
    tasks, queue_seconds = _task_stats(span)
    if tasks:
        parts.append(f"tasks={tasks}")
        parts.append(f"queue={_ms(queue_seconds)}")
        workers = span.attrs.get("workers")
        if workers:
            parts.append(f"workers={workers}")
    steals = span.attrs.get("affinity_steals")
    if steals is not None:
        parts.append(f"steals={steals}")
    if span.pages_hit or span.pages_missed:
        parts.append(
            f"pages={span.pages_hit}hit/{span.pages_missed}miss"
            f" ({_hit_rate(span.pages_hit, span.pages_missed)} hit)"
        )
    index = span.attrs.get("index")
    if index:
        parts.append(index)
    if span.attrs.get("staging_cached"):
        parts.append("staging: reused cached intermediate")
    extended = span.attrs.get("staging_extended")
    if extended:
        parts.append(f"staging: extended {extended}")
    fused = span.attrs.get("fused")
    if fused is not None:
        # Which path a fusable scan→consumer pair took, and why.
        consumer = span.attrs.get("consumer", "aggregate")
        path = f"fused scan→{consumer}" if fused else "staged"
        parts.append(f"{path}[{span.attrs.get('why', '')}]")
    if span.attrs.get("serial"):
        reason = span.attrs.get("serial_reason", "")
        flag = "serial-fallback"
        if reason:
            flag += f"[{reason}]"
        parts.append(flag)
    return "  (" + " ".join(parts) + ")"


def _hit_rate(hits: int, misses: int) -> str:
    total = hits + misses
    if not total:
        return "-%"
    return f"{hits * 100.0 / total:.0f}%"


def _page_totals(root: Span) -> tuple[int, int]:
    hits = misses = 0
    for span in root.walk():
        hits += span.pages_hit
        misses += span.pages_missed
    return hits, misses


def render_explain_analyze(plan: PhysicalPlan, trace: Trace) -> str:
    """The plan annotated with the trace's per-operator measurements."""
    root = trace.root
    execute = root.find("execute") or root
    prepare = root.find("prepare")
    by_op = _node_spans(root)

    lines: list[str] = []
    engine = execute.attrs.get("engine", "")
    header = "EXPLAIN ANALYZE"
    if engine:
        header += f" (engine={engine})"
    lines.append(header)

    for operator in plan.operators:
        kind = type(operator).__name__
        line = f"o{operator.op_id}: {kind}{operator_detail(operator)}"
        found = by_op.get(operator.op_id)
        if found is not None:
            span, primary = found
            if primary:
                line += _annotate(span)
            else:
                last = str(span.attrs.get("op_ids", "")).split(",")[-1]
                line += f"  (fused into o{last})"
        lines.append(line)

    total = execute.duration
    summary = [f"execution: {_ms(total)}"]
    why = execute.attrs.get("why")
    if execute.attrs.get("recycled") == "hit":
        summary.append(str(why))
    elif execute.attrs.get("scheduled") is False:
        summary.append(f"serial, not scheduled ({why})" if why else "serial")
    elif execute.attrs.get("parallel") is False:
        summary.append("serial")
    elif why:
        # A scheduled run's first note names the table with waiting
        # pages.
        summary.append(str(why).split(";")[0])
    rows = execute.attrs.get("rows")
    if rows is not None:
        summary.append(f"rows={rows}")
    hits, misses = _page_totals(root)
    if hits or misses:
        summary.append(
            f"buffer={hits}hit/{misses}miss "
            f"({_hit_rate(hits, misses)} hit)"
        )
    lines.append("")
    lines.append("; ".join(summary))

    if prepare is not None:
        stages = []
        for stage in ("parse", "optimize", "generate", "compile"):
            stage_span = prepare.find(stage)
            if stage_span is not None:
                stages.append(f"{stage}={_ms(stage_span.duration)}")
        line = f"preparation: {_ms(prepare.duration)}"
        if stages:
            line += " (" + " ".join(stages) + ")"
        lines.append(line)
    cache_hit = _cache_hit(root)
    if cache_hit is not None:
        lines.append(f"plan cache: {'hit' if cache_hit else 'miss'}")
    return "\n".join(lines)


def _cache_hit(root: Span) -> bool | None:
    for span in root.walk():
        if "cache_hit" in span.attrs:
            return bool(span.attrs["cache_hit"])
    return None
