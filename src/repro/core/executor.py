"""The execution context: what generated code cannot embed.

* the bindings' tables (resolved through the catalogue at load time);
* the probe (a real :class:`~repro.memsim.Probe` for traced runs, the
  shared no-op otherwise);
* for ``O0`` code, the generic per-operator closures (predicates,
  projectors, aggregation helpers) the un-inlined templates call —
  this is precisely the interpretive overhead ``O2`` generation removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.emitter import OPT_O2
from repro.core.templates.aggregate import collect_aggregates
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.plan.descriptors import (
    Aggregate,
    PhysicalPlan,
    Project,
    ScanStage,
)
from repro.plan.expressions import make_conjunction, make_evaluator
from repro.plan.layout import ColumnLayout, ColumnSlot
from repro.sql.bound import (
    BoundAggregate,
    BoundArithmetic,
    BoundColumn,
    BoundExpr,
    BoundParameter,
)
from repro.storage.table import Table


@dataclass
class AggHelpers:
    """Closure bundle the O0 aggregation template calls into."""

    key_fn: Callable[[tuple], tuple]
    init: Callable[[], list]
    update: Callable[[list, tuple], None]
    finalize: Callable[[tuple, list], tuple]


@dataclass
class QueryContext:
    """Everything a compiled query needs at run time."""

    tables: dict[str, Table] = field(default_factory=dict)
    probe: NullProbe = NULL_PROBE
    #: Execute-time parameter vector; generated parameterized code reads
    #: ``ctx.params[i]`` where it would otherwise inline a constant.
    params: tuple = ()
    predicates: dict[int, Callable | None] = field(default_factory=dict)
    projectors: dict[int, Callable | None] = field(default_factory=dict)
    agg_helpers: dict[int, AggHelpers] = field(default_factory=dict)


def build_context(
    plan: PhysicalPlan,
    probe: NullProbe = NULL_PROBE,
    opt_level: str = OPT_O2,
    params: tuple = (),
) -> QueryContext:
    """Resolve tables and (for O0) prepare the generic closures."""
    ctx = QueryContext(probe=probe, params=tuple(params))
    for operator in plan.operators:
        if isinstance(operator, ScanStage):
            ctx.tables[operator.binding] = operator.table
    if opt_level == OPT_O2:
        return ctx

    for operator in plan.operators:
        if isinstance(operator, ScanStage):
            layout = _table_layout(operator.binding, operator.table)
            ctx.predicates[operator.op_id] = (
                make_conjunction(operator.filters, layout, ctx.params)
                if operator.filters
                else None
            )
            positions = [
                operator.table.schema.index_of(slot.column)
                for slot in operator.output_layout.slots
            ]
            ctx.projectors[operator.op_id] = _tuple_projector(positions)
        elif isinstance(operator, Project):
            input_layout = plan.op(operator.input_op).output_layout
            evaluators = [
                make_evaluator(output.expr, input_layout, ctx.params)
                for output in operator.outputs
            ]
            ctx.projectors[operator.op_id] = _expr_projector(evaluators)
        elif isinstance(operator, Aggregate):
            input_layout = plan.op(operator.input_op).output_layout
            ctx.agg_helpers[operator.op_id] = build_agg_helpers(
                operator, input_layout, ctx.params
            )
    return ctx


# -- O0 helper construction ------------------------------------------------------------


def _table_layout(binding: str, table: Table) -> ColumnLayout:
    return ColumnLayout(
        ColumnSlot(binding, column.name, column.dtype)
        for column in table.schema
    )


def _tuple_projector(positions: list[int]) -> Callable[[tuple], tuple]:
    if len(positions) == 1:
        only = positions[0]
        return lambda row: (row[only],)

    def project(row: tuple) -> tuple:
        return tuple(row[p] for p in positions)

    return project


def _expr_projector(evaluators: list[Callable]) -> Callable[[tuple], tuple]:
    def project(row: tuple) -> tuple:
        return tuple(evaluate(row) for evaluate in evaluators)

    return project


class _GenericAggState:
    """Mutable accumulator mirroring the generated accumulators."""

    __slots__ = ("func", "count", "total", "minimum", "maximum")

    def __init__(self, func: str):
        self.func = func
        self.count = 0
        self.total: Any = 0
        self.minimum: Any = None
        self.maximum: Any = None

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count if self.count else None
        if self.func == "min":
            return self.minimum
        return self.maximum


def build_agg_helpers(
    operator: Aggregate,
    input_layout: ColumnLayout,
    params: tuple = (),
) -> AggHelpers:
    """Closure bundle implementing the operator's aggregation semantics."""
    aggregates = collect_aggregates(operator)
    arg_evaluators = [
        make_evaluator(node.argument, input_layout, params)
        if node.argument is not None
        else None
        for node in aggregates
    ]
    state_index = {node: k for k, node in enumerate(aggregates)}
    group_positions = operator.group_positions
    position_of = {pos: i for i, pos in enumerate(group_positions)}

    def key_fn(row: tuple) -> tuple:
        return tuple(row[p] for p in group_positions)

    def init() -> list[_GenericAggState]:
        return [_GenericAggState(node.func) for node in aggregates]

    def update(states: list[_GenericAggState], row: tuple) -> None:
        for k, node in enumerate(aggregates):
            state = states[k]
            evaluate = arg_evaluators[k]
            state.count += 1
            if evaluate is None:
                continue
            value = evaluate(row)
            if node.func in ("sum", "avg"):
                state.total += value
            elif node.func == "min":
                if state.minimum is None or value < state.minimum:
                    state.minimum = value
            elif node.func == "max":
                if state.maximum is None or value > state.maximum:
                    state.maximum = value

    def eval_output(
        expr: BoundExpr, key: tuple, states: list[_GenericAggState]
    ) -> Any:
        if isinstance(expr, BoundAggregate):
            return states[state_index[expr]].result()
        if isinstance(expr, BoundArithmetic):
            left = eval_output(expr.left, key, states)
            right = eval_output(expr.right, key, states)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right
        if isinstance(expr, BoundColumn):
            return key[position_of[input_layout.position(expr)]]
        if isinstance(expr, BoundParameter):
            return params[expr.index]
        return expr.value  # BoundLiteral

    def finalize(key: tuple, states: list[_GenericAggState]) -> tuple:
        return tuple(
            eval_output(output.expr, key, states)
            for output in operator.outputs
        )

    return AggHelpers(key_fn=key_fn, init=init, update=update, finalize=finalize)
