"""Build a Volcano iterator tree from a physical plan.

The same optimizer output drives both backends: where HIQUE instantiates
code templates, this builder instantiates iterator objects.  Generic vs
optimized configuration controls predicate/projection code quality, and
an optional buffering flag (the System X analogue) inserts the blocking
buffer operator of [25] between operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.core.executor import build_agg_helpers
from repro.engines.volcano.aggregates import (
    HashAggregate,
    HybridAggregate,
    SortAggregate,
)
from repro.engines.volcano.base import Iterator
from repro.engines.volcano.joins import (
    FineHashJoin,
    HybridJoin,
    MergeJoin,
    NestedLoopsJoin,
    ProbeHashJoin,
)
from repro.engines.volcano.operators import (
    Buffer,
    Identity,
    Filter,
    LimitOperator,
    OrderBy,
    Project,
    SortOperator,
    TableScan,
    make_generic_projector,
)
from repro.errors import PlanError
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.plan.descriptors import (
    AGG_HYBRID,
    AGG_MAP,
    AGG_SORT,
    JOIN_HASH,
    JOIN_HYBRID,
    JOIN_MERGE,
    JOIN_NESTED,
    Aggregate,
    Join,
    Limit,
    MultiwayJoin,
    PhysicalPlan,
    PREP_SORT,
    Project as ProjectOp,
    Restage,
    ScanStage,
    Sort,
)
from repro.plan.expressions import (
    make_conjunction,
    make_evaluator,
    make_predicate,
)
from repro.plan.layout import ColumnLayout, ColumnSlot


@dataclass
class BuildOptions:
    """Code-quality knobs for the iterator engine."""

    generic: bool = False
    buffered: bool = False
    buffer_block: int = 128
    #: Emulate compiling without optimizations (Table II "-O0"): wrap
    #: every operator in an extra un-inlined call layer.
    deopt: bool = False


def build_tree(
    plan: PhysicalPlan,
    options: BuildOptions | None = None,
    probe: NullProbe = NULL_PROBE,
    params: tuple = (),
) -> Iterator:
    """Instantiate the iterator tree for a plan's root."""
    if options is None:
        options = BuildOptions()
    built: dict[int, Iterator] = {}
    for operator in plan.operators:
        node = _build_operator(plan, operator, built, options, probe, params)
        if options.deopt:
            node = Identity(node, probe)
        built[operator.op_id] = node
    return built[plan.root.op_id]


def _build_operator(
    plan: PhysicalPlan,
    operator,
    built: dict[int, Iterator],
    options: BuildOptions,
    probe: NullProbe,
    params: tuple = (),
) -> Iterator:
    if isinstance(operator, ScanStage):
        return _build_scan(operator, options, probe, params)
    if isinstance(operator, Restage):
        child = _maybe_buffer(built[operator.input_op], options, probe)
        if operator.prep.kind == PREP_SORT:
            return SortOperator(child, operator.prep.keys, probe)
        # Partition preps are handled inside the consuming join/aggregate.
        return child
    if isinstance(operator, Join):
        left = _maybe_buffer(built[operator.left_op], options, probe)
        right = _maybe_buffer(built[operator.right_op], options, probe)
        if operator.build_op is not None:
            build_left = operator.build_op == operator.left_op
            node: Iterator = ProbeHashJoin(
                left if build_left else right,
                right if build_left else left,
                operator.left_key if build_left else operator.right_key,
                operator.right_key if build_left else operator.left_key,
                build_left,
                probe,
            )
        elif operator.algorithm == JOIN_MERGE:
            node = MergeJoin(
                left, right, operator.left_key, operator.right_key, probe
            )
        elif operator.algorithm == JOIN_HYBRID:
            node = HybridJoin(
                left, right, operator.left_key, operator.right_key,
                probe=probe,
            )
        elif operator.algorithm == JOIN_HASH:
            node = FineHashJoin(
                left, right, operator.left_key, operator.right_key, probe
            )
        elif operator.algorithm == JOIN_NESTED:
            node = NestedLoopsJoin(left, right, probe)
        else:
            raise PlanError(
                f"unknown join algorithm {operator.algorithm!r}"
            )
        if operator.residuals:
            fused = make_conjunction(
                operator.residuals, operator.output_layout, params
            )
            node = Filter(node, [], fused=fused, probe=probe)
        return node
    if isinstance(operator, MultiwayJoin):
        # The iterator engine has no join teams (the paper's Figure 7(b)
        # compares HIQUE teams against binary iterator joins): decompose
        # into a left-deep cascade of binary merge joins.
        current = _maybe_buffer(built[operator.input_ops[0]], options, probe)
        current_key = operator.key_positions[0]
        merge_team = operator.algorithm == JOIN_MERGE
        for k in range(1, len(operator.input_ops)):
            right = _maybe_buffer(
                built[operator.input_ops[k]], options, probe
            )
            if merge_team:
                # Inputs were sort-staged: binary merge joins compose.
                current = MergeJoin(
                    current,
                    right,
                    current_key,
                    operator.key_positions[k],
                    probe,
                )
            else:
                # Inputs were partition-staged (unsorted): each binary
                # step re-partitions and sorts internally.
                current = HybridJoin(
                    current,
                    right,
                    current_key,
                    operator.key_positions[k],
                    probe=probe,
                )
        return current
    if isinstance(operator, Aggregate):
        child = _maybe_buffer(built[operator.input_op], options, probe)
        input_layout = plan.op(operator.input_op).output_layout
        helpers = build_agg_helpers(operator, input_layout, params)
        if not operator.group_positions or operator.algorithm == AGG_MAP:
            return HashAggregate(child, helpers, probe)
        if operator.algorithm == AGG_SORT:
            return SortAggregate(
                child, operator.group_positions, helpers, probe
            )
        if operator.algorithm == AGG_HYBRID:
            return HybridAggregate(
                child, operator.group_positions, helpers, probe=probe
            )
        raise PlanError(
            f"unknown aggregation algorithm {operator.algorithm!r}"
        )
    if isinstance(operator, ProjectOp):
        child = _maybe_buffer(built[operator.input_op], options, probe)
        input_layout = plan.op(operator.input_op).output_layout
        evaluators = [
            make_evaluator(output.expr, input_layout, params)
            for output in operator.outputs
        ]
        calls = len(evaluators) if options.generic else 1

        def projector(row: tuple, _evals=tuple(evaluators)) -> tuple:
            return tuple(evaluate(row) for evaluate in _evals)

        return Project(child, projector, calls, probe)
    if isinstance(operator, Sort):
        child = _maybe_buffer(built[operator.input_op], options, probe)
        return OrderBy(child, operator.keys, probe)
    if isinstance(operator, Limit):
        child = built[operator.input_op]
        return LimitOperator(child, operator.count, probe)
    raise PlanError(f"cannot build iterator for {type(operator).__name__}")


def _build_scan(
    operator: ScanStage,
    options: BuildOptions,
    probe: NullProbe,
    params: tuple = (),
) -> Iterator:
    table = operator.table
    node: Iterator = TableScan(table, generic=options.generic, probe=probe)
    table_layout = ColumnLayout(
        ColumnSlot(operator.binding, column.name, column.dtype)
        for column in table.schema
    )
    if operator.filters:
        if options.generic:
            conjuncts = [
                make_predicate(comparison, table_layout, params)
                for comparison in operator.filters
            ]
            node = Filter(node, conjuncts, fused=None, probe=probe)
        else:
            fused = make_conjunction(operator.filters, table_layout, params)
            node = Filter(node, [], fused=fused, probe=probe)
    positions = [
        table.schema.index_of(slot.column)
        for slot in operator.output_layout.slots
    ]
    if options.generic:
        projector, calls = make_generic_projector(positions)
        node = Project(node, projector, calls, probe)
    else:
        if len(positions) == 1:
            only = positions[0]
            projector = lambda row: (row[only],)  # noqa: E731
        else:
            getter = itemgetter(*positions)
            projector = lambda row: getter(row)  # noqa: E731
        node = Project(node, projector, 1, probe)
    if operator.prep.kind == PREP_SORT:
        node = SortOperator(node, operator.prep.keys, probe)
    # Partition preps are performed inside the consuming blocking
    # operator (HybridJoin/FineHashJoin/HybridAggregate).
    return _maybe_buffer(node, options, probe)


def _maybe_buffer(
    node: Iterator, options: BuildOptions, probe: NullProbe
) -> Iterator:
    if options.buffered:
        return Buffer(node, options.buffer_block, probe)
    return node
