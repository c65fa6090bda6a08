"""Physical operator descriptors — the paper's topologically sorted list O.

The optimizer emits a :class:`PhysicalPlan`: an ordered list of operator
descriptors in which every operator consumes either base tables or the
output of an earlier operator (Section IV: "Each o_i has as input either
primary table(s), or the output of o_j, j < i").  The descriptor
"contains the algorithm to be used in the implementation of each
operator and additional information for initializing the code template
of this algorithm".

Descriptors are backend-neutral: the HIQUE code generator instantiates
templates from them, and the iterator engine builds a Volcano tree from
the very same plan, which is what makes the paper's iterators-vs-holistic
comparison apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.errors import PlanError
from repro.plan.layout import ColumnLayout
from repro.sql.bound import (
    BoundComparison,
    BoundExpr,
    BoundLiteral,
    BoundOutput,
    BoundParameter,
)
from repro.storage.table import Table

# -- staging preparation -----------------------------------------------------------

#: Preparation kinds applied while staging an input (Section V-B:
#: "sorting, partitioning, and a hybrid approach").
PREP_NONE = "none"
PREP_SORT = "sort"
PREP_PARTITION = "partition"
PREP_PARTITION_SORT = "partition_sort"  # hybrid hash-sort staging


@dataclass(frozen=True)
class Prep:
    """How an input is pre-processed during staging."""

    kind: str = PREP_NONE
    keys: tuple[int, ...] = ()
    num_partitions: int = 1
    fine: bool = False  # fine-grained (value-directory) partitioning

    def __post_init__(self) -> None:
        valid = (PREP_NONE, PREP_SORT, PREP_PARTITION, PREP_PARTITION_SORT)
        if self.kind not in valid:
            raise PlanError(f"unknown prep kind {self.kind!r}")
        if self.kind != PREP_NONE and not self.keys:
            raise PlanError(f"prep {self.kind!r} requires keys")


# -- index access --------------------------------------------------------------------


@dataclass(frozen=True)
class IndexAccess:
    """A B+-tree probe that can stand in for a scan's page walk.

    ``low``/``high`` are expressions over literals and parameters only
    (``None`` = open end), evaluated when the query runs.  The
    conjuncts they came from stay in the scan's ``filters``: the probe
    narrows which rows are read, the filters still decide which
    qualify, so an engine that ignores the annotation is still right.
    """

    column: str
    low: BoundExpr | None = None
    high: BoundExpr | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    @property
    def is_equality(self) -> bool:
        return self.low is not None and self.low is self.high

    def describe(self) -> str:
        """``index(id) [= ?]`` / ``index(id) [>= 10 AND < ?]``."""
        if self.is_equality:
            bounds = [f"= {_bound_text(self.low)}"]
        else:
            bounds = []
            if self.low is not None:
                op = ">=" if self.low_inclusive else ">"
                bounds.append(f"{op} {_bound_text(self.low)}")
            if self.high is not None:
                op = "<=" if self.high_inclusive else "<"
                bounds.append(f"{op} {_bound_text(self.high)}")
        return f"index({self.column}) [{' AND '.join(bounds)}]"


def _bound_text(expr: BoundExpr) -> str:
    if isinstance(expr, BoundParameter):
        return "?"
    if isinstance(expr, BoundLiteral):
        return repr(expr.value)
    return "expr"


# -- aggregate specification ----------------------------------------------------------

#: Aggregation algorithms (Section V-B).
AGG_SORT = "sort"
AGG_HYBRID = "hybrid"  # hybrid hash-sort
AGG_MAP = "map"  # value-directory map aggregation

#: Join algorithms (Section V-B).  All share the nested-loops template.
JOIN_MERGE = "merge"
JOIN_HASH = "hash"  # fine partition join (build/probe: Join.build_op)
JOIN_HYBRID = "hybrid"  # hybrid hash-sort-merge join
JOIN_NESTED = "nested"  # plain blocked nested loops (no staging order)


# -- operators ------------------------------------------------------------------------


@dataclass
class Operator:
    """Base descriptor: every operator owns an id and an output layout."""

    op_id: int
    output_layout: ColumnLayout
    #: Slot positions the output is sorted on, if any (interesting order).
    output_order: tuple[int, ...] = field(default=(), kw_only=True)

    @property
    def inputs(self) -> tuple[int, ...]:
        """Ids of the operators this one consumes (empty for scans)."""
        return ()


@dataclass
class ScanStage(Operator):
    """Stage one base table: scan, filter, project, optionally sort or
    partition — the paper's *data staging* step (one function per input).
    """

    binding: str = ""
    table: Table | None = None
    filters: tuple[BoundComparison, ...] = ()
    prep: Prep = field(default_factory=Prep)
    #: Set when a sargable filter hits an indexed column; whether the
    #: probe or the scan runs is decided from the data at run time.
    index: IndexAccess | None = None

    def __post_init__(self) -> None:
        if self.table is None:
            raise PlanError("ScanStage requires a table")

    @cached_property
    def staging_shape(self) -> tuple:
        """Everything but the parameter values that shapes the staged
        output (prep, projected columns, rendered filters): the
        intermediate cache's key part, rendered once per plan operator.
        """
        prep = self.prep
        return (
            self.binding,
            prep.kind,
            tuple(prep.keys),
            prep.num_partitions,
            prep.fine,
            tuple((s.binding, s.column) for s in self.output_layout.slots),
            repr(self.filters),
        )


@dataclass
class Restage(Operator):
    """Re-prepare an intermediate result for its next consumer."""

    input_op: int = -1
    prep: Prep = field(default_factory=Prep)

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.input_op,)


@dataclass
class Join(Operator):
    """Binary join instantiating the nested-loops template."""

    algorithm: str = JOIN_MERGE
    left_op: int = -1
    right_op: int = -1
    left_key: int = 0  # slot position of the key in the left input
    right_key: int = 0
    #: Further equi-join conjuncts between the same inputs, evaluated
    #: over the join's output layout.
    residuals: tuple[BoundComparison, ...] = ()
    #: Set for a build/probe hash join: the input staged as fine
    #: partitions ``{key: [rows]}``.  The other input, the probe side,
    #: arrives unprepared and is looked up row by row, so the output
    #: follows the probe rows' order.  None when both inputs are staged
    #: alike (merge, hybrid, the symmetric fine hash join, nested loops).
    build_op: int | None = None

    @property
    def probe_op(self) -> int | None:
        if self.build_op is None:
            return None
        return self.right_op if self.build_op == self.left_op else self.left_op

    @property
    def inputs(self) -> tuple[int, ...]:
        """``(left, right)``; ``(build, probe)`` for a build/probe join,
        the order its generated function takes them in."""
        if self.build_op is None:
            return (self.left_op, self.right_op)
        return (self.build_op, self.probe_op)


@dataclass
class MultiwayJoin(Operator):
    """A join team: n inputs joined on one key equivalence class in a
    single deeply-nested loop block without intermediate materialisation.
    """

    algorithm: str = JOIN_MERGE  # merge | hybrid
    input_ops: tuple[int, ...] = ()
    key_positions: tuple[int, ...] = ()  # one per input

    @property
    def inputs(self) -> tuple[int, ...]:
        return self.input_ops


@dataclass
class AggregateSpec:
    """One aggregate output: function + argument expression."""

    func: str  # sum | count | avg | min | max  (count with argument=None)
    argument: object | None  # BoundExpr over the input layout


@dataclass
class Aggregate(Operator):
    """Grouped aggregation; output columns follow the select list."""

    input_op: int = -1
    algorithm: str = AGG_SORT
    group_positions: tuple[int, ...] = ()
    outputs: tuple[BoundOutput, ...] = ()
    #: For map aggregation: estimated distinct count per group position,
    #: used to size the value directories and aggregate arrays.
    directory_sizes: tuple[int, ...] = ()

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.input_op,)


@dataclass
class Project(Operator):
    """Final expression evaluation for non-grouped queries."""

    input_op: int = -1
    outputs: tuple[BoundOutput, ...] = ()

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.input_op,)


@dataclass
class Sort(Operator):
    """Final ORDER BY over output rows (positions refer to the output)."""

    input_op: int = -1
    keys: tuple[tuple[int, bool], ...] = ()

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.input_op,)


@dataclass
class Limit(Operator):
    """Keep the first n output rows."""

    input_op: int = -1
    count: int = 0

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.input_op,)


@dataclass
class PhysicalPlan:
    """The ordered descriptor list plus result metadata."""

    operators: list[Operator] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    @property
    def root(self) -> Operator:
        if not self.operators:
            raise PlanError("empty plan")
        return self.operators[-1]

    def op(self, op_id: int) -> Operator:
        for operator in self.operators:
            if operator.op_id == op_id:
                return operator
        raise PlanError(f"no operator with id {op_id}")

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def fusable_consumer(self, scan: Operator) -> Aggregate | Join | None:
        """The operator ``scan`` can feed its rows into unstaged, or None.

        The one fusability rule: an unprepared scan (prep none) whose
        next operator is its sole consumer and either a map or global
        aggregate or the build/probe hash join it is the probe side of.
        Neither needs order in that input, so each can consume a row as
        the scan decodes it.
        """
        if not isinstance(scan, ScanStage) or scan.prep.kind != PREP_NONE:
            return None
        operators = self.operators
        index = next(i for i, op in enumerate(operators) if op is scan)
        if index + 1 == len(operators):
            return None
        following = operators[index + 1]
        if isinstance(following, Aggregate):
            if following.input_op != scan.op_id or (
                following.group_positions and following.algorithm != AGG_MAP
            ):
                return None
        elif not (
            isinstance(following, Join) and following.probe_op == scan.op_id
        ):
            return None
        consumers = sum(op.inputs.count(scan.op_id) for op in operators)
        return following if consumers == 1 else None

    def validate(self) -> None:
        """Check topological order: inputs precede consumers."""
        seen: set[int] = set()
        for operator in self.operators:
            for input_id in operator.inputs:
                if input_id not in seen:
                    raise PlanError(
                        f"operator {operator.op_id} consumes {input_id} "
                        f"before it is produced"
                    )
            if operator.op_id in seen:
                raise PlanError(f"duplicate operator id {operator.op_id}")
            seen.add(operator.op_id)

    def explain(self) -> str:
        """Human-readable plan description (for tests and examples)."""
        lines = []
        for operator in self.operators:
            kind = type(operator).__name__
            detail = ""
            lines.append(f"o{operator.op_id}: {kind}{operator_detail(operator)}")
        return "\n".join(lines)


def operator_detail(operator: Operator) -> str:
    """The per-kind suffix of one ``explain`` line."""
    if isinstance(operator, ScanStage):
        via = f" via {operator.index.describe()}" if operator.index else ""
        return (
            f" {operator.binding}{via} prep={operator.prep.kind}"
            f" filters={len(operator.filters)}"
        )
    if isinstance(operator, Join):
        if operator.build_op is not None:
            return (
                f" {operator.algorithm} build=o{operator.build_op} "
                f"probe=o{operator.probe_op}"
            )
        return (
            f" {operator.algorithm} ({operator.left_op} ⋈ "
            f"{operator.right_op})"
        )
    if isinstance(operator, MultiwayJoin):
        return f" {operator.algorithm} team{operator.input_ops}"
    if isinstance(operator, Aggregate):
        return f" {operator.algorithm} groups={operator.group_positions}"
    if isinstance(operator, Sort):
        return f" keys={operator.keys}"
    if isinstance(operator, Restage):
        return f" prep={operator.prep.kind} of {operator.input_op}"
    if isinstance(operator, Limit):
        return f" {operator.count}"
    return ""
