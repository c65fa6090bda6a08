"""Typed, name-resolved query representation produced by the binder.

Bound expressions reference columns by *(binding name, column name)* —
the binding name is the FROM-clause alias (or the table name when no
alias is given).  Later stages (optimizer, code generator, iterator
engines) map these references to physical slots of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.table import Table
from repro.storage.types import DataType


class BoundExpr:
    """Base class for bound scalar expressions."""

    dtype: DataType


@dataclass(frozen=True)
class BoundColumn(BoundExpr):
    """A resolved column reference."""

    binding: str  # FROM-clause binding (alias or table name), lowercased
    column: str  # column name as stored in the table schema
    dtype: DataType

    def display(self) -> str:
        return f"{self.binding}.{self.column}"


@dataclass(frozen=True)
class BoundLiteral(BoundExpr):
    """A typed constant (dates already folded to day ordinals)."""

    value: Any
    dtype: DataType


#: Placeholder type for parameters the binder has not yet inferred; it
#: never survives binding — every :class:`BoundParameter` in a finished
#: :class:`BoundQuery` carries a real type.
UNTYPED = DataType("PARAM", "param", 0, "x")


@dataclass(frozen=True)
class BoundParameter(BoundExpr):
    """An execute-time parameter: ``params[index]`` in generated code.

    Parameterized code generation references the parameter vector
    instead of an inlined constant, so one compiled plan serves every
    execution of the statement shape.
    """

    index: int
    dtype: DataType


def is_untyped_parameter(expr: BoundExpr) -> bool:
    """Whether ``expr`` is a parameter still awaiting type inference."""
    return isinstance(expr, BoundParameter) and expr.dtype is UNTYPED


@dataclass(frozen=True)
class BoundArithmetic(BoundExpr):
    """Typed binary arithmetic."""

    op: str
    left: BoundExpr
    right: BoundExpr
    dtype: DataType


@dataclass(frozen=True)
class BoundAggregate(BoundExpr):
    """A typed aggregate call; ``argument`` is None for COUNT(*)."""

    func: str
    argument: BoundExpr | None
    dtype: DataType


@dataclass(frozen=True)
class BoundComparison:
    """One typed conjunct of the WHERE clause."""

    op: str
    left: BoundExpr
    right: BoundExpr


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join conjunct between two different bindings."""

    left: BoundColumn
    right: BoundColumn

    def bindings(self) -> tuple[str, str]:
        return (self.left.binding, self.right.binding)

    def column_for(self, binding: str) -> BoundColumn:
        if self.left.binding == binding:
            return self.left
        if self.right.binding == binding:
            return self.right
        raise KeyError(binding)


@dataclass(frozen=True)
class BoundOutput:
    """One output column: its name, bound expression and role."""

    name: str
    expr: BoundExpr
    dtype: DataType
    kind: str  # "group" | "aggregate" | "plain"


@dataclass
class BoundTable:
    """A FROM-clause entry resolved against the catalog."""

    binding: str
    table: Table

    @property
    def row_count(self) -> int:
        return self.table.num_rows


@dataclass
class BoundQuery:
    """The binder's output: everything the optimizer needs."""

    tables: list[BoundTable] = field(default_factory=list)
    filters: dict[str, list[BoundComparison]] = field(default_factory=dict)
    joins: list[JoinPredicate] = field(default_factory=list)
    select: list[BoundOutput] = field(default_factory=list)
    group_by: list[BoundColumn] = field(default_factory=list)
    order_by: list[tuple[int, bool]] = field(default_factory=list)
    limit: int | None = None
    #: How many execute-time parameters the query references.
    num_params: int = 0

    @property
    def has_aggregates(self) -> bool:
        return any(o.kind == "aggregate" for o in self.select)

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by) or self.has_aggregates

    def binding(self, name: str) -> BoundTable:
        for bound in self.tables:
            if bound.binding == name:
                return bound
        raise KeyError(name)

    def output_names(self) -> list[str]:
        return [o.name for o in self.select]


# -- DML -----------------------------------------------------------------------


@dataclass
class BoundInsert:
    """A typed INSERT: one expression list per row, in schema order."""

    table: Table
    #: Each inner list has exactly one expression per schema column.
    rows: list[list[BoundExpr]] = field(default_factory=list)
    num_params: int = 0


@dataclass(frozen=True)
class BoundAssignment:
    """One SET item of an UPDATE, resolved to a schema column position."""

    position: int
    column: str
    expr: BoundExpr


@dataclass
class BoundUpdate:
    """A typed UPDATE over a single table."""

    table: Table
    binding: str
    assignments: list[BoundAssignment] = field(default_factory=list)
    where: list[BoundComparison] = field(default_factory=list)
    num_params: int = 0


@dataclass
class BoundDelete:
    """A typed DELETE over a single table."""

    table: Table
    binding: str
    where: list[BoundComparison] = field(default_factory=list)
    num_params: int = 0


#: Union of everything :meth:`repro.sql.binder.Binder.bind_statement`
#: can return.
BoundStatement = BoundQuery | BoundInsert | BoundUpdate | BoundDelete


def columns_in(expr: BoundExpr) -> list[BoundColumn]:
    """All column references inside a bound expression, in visit order."""
    out: list[BoundColumn] = []
    _collect_columns(expr, out)
    return out


def _collect_columns(expr: BoundExpr, out: list[BoundColumn]) -> None:
    if isinstance(expr, BoundColumn):
        out.append(expr)
    elif isinstance(expr, BoundArithmetic):
        _collect_columns(expr.left, out)
        _collect_columns(expr.right, out)
    elif isinstance(expr, BoundAggregate) and expr.argument is not None:
        _collect_columns(expr.argument, out)


def parameters_in(expr: BoundExpr) -> list[BoundParameter]:
    """All parameter references inside a bound expression."""
    if isinstance(expr, BoundParameter):
        return [expr]
    if isinstance(expr, BoundArithmetic):
        return parameters_in(expr.left) + parameters_in(expr.right)
    if isinstance(expr, BoundAggregate) and expr.argument is not None:
        return parameters_in(expr.argument)
    return []


def bindings_in(expr: BoundExpr) -> set[str]:
    """The set of table bindings an expression touches."""
    return {c.binding for c in columns_in(expr)}


def param_dtypes_of(bound: BoundQuery) -> dict[int, DataType]:
    """Parameter index → resolved type, across a whole bound query.

    The engine uses this to re-bind a statement (fallback re-planning)
    without repeating type inference.
    """
    dtypes: dict[int, DataType] = {}

    def walk(expr: BoundExpr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, BoundParameter):
            dtypes[expr.index] = expr.dtype
        elif isinstance(expr, BoundArithmetic):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, BoundAggregate):
            walk(expr.argument)

    for output in bound.select:
        walk(output.expr)
    for comparisons in bound.filters.values():
        for comparison in comparisons:
            walk(comparison.left)
            walk(comparison.right)
    return dtypes
