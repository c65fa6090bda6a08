"""DML execution: bound INSERT/UPDATE/DELETE against the storage layer.

DML is engine-independent — every front-end (SQL shell, prepared
statements, TCP server) routes mutations here.  The caller holds the
catalog's write gate, so execution never races a reader: a query either
sees the table wholly before or wholly after the mutation, and the
table's version epoch moves *before* the gate is released, which is
what makes version-keyed caches (staged intermediates, DSM columns)
coherent without further locking.  UPDATE and DELETE hand the storage
layer the same sargable index bounds the optimizer would probe for a
scan, so a point or narrow-range write touches only the rows the index
names.

Expression evaluation reuses the plan layer's closures
(:func:`~repro.plan.expressions.make_evaluator` /
:func:`make_conjunction`), so ``?`` parameters behave exactly as they
do in SELECT — including ``SET a = a + ?`` reading the pre-update row.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConstraintError, StorageError
from repro.plan.expressions import make_conjunction, make_evaluator
from repro.plan.layout import ColumnLayout, ColumnSlot
from repro.plan.optimizer import index_access_for
from repro.sql.bound import (
    BoundArithmetic,
    BoundDelete,
    BoundInsert,
    BoundParameter,
    BoundStatement,
    BoundUpdate,
)
from repro.storage.btree import KeyRange
from repro.storage.catalog import Catalog
from repro.storage.table import Table

__all__ = [
    "execute_dml",
    "dml_param_dtypes",
    "dml_table",
]


def dml_table(bound: BoundInsert | BoundUpdate | BoundDelete) -> Table:
    """The single table a bound DML statement mutates."""
    return bound.table


def dml_param_dtypes(bound: BoundStatement) -> dict[int, Any]:
    """Parameter index → resolved type across a bound DML statement.

    Mirrors :func:`repro.sql.bound.param_dtypes_of` for queries; the
    service uses it to validate execute-time parameter vectors.
    """
    dtypes: dict[int, Any] = {}

    def walk(expr: Any) -> None:
        if isinstance(expr, BoundParameter):
            dtypes[expr.index] = expr.dtype
        elif isinstance(expr, BoundArithmetic):
            walk(expr.left)
            walk(expr.right)

    if isinstance(bound, BoundInsert):
        for row in bound.rows:
            for expr in row:
                walk(expr)
        return dtypes
    if isinstance(bound, BoundUpdate):
        for assignment in bound.assignments:
            walk(assignment.expr)
    for comparison in bound.where:
        walk(comparison.left)
        walk(comparison.right)
    return dtypes


def _table_layout(binding: str, table: Table) -> ColumnLayout:
    return ColumnLayout(
        ColumnSlot(binding, column.name, column.dtype)
        for column in table.schema
    )


def _key_range(
    table: Table, where, layout: ColumnLayout, params: Sequence[Any]
) -> KeyRange | None:
    """The index bounds every row matching ``where`` satisfies, if a
    conjunct is sargable on an indexed column — the same choice the
    optimizer makes for a scan, with the bounds evaluated now."""
    access = index_access_for(table, where)
    if access is None:
        return None

    def value(expr):
        if expr is None:
            return None
        return make_evaluator(expr, layout, params)(())

    return KeyRange(
        access.column,
        value(access.low),
        value(access.high),
        access.low_inclusive,
        access.high_inclusive,
    )


def execute_dml(
    catalog: Catalog,
    bound: BoundInsert | BoundUpdate | BoundDelete,
    params: Sequence[Any] = (),
) -> int:
    """Run one bound DML statement; returns the affected-row count.

    The caller must hold ``catalog.gate.write()``.  When any row
    actually changed, the table version has already advanced and
    :meth:`Catalog.notify_dml` has fired before this returns, so
    listeners (plan cache, intermediate cache, insights) observe the
    new epoch while the gate is still held.
    """
    before = bound.table.version
    try:
        if isinstance(bound, BoundInsert):
            return _execute_insert(bound, params)
        if isinstance(bound, BoundUpdate):
            return _execute_update(bound, params)
        if isinstance(bound, BoundDelete):
            return _execute_delete(bound, params)
        raise ConstraintError(f"not a DML statement: {bound!r}")
    finally:
        # Notify on *any* version movement — including a failed UPDATE
        # that rewrote some pages before erroring — so caches keyed on
        # the old epoch never survive a partial mutation.
        if bound.table.version != before:
            catalog.notify_dml(bound.table.name)


def _execute_insert(bound: BoundInsert, params: Sequence[Any]) -> int:
    table = bound.table
    layout = _table_layout(table.name.lower(), table)
    rows: list[tuple] = []
    for exprs in bound.rows:
        evaluators = [
            make_evaluator(expr, layout, params) for expr in exprs
        ]
        rows.append(tuple(evaluate(()) for evaluate in evaluators))
    # Validate every row encodes before touching the heap, so a value
    # that does not fit (string wider than its CHAR column) rejects the
    # whole statement instead of applying a prefix of it.
    encode = table.schema.encode
    try:
        for row in rows:
            encode(row)
    except (StorageError, TypeError, ValueError) as exc:
        raise ConstraintError(str(exc)) from exc
    return table.append_rows(rows)


def _execute_update(bound: BoundUpdate, params: Sequence[Any]) -> int:
    table = bound.table
    layout = _table_layout(bound.binding, table)
    predicate = make_conjunction(bound.where, layout, params)
    assignments = [
        (a.position, make_evaluator(a.expr, layout, params))
        for a in bound.assignments
    ]

    def updater(row: tuple) -> list[Any]:
        values = list(row)
        for position, evaluate in assignments:
            values[position] = evaluate(row)
        return values

    try:
        return table.update_rows(
            predicate, updater, _key_range(table, bound.where, layout, params)
        )
    except (StorageError, TypeError, ValueError) as exc:
        raise ConstraintError(str(exc)) from exc


def _execute_delete(bound: BoundDelete, params: Sequence[Any]) -> int:
    table = bound.table
    layout = _table_layout(bound.binding, table)
    predicate = make_conjunction(bound.where, layout, params)
    return table.delete_rows(
        predicate, _key_range(table, bound.where, layout, params)
    )
