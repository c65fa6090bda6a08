"""Aggregation templates: sort, hybrid hash-sort, and map aggregation.

Section V-B of the paper.  All three inline group tracking and aggregate
updates into a single code block: "the lack of function calls is
particularly important in aggregation".

* **sort aggregation** — input sorted on the grouping attributes; one
  linear scan detects group boundaries and folds aggregates on the fly.
* **hybrid hash-sort** — input partitioned on the first grouping
  attribute with each partition sorted on all of them; the sort-scan
  body runs per partition.
* **map aggregation** — one value directory per grouping attribute plus
  one array per aggregate function; each tuple's group maps to a scalar
  offset via the formula of Figure 4(b):
  ``offset = Σ_i M_i[v_i] · Π_{j>i} |M_j|``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.emitter import Emitter, GenContext
from repro.core.templates.staging import ScanLoop
from repro.errors import CodegenError
from repro.memsim import costs
from repro.plan.descriptors import (
    AGG_HYBRID,
    AGG_MAP,
    AGG_SORT,
    Aggregate,
    ScanStage,
)
from repro.plan.expressions import (
    PARAMS_LOCAL,
    comparisons_contain_parameter,
    contains_parameter,
    expr_source_resolved,
)
from repro.plan.layout import ColumnLayout
from repro.sql.bound import (
    BoundAggregate,
    BoundArithmetic,
    BoundColumn,
    BoundExpr,
    columns_in,
)
from repro.storage.types import DOUBLE


def collect_aggregates(op: Aggregate) -> list[BoundAggregate]:
    """Unique aggregate nodes across the operator's outputs, in order."""
    seen: dict[BoundAggregate, None] = {}

    def walk(expr: BoundExpr) -> None:
        if isinstance(expr, BoundAggregate):
            seen.setdefault(expr, None)
        elif isinstance(expr, BoundArithmetic):
            walk(expr.left)
            walk(expr.right)

    for output in op.outputs:
        walk(output.expr)
    return list(seen)


#: Accumulators each aggregate function keeps, in update order.
_KINDS = {
    "sum": ("sum",),
    "avg": ("sum", "count"),
    "count": ("count",),
    "min": ("min",),
    "max": ("max",),
}
_PREFIX = {"sum": "s", "count": "c", "min": "m", "max": "x"}
#: Slot of each accumulator kind in a ``*_partial`` 4-slot state.
_SLOT = {"sum": 0, "count": 1, "min": 2, "max": 3}


@dataclass(frozen=True)
class _Accumulator:
    kind: str
    argument: BoundExpr | None
    zero: str
    #: Index of the first aggregate node it serves (whose partial
    #: state it updates).
    owner: int


def _canonical(expr: BoundExpr) -> str:
    """Source text identifying an expression independently of layout."""
    return expr_source_resolved(expr, BoundColumn.display)


class _AggCompiler:
    """Accumulator planning and per-row code shared by all algorithms.

    Untraced O2 code computes what the aggregates have in common once:
    SUM(x) and AVG(x) keep one sum, every count aggregate reads one
    count, and an argument subexpression several accumulators use is
    hoisted into a per-row local (``_e0 = ...``).  Evaluation order and
    operand grouping are unchanged, so float results are bit-identical.
    Traced and O0 modules keep one accumulator per aggregate and inline
    arguments: the code the paper-facing measurements were taken on.
    """

    def __init__(
        self, op: Aggregate, input_layout: ColumnLayout, share: bool
    ):
        self.op = op
        self.input_layout = input_layout
        self.aggregates = collect_aggregates(op)
        #: aggregate node → accumulator kind → variable name.
        self.acc_vars: dict[BoundAggregate, dict[str, str]] = {}
        #: variable name → accumulator, in update order.
        self.accumulators: dict[str, _Accumulator] = {}
        shared: dict[tuple, str] = {}
        for k, node in enumerate(self.aggregates):
            names: dict[str, str] = {}
            for kind in _KINDS[node.func]:
                if kind == "sum":
                    zero = "0.0" if node.dtype == DOUBLE else "0"
                else:
                    zero = "0" if kind == "count" else "None"
                argument = None if kind == "count" else node.argument
                key = (
                    kind,
                    zero,
                    None if argument is None else _canonical(argument),
                )
                var = shared.get(key) if share else None
                if var is None:
                    var = shared[key] = f"{_PREFIX[kind]}{k}"
                    self.accumulators[var] = _Accumulator(
                        kind, argument, zero, k
                    )
                names[kind] = var
            self.acc_vars[node] = names
        #: Canonical text of the argument subexpressions hoisted into
        #: per-row locals.
        self.repeated = (
            self._repeated_subexpressions() if share else frozenset()
        )

    def _repeated_subexpressions(self) -> frozenset[str]:
        """Canonical text of each arithmetic argument subexpression that
        more than one accumulator (or hoisted parent) evaluates."""
        counts: dict[str, int] = {}

        def visit(expr: BoundExpr) -> None:
            if isinstance(expr, BoundArithmetic):
                key = _canonical(expr)
                counts[key] = counts.get(key, 0) + 1
                if counts[key] == 1:
                    # A repeat is evaluated once, children included.
                    visit(expr.left)
                    visit(expr.right)

        for acc in self.accumulators.values():
            if acc.argument is not None:
                visit(acc.argument)
        return frozenset(key for key, n in counts.items() if n > 1)

    def row_column(self, row_var: str) -> Callable[[BoundColumn], str]:
        """Column spelling over a staged input row."""
        layout = self.input_layout
        return lambda column: f"{row_var}[{layout.position(column)}]"

    # -- per-group accumulator lifecycle --------------------------------------
    def init_lines(self) -> list[str]:
        return [
            f"{var} = {acc.zero}" for var, acc in self.accumulators.items()
        ]

    def row_lines(
        self,
        column: Callable[[BoundColumn], str],
        target: Callable[[str, _Accumulator], str],
    ) -> list[str]:
        """One row's hoisted subexpressions, then its updates.

        ``column`` spells a column reference; ``target(var, acc)`` the
        accumulator's storage (a local, an array cell, a state slot).
        """
        hoisted: list[str] = []
        names: dict[str, str] = {}

        def render(expr: BoundExpr) -> str:
            if not isinstance(expr, BoundArithmetic):
                return expr_source_resolved(expr, column)
            key = _canonical(expr) if self.repeated else None
            if key in names:
                return names[key]
            source = f"({render(expr.left)} {expr.op} {render(expr.right)})"
            if key not in self.repeated:
                return source
            name = names[key] = f"_e{len(names)}"
            hoisted.append(f"{name} = {source}")
            return name

        updates: list[str] = []
        for var, acc in self.accumulators.items():
            slot = target(var, acc)
            if acc.kind == "count":
                updates.append(f"{slot} += 1")
                continue
            arg = render(acc.argument)
            if acc.kind == "sum":
                updates.append(f"{slot} += {arg}")
            else:
                compare = "<" if acc.kind == "min" else ">"
                updates.append(f"_v = {arg}")
                updates.append(f"if {slot} is None or _v {compare} {slot}:")
                updates.append(f"    {slot} = _v")
        return hoisted + updates

    # -- morsel-parallel partial states ----------------------------------------
    #
    # The parallel executor merges per-morsel partials represented as one
    # 4-slot list ``[sum, count, minimum, maximum]`` per aggregate node —
    # a shape that merges without knowing the aggregate function (sums
    # and counts add, minima/maxima compare).  A shared accumulator
    # updates its owner's slot; the other nodes' slots are copied from
    # it once per group (:meth:`partial_copies`).

    def partial_init_source(self) -> str:
        """Source of a fresh per-group partial-state list."""
        parts = []
        for node in self.aggregates:
            zero = "0.0" if node.dtype == DOUBLE else "0"
            parts.append(f"[{zero}, 0, None, None]")
        return "[" + ", ".join(parts) + "]"

    def partial_owners(self) -> list[int]:
        """Nodes whose state slots the per-row updates write."""
        return sorted({acc.owner for acc in self.accumulators.values()})

    @staticmethod
    def partial_slot(var: str, acc: _Accumulator) -> str:
        return f"_a{acc.owner}[{_SLOT[acc.kind]}]"

    def partial_copies(self) -> list[str]:
        """Per-group lines filling shared slots from their owners'."""
        lines = []
        for k, node in enumerate(self.aggregates):
            for kind, var in self.acc_vars[node].items():
                owner = self.accumulators[var].owner
                if owner != k:
                    slot = _SLOT[kind]
                    lines.append(f"_st[{k}][{slot}] = _st[{owner}][{slot}]")
        return lines

    def result_source(self, node: BoundAggregate) -> str:
        names = self.acc_vars[node]
        if node.func == "sum":
            return names["sum"]
        if node.func == "count":
            return names["count"]
        if node.func == "avg":
            return (
                f"(({names['sum']} / {names['count']}) "
                f"if {names['count']} else None)"
            )
        if node.func == "min":
            return names["min"]
        return names["max"]

    # -- output row -------------------------------------------------------------
    def output_tuple_source(
        self, group_var: Callable[[int], str]
    ) -> str:
        """Source of the output tuple given group-key variable naming.

        ``group_var(i)`` names the value of the i-th grouping attribute.
        """
        position_of = {
            pos: i for i, pos in enumerate(self.op.group_positions)
        }

        def resolve(column: BoundColumn) -> str:
            input_pos = self.input_layout.position(column)
            if input_pos not in position_of:
                raise CodegenError(
                    f"non-grouped column {column.display()} in aggregate "
                    f"output"
                )
            return group_var(position_of[input_pos])

        parts = []
        for output in self.op.outputs:
            parts.append(self._output_expr(output.expr, resolve))
        inner = ", ".join(parts)
        return f"({inner},)" if len(parts) == 1 else f"({inner})"

    def _output_expr(
        self, expr: BoundExpr, resolve: Callable[[BoundColumn], str]
    ) -> str:
        if isinstance(expr, BoundAggregate):
            return self.result_source(expr)
        if isinstance(expr, BoundArithmetic):
            left = self._output_expr(expr.left, resolve)
            right = self._output_expr(expr.right, resolve)
            return f"({left} {expr.op} {right})"
        return expr_source_resolved(expr, resolve)


def emit_aggregate(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    func_name: str,
    input_layout: ColumnLayout,
    scan: ScanStage | None = None,
) -> None:
    """Emit the aggregation function(s) for one Aggregate descriptor.

    ``scan`` is the input scan this aggregate fuses with (see
    :meth:`~repro.plan.descriptors.PhysicalPlan.fusable_consumer`).
    The function then takes ``rows=None``: called without rows it runs
    the scan's page loop with the aggregate's update inlined, for runs
    whose staging would not be kept.  ``<name>_scan`` names that entry.
    """
    compiler = _AggCompiler(
        op, input_layout, share=gen.optimized and not gen.traced
    )
    if not op.group_positions:
        _emit_global_aggregate(em, gen, op, func_name, compiler, scan)
        _emit_partial_aggregate(em, gen, op, func_name, compiler)
    elif op.algorithm == AGG_MAP:
        _emit_map_aggregate(em, gen, op, func_name, compiler, scan)
        _emit_partial_aggregate(em, gen, op, func_name, compiler)
    elif op.algorithm == AGG_SORT:
        _emit_sorted_aggregate(em, gen, op, func_name, compiler, hybrid=False)
    elif op.algorithm == AGG_HYBRID:
        _emit_sorted_aggregate(em, gen, op, func_name, compiler, hybrid=True)
    else:  # pragma: no cover - guarded by the optimizer
        raise AssertionError(op.algorithm)


def _emit_input_loop(
    em: Emitter,
    gen: GenContext,
    compiler: _AggCompiler,
    scan: ScanStage | None,
    fold_row: Callable,
    raw_slots: frozenset[int] = frozenset(),
) -> None:
    """The loop feeding the aggregate: ``for row in rows``, and with a
    fused ``scan`` the scan's page loop when ``rows`` is None.

    ``fold_row(em, column, slot, value)`` emits one row's update,
    spelling a column reference through ``column``, input slot ``i``
    through ``slot(i)`` and its decoded value through ``value(i)`` —
    in the page loop the slots in ``raw_slots`` may hold padded bytes
    (see :class:`ScanLoop`).  Both loops fold rows in scan order, so
    every accumulator sees the same operations in the same order.
    """

    def staged(em: Emitter) -> None:
        def slot(i: int) -> str:
            return f"row[{i}]"

        fold_row(em, compiler.row_column("row"), slot, slot)

    if scan is None:
        with em.block("for row in rows:"):
            staged(em)
        return
    loop = ScanLoop(gen, scan, raw_slots)
    with em.block("if rows is None:"):
        loop.emit_prologue(em)
        loop.emit_pages(
            em,
            lambda em: fold_row(
                em, loop.resolve, loop.slot_var, loop.slot_value
            ),
            "range(table.num_pages)",
        )
    with em.block("else:"):
        with em.block("for row in rows:"):
            staged(em)


@contextmanager
def _aggregate_def(
    em: Emitter, op: Aggregate, func_name: str, scan: ScanStage | None
) -> Iterator[None]:
    """A map/global aggregation function: its ``def``, the parameter
    hoist, the body, and the ``_scan`` alias of a fused one."""
    rows = "rows" if scan is None else "rows=None"
    with em.block(f"def {func_name}(ctx, {rows}):"):
        if _uses_params(op) or (
            scan is not None and comparisons_contain_parameter(scan.filters)
        ):
            em.emit(f"{PARAMS_LOCAL} = ctx.params")
        yield
    em.emit()
    if scan is not None:
        em.emit(f"{func_name}_scan = {func_name}")
        em.emit()


def _scalar(var: str, acc: _Accumulator) -> str:
    return var


def _array_cell(var: str, acc: _Accumulator) -> str:
    return f"a_{var}[_g]"


# -- global (group-less) aggregation ---------------------------------------------------


def _emit_global_aggregate(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    func_name: str,
    compiler: _AggCompiler,
    scan: ScanStage | None,
) -> None:
    row_bytes = len(compiler.input_layout) * 8

    def fold_row(em: Emitter, column, slot, value) -> None:
        if gen.traced:
            em.emit(f"_probe.load(_ib + _ri * {row_bytes}, {row_bytes})")
            em.emit("_ri += 1")
            em.emit(f"_probe.instr({_update_instr(compiler)})")
        for line in compiler.row_lines(column, _scalar):
            em.emit(line)

    with _aggregate_def(em, op, func_name, scan):
        for line in compiler.init_lines():
            em.emit(line)
        if gen.traced:
            em.emit("_probe = ctx.probe")
            em.emit("_ib = ctx.probe.space.alloc(len(rows) * "
                    f"{row_bytes} + 64)")
            em.emit("_ri = 0")
        _emit_input_loop(em, gen, compiler, scan, fold_row)
        em.emit(
            f"return [{compiler.output_tuple_source(lambda i: '_none_')}]"
        )


# -- morsel-parallel partial aggregation -------------------------------------------------


def _emit_partial_aggregate(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    func_name: str,
    compiler: _AggCompiler,
) -> None:
    """Emit the thread-local partial entry point ``<name>_partial``.

    Emitted for the aggregation kinds whose input needs no global order
    (ungrouped aggregation and value-directory map aggregation): each
    parallel worker folds its morsels' staged rows into per-group 4-slot
    states, which the executor merges and finalizes (see
    :func:`repro.parallel.executor.merge_aggregate_partials`).
    """
    with em.block(f"def {func_name}_partial(ctx, rows):"):
        if gen.optimized:
            _emit_partial_body(em, op, compiler)
        else:
            em.emit(
                f"return _rt.generic_partial(rows, "
                f"ctx.agg_helpers[{op.op_id}])"
            )
    em.emit()


def _emit_partial_body(
    em: Emitter, op: Aggregate, compiler: _AggCompiler
) -> None:
    if _uses_params(op):
        em.emit(f"{PARAMS_LOCAL} = ctx.params")
    updates = compiler.row_lines(
        compiler.row_column("row"), compiler.partial_slot
    )
    copies = compiler.partial_copies()
    if not op.group_positions:
        with em.block("if not rows:"):
            em.emit("return {}")
        em.emit(f"_st = {compiler.partial_init_source()}")
        for k in compiler.partial_owners():
            em.emit(f"_a{k} = _st[{k}]")
        with em.block("for row in rows:"):
            for line in updates:
                em.emit(line)
        for line in copies:
            em.emit(line)
        em.emit("return {(): _st}")
        return
    em.emit("groups = {}")
    em.emit("get = groups.get")
    key_parts = ", ".join(
        f"row[{position}]" for position in op.group_positions
    )
    if len(op.group_positions) == 1:
        key_parts += ","
    with em.block("for row in rows:"):
        em.emit(f"_k = ({key_parts})")
        em.emit("_st = get(_k)")
        with em.block("if _st is None:"):
            em.emit(f"_st = groups[_k] = {compiler.partial_init_source()}")
        for k in compiler.partial_owners():
            em.emit(f"_a{k} = _st[{k}]")
        for line in updates:
            em.emit(line)
    if copies:
        with em.block("for _st in groups.values():"):
            for line in copies:
                em.emit(line)
    em.emit("return groups")


# -- sort / hybrid aggregation ----------------------------------------------------------


def _emit_sorted_aggregate(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    func_name: str,
    compiler: _AggCompiler,
    hybrid: bool,
) -> None:
    if not gen.optimized:
        _emit_generic_aggregate(em, op, func_name, hybrid)
        return
    row_bytes = len(compiler.input_layout) * 8
    argument = "parts" if hybrid else "rows"
    with em.block(f"def {func_name}(ctx, {argument}):"):
        if _uses_params(op):
            em.emit(f"{PARAMS_LOCAL} = ctx.params")
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            em.emit("_probe = ctx.probe")
            em.emit("_ib = ctx.probe.space.alloc(1 << 26)")
            em.emit("_ri = 0")
        if hybrid:
            with em.block("for rows in parts:"):
                _emit_sorted_scan_body(em, gen, op, compiler, row_bytes)
        else:
            _emit_sorted_scan_body(em, gen, op, compiler, row_bytes)
        em.emit("return out")
    em.emit()


def _emit_sorted_scan_body(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    compiler: _AggCompiler,
    row_bytes: int,
) -> None:
    """Linear scan over group-sorted rows with inline group tracking."""
    positions = op.group_positions
    em.emit("n = len(rows)")
    em.emit("i = 0")
    with em.block("while i < n:"):
        em.emit("row = rows[i]")
        for g, position in enumerate(positions):
            em.emit(f"gk{g} = row[{position}]")
        for line in compiler.init_lines():
            em.emit(line)
        with em.block("while i < n:"):
            em.emit("row = rows[i]")
            if gen.traced:
                em.emit(f"_probe.load(_ib + _ri * {row_bytes}, {row_bytes})")
                em.emit("_ri += 1")
                em.emit(f"_probe.instr({_update_instr(compiler)})")
            boundary = " or ".join(
                f"row[{position}] != gk{g}"
                for g, position in enumerate(positions)
            )
            with em.block(f"if {boundary}:"):
                em.emit("break")
            column = compiler.row_column("row")
            for line in compiler.row_lines(column, _scalar):
                em.emit(line)
            em.emit("i += 1")
        em.emit(
            f"append({compiler.output_tuple_source(lambda g: f'gk{g}')})"
        )


# -- map aggregation ------------------------------------------------------------------------


class _MapShape:
    """Directory sizes and the offset formula of Figure 4(b)."""

    def __init__(self, op: Aggregate):
        self.sizes = [max(s, 1) for s in op.directory_sizes]
        self.groups = 1
        for size in self.sizes:
            self.groups *= size
        #: Multiplier for directory i: product of |M_j| for j > i.
        self.multipliers = []
        for g in range(len(self.sizes)):
            product = 1
            for j in range(g + 1, len(self.sizes)):
                product *= self.sizes[j]
            self.multipliers.append(product)


def _emit_map_init(
    em: Emitter, compiler: _AggCompiler, shape: _MapShape
) -> None:
    for g in range(len(compiler.op.group_positions)):
        em.emit(f"dir{g} = {{}}")
    em.emit(f"_keys = [None] * {shape.groups}")
    for var, acc in compiler.accumulators.items():
        em.emit(f"a_{var} = [{acc.zero}] * {shape.groups}")


def _emit_map_row(
    em: Emitter,
    gen: GenContext,
    compiler: _AggCompiler,
    shape: _MapShape,
    keys: list[str],
    column: Callable[[BoundColumn], str],
    labels: list[str],
) -> None:
    """Find the row's group offset ``_g`` and fold the row into it.

    ``keys`` spells each grouping value the directories are keyed on;
    one that is not already a local is bound to ``v<g>`` first.
    ``labels`` spells the value a new group records for its output
    (the decoded string where a key is padded bytes)."""
    sizes = shape.sizes
    names = []
    dir_base = 0
    for g, (key, label) in enumerate(zip(keys, labels)):
        if not key.isidentifier():
            em.emit(f"v{g} = {key}")
            key = label = f"v{g}"
        names.append(label)
        em.emit(f"i{g} = dir{g}.get({key}, -1)")
        with em.block(f"if i{g} < 0:"):
            em.emit(f"i{g} = len(dir{g})")
            with em.block(f"if i{g} >= {sizes[g]}:"):
                em.emit("raise _MapOverflow()")
            em.emit(f"dir{g}[{key}] = i{g}")
        if gen.traced:
            em.emit(
                f"_probe.load(_db + {dir_base} + "
                f"(hash({key}) % {sizes[g]}) * 16, 16)"
            )
        dir_base += sizes[g] * 16
    multipliers = shape.multipliers
    offset_terms = " + ".join(
        f"i{g} * {multipliers[g]}" if multipliers[g] != 1 else f"i{g}"
        for g in range(len(keys))
    )
    em.emit(f"_g = {offset_terms}")
    if gen.traced:
        width = 8 * max(len(compiler.aggregates), 1)
        em.emit(f"_probe.load(_ab + _g * {width}, {width})")
    key_tuple = ", ".join(names)
    if len(names) == 1:
        key_tuple += ","
    with em.block("if _keys[_g] is None:"):
        em.emit(f"_keys[_g] = ({key_tuple})")
    for line in compiler.row_lines(column, _array_cell):
        em.emit(line)


def _emit_map_output(
    em: Emitter, compiler: _AggCompiler, shape: _MapShape
) -> None:
    """Emit output rows in first-seen group order."""
    em.emit("out = []")
    em.emit("append = out.append")
    with em.block(f"for _g in range({shape.groups}):"):
        em.emit("_key = _keys[_g]")
        with em.block("if _key is None:"):
            em.emit("continue")
        for var in compiler.accumulators:
            em.emit(f"{var} = a_{var}[_g]")
        em.emit(
            f"append({compiler.output_tuple_source(lambda g: f'_key[{g}]')})"
        )
    em.emit("return out")


def _emit_map_aggregate(
    em: Emitter,
    gen: GenContext,
    op: Aggregate,
    func_name: str,
    compiler: _AggCompiler,
    scan: ScanStage | None,
) -> None:
    if not gen.optimized:
        _emit_generic_aggregate(em, op, func_name, hybrid=False, use_map=True)
        return
    positions = op.group_positions
    shape = _MapShape(op)
    row_bytes = len(compiler.input_layout) * 8
    num_aggs = max(len(compiler.aggregates), 1)

    def fold_row(em: Emitter, column, slot, value) -> None:
        if gen.traced:
            em.emit(f"_probe.load(_ib + _ri * {row_bytes}, {row_bytes})")
            em.emit("_ri += 1")
            instr = (
                _update_instr(compiler)
                + len(positions) * costs.HASH_INSTRUCTIONS
            )
            em.emit(f"_probe.instr({instr})")
        _emit_map_row(
            em, gen, compiler, shape, [slot(p) for p in positions], column,
            [value(p) for p in positions],
        )

    # A fused scan keys the directories on a string key's padded bytes
    # and decodes it once per group, unless an aggregate reads it too.
    read = {
        compiler.input_layout.position(c)
        for acc in compiler.accumulators.values()
        if acc.argument is not None
        for c in columns_in(acc.argument)
    }
    raw_slots = frozenset(p for p in positions if p not in read)

    with _aggregate_def(em, op, func_name, scan):
        _emit_map_init(em, compiler, shape)
        if gen.traced:
            em.emit("_probe = ctx.probe")
            em.emit(f"_ib = ctx.probe.space.alloc(len(rows) * {row_bytes} + 64)")
            em.emit(
                f"_db = ctx.probe.space.alloc({sum(shape.sizes)} * 16 + 64)"
            )
            em.emit(
                "_ab = ctx.probe.space.alloc("
                f"{shape.groups * 8 * num_aggs} + 64)"
            )
            em.emit("_ri = 0")
        _emit_input_loop(em, gen, compiler, scan, fold_row, raw_slots)
        _emit_map_output(em, compiler, shape)


# -- O0 path ------------------------------------------------------------------------------------


def _emit_generic_aggregate(
    em: Emitter,
    op: Aggregate,
    func_name: str,
    hybrid: bool,
    use_map: bool = False,
) -> None:
    argument = "parts" if hybrid else "rows"
    with em.block(f"def {func_name}(ctx, {argument}):"):
        em.emit(f"helpers = ctx.agg_helpers[{op.op_id}]")
        if use_map:
            em.emit(
                f"return _rt.hash_group_aggregate({argument}, "
                f"helpers.key_fn, helpers.init, helpers.update, "
                f"helpers.finalize)"
            )
        elif hybrid:
            em.emit("out = []")
            with em.block(f"for rows in {argument}:"):
                em.emit(
                    f"out.extend(_rt.sorted_group_scan(rows, "
                    f"{tuple(op.group_positions)!r}, helpers.init, "
                    f"helpers.update, helpers.finalize))"
                )
            em.emit("return out")
        else:
            em.emit(
                f"return _rt.sorted_group_scan(rows, "
                f"{tuple(op.group_positions)!r}, helpers.init, "
                f"helpers.update, helpers.finalize)"
            )
    em.emit()


def _uses_params(op: Aggregate) -> bool:
    return any(contains_parameter(output.expr) for output in op.outputs)


def _update_instr(compiler: _AggCompiler) -> int:
    return (
        costs.LOOP_ITER_INSTRUCTIONS
        + len(compiler.aggregates) * costs.AGGREGATE_UPDATE_INSTRUCTIONS
        + len(compiler.op.group_positions) * costs.PREDICATE_INSTRUCTIONS
    )
