"""Data staging templates: scan–filter–project with interleaved prep.

These instantiate the paper's Listing 1 (optimized table scan-select)
plus the staging variants of Section V-B: sorting, coarse/fine
partitioning, and hybrid hash-sort staging.  At ``O2`` everything is
inlined: constant field offsets, precompiled unpackers, inline predicate
source.  At ``O0`` the function delegates to the generic runtime helpers
through per-tuple function calls, which is the generic-hard-coded code
quality the paper's Table II contrasts against.
"""

from __future__ import annotations

from repro.core.emitter import Emitter, GenContext
from repro.errors import CodegenError
from repro.memsim import costs
from repro.plan.descriptors import (
    PREP_NONE,
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Restage,
    ScanStage,
)
from repro.plan.expressions import (
    PARAMS_LOCAL,
    comparisons_contain_parameter,
    conjunction_source_resolved,
    contains_parameter,
    expr_source_resolved,
)
from repro.sql.bound import BoundColumn, columns_in
from repro.storage.page import HEADER_SIZE


def emit_scan_stage(
    em: Emitter, gen: GenContext, op: ScanStage, func_name: str
) -> None:
    """Emit one staging function for a base-table input.

    The function is *morsel-aware*: it accepts an optional page range
    ``(_lo, _hi)`` so the parallel executor can run the same inlined
    scan loop over one slice of the table per worker.  The serial
    composer calls it with the defaults, which scan every page.
    """
    if gen.optimized:
        _emit_scan_optimized(em, gen, op, func_name)
    else:
        _emit_scan_generic(em, gen, op, func_name)


# -- O2: fully inlined scan -------------------------------------------------------


def _emit_scan_optimized(
    em: Emitter, gen: GenContext, op: ScanStage, func_name: str
) -> None:
    table = op.table
    schema = table.schema
    tuple_size = schema.tuple_size
    slots = op.output_layout.slots

    # Map every referenced base column to a schema index.
    projected = [(slot, schema.index_of(slot.column)) for slot in slots]
    filter_indexes: dict[str, int] = {}
    for comparison in op.filters:
        for column in columns_in(comparison.left) + columns_in(
            comparison.right
        ):
            filter_indexes[column.column] = schema.index_of(column.column)

    def var(index: int) -> str:
        return f"v{index}"

    def resolve(column: BoundColumn) -> str:
        return var(schema.index_of(column.column))

    predicate = conjunction_source_resolved(op.filters, resolve)
    projected_only = [
        (slot, idx)
        for slot, idx in projected
        if idx not in filter_indexes.values()
    ]
    row_tuple = _row_tuple_source(projected, var)
    row_bytes = len(slots) * 8
    per_tuple_instr = _scan_instr_estimate(op, len(projected))

    def emit_prologue() -> None:
        em.emit(f'table = ctx.tables["{op.binding}"]')
        em.emit("read_page = table.read_page")

    def emit_collector() -> None:
        if comparisons_contain_parameter(op.filters):
            em.emit(f"{PARAMS_LOCAL} = ctx.params")
        _emit_collector_init(em, gen, op, row_bytes, "table.num_rows")

    def emit_tuple() -> None:
        """One tuple at ``data[off:]``: filter, decode, collect.  Runs
        inside the innermost loop, which a failed filter ``continue``s."""
        if gen.traced:
            em.emit(f"_probe.instr({per_tuple_instr})")
        # Decode filter fields first; short-circuit on failure.
        for column_name, index in sorted(
            filter_indexes.items(), key=lambda kv: kv[1]
        ):
            dtype = schema[index].dtype
            offset = schema.offset_of(index)
            if gen.traced:
                em.emit(
                    f"_probe.load(_pb + off + {offset}, {dtype.size})"
                )
            em.emit(
                f"{var(index)} = "
                + gen.field_decode(dtype, "data", f"off + {offset}")
            )
        if predicate != "True":
            with em.block(f"if not ({predicate}):"):
                em.emit("continue")
        for slot, index in projected_only:
            dtype = schema[index].dtype
            offset = schema.offset_of(index)
            if gen.traced:
                em.emit(
                    f"_probe.load(_pb + off + {offset}, {dtype.size})"
                )
            em.emit(
                f"{var(index)} = "
                + gen.field_decode(dtype, "data", f"off + {offset}")
            )
        _emit_collector_append(em, gen, op, row_tuple, row_bytes, var)

    def emit_epilogue() -> None:
        _emit_post_prep(em, gen, op.prep, row_bytes)
        em.emit(f"return {_result_var(op.prep)}")

    with em.block(f"def {func_name}(ctx, _lo=0, _hi=None):"):
        emit_prologue()
        em.emit("if _hi is None:")
        em.emit("    _hi = table.num_pages")
        emit_collector()
        if gen.traced:
            em.emit("_probe = ctx.probe")
            em.emit("_fid = table.file.file_id")
        with em.block("for p in range(_lo, _hi):"):
            em.emit("page = read_page(p)")
            em.emit("data = page.data")
            if gen.traced:
                em.emit("_pb = _page_addr(_fid, p)")
                em.emit("_probe.call(1)  # read_page: the unavoidable call")
            with em.block("for t in range(page.num_tuples):"):
                em.emit(f"off = {HEADER_SIZE} + t * {tuple_size}")
                emit_tuple()
        emit_epilogue()
    em.emit()

    if not has_index_path(gen, op):
        return
    _emit_index_probe(em, op, func_name)
    # The fetch half: the scan's tuple body over the probe's rids.  They
    # arrive in heap order, so a page is read once and rows come out in
    # the order the scan would produce them.
    with em.block(f"def {func_name}_fetch(ctx, _rids):"):
        emit_prologue()
        emit_collector()
        em.emit("_pno = -1")
        with em.block("for p, t in _rids:"):
            with em.block("if p != _pno:"):
                em.emit("data = read_page(p).data")
                em.emit("_pno = p")
            em.emit(f"off = {HEADER_SIZE} + t * {tuple_size}")
            emit_tuple()
        emit_epilogue()
    em.emit()


def has_index_path(gen: GenContext, op: ScanStage) -> bool:
    """Whether ``op`` gets a probe+fetch pair beside its scan loop.

    Traced modules model the paper's scan-driven memory behaviour and
    keep to the scan."""
    return op.index is not None and not gen.traced


def _emit_index_probe(em: Emitter, op: ScanStage, func_name: str) -> None:
    """The probe half: evaluate the run-time bounds, ask the B+-tree."""
    access = op.index

    def no_columns(column: BoundColumn) -> str:
        raise CodegenError(f"index bound references column {column.display()}")

    def bound(expr) -> str:
        if expr is None:
            return "None"
        return expr_source_resolved(expr, no_columns)

    with em.block(f"def {func_name}_probe(ctx):"):
        if contains_parameter(access.low) or contains_parameter(access.high):
            em.emit(f"{PARAMS_LOCAL} = ctx.params")
        em.emit(
            f'return ctx.tables["{op.binding}"].probe_index('
            f"{access.column!r}, {bound(access.low)}, {bound(access.high)}, "
            f"{access.low_inclusive}, {access.high_inclusive})"
        )
    em.emit()


def _row_tuple_source(projected, var) -> str:
    parts = ", ".join(var(index) for _, index in projected)
    if len(projected) == 1:
        return f"({parts},)"
    return f"({parts})"


def _scan_instr_estimate(op: ScanStage, num_fields: int) -> int:
    instr = costs.LOOP_ITER_INSTRUCTIONS
    instr += len(op.filters) * costs.PREDICATE_INSTRUCTIONS
    instr += num_fields * costs.FIELD_ACCESS_INSTRUCTIONS
    instr += num_fields * costs.COPY_WORD_INSTRUCTIONS
    if op.prep.kind in (PREP_PARTITION, PREP_PARTITION_SORT):
        instr += costs.HASH_INSTRUCTIONS
    return instr


def _result_var(prep) -> str:
    if prep.kind in (PREP_PARTITION, PREP_PARTITION_SORT):
        return "parts"
    return "out"


def _emit_collector_init(
    em: Emitter, gen: GenContext, op, row_bytes: int, est_rows_expr: str
) -> None:
    prep = op.prep
    if prep.kind in (PREP_PARTITION, PREP_PARTITION_SORT):
        if prep.fine:
            em.emit("parts = {}")
        else:
            em.emit(f"parts = [[] for _k in range({prep.num_partitions})]")
        if gen.traced:
            em.emit(
                f"_sb = ctx.probe.space.alloc(({est_rows_expr} + 1) * "
                f"{row_bytes} * 2)"
            )
            em.emit(f"_pband = ({est_rows_expr} + 1) * {row_bytes}")
            if not prep.fine:
                em.emit(f"_pwn = [0] * {prep.num_partitions}")
            else:
                em.emit("_pwn = {}")
    else:
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            em.emit(
                f"_sb = ctx.probe.space.alloc(({est_rows_expr} + 1) * "
                f"{row_bytes})"
            )
            em.emit("_wn = 0")


def _emit_collector_append(
    em: Emitter, gen: GenContext, op, row_tuple: str, row_bytes: int, var
) -> None:
    prep = op.prep
    if prep.kind in (PREP_PARTITION, PREP_PARTITION_SORT):
        # The partition key is a staged slot: find its decoded variable.
        key_slot = op.output_layout.slots[prep.keys[0]]
        key_var = var(op.table.schema.index_of(key_slot.column))
        if prep.fine:
            em.emit(f"_bucket = parts.get({key_var})")
            with em.block("if _bucket is None:"):
                em.emit(f"parts[{key_var}] = [{row_tuple}]")
            with em.block("else:"):
                em.emit(f"_bucket.append({row_tuple})")
            if gen.traced:
                em.emit(f"_pi = hash({key_var}) % 64")
        else:
            mask = prep.num_partitions - 1
            em.emit(f"_pi = hash({key_var}) & {mask}")
            em.emit(f"parts[_pi].append({row_tuple})")
        if gen.traced:
            if prep.fine:
                em.emit("_n = _pwn.get(_pi, 0)")
                em.emit("_probe.load(_sb + _pi * (_pband // 64) + _n * "
                        f"{row_bytes}, {row_bytes})")
                em.emit("_pwn[_pi] = _n + 1")
            else:
                em.emit(
                    "_probe.load(_sb + _pi * (_pband // "
                    f"{prep.num_partitions}) + _pwn[_pi] * {row_bytes}, "
                    f"{row_bytes})"
                )
                em.emit("_pwn[_pi] += 1")
    else:
        em.emit(f"append({row_tuple})")
        if gen.traced:
            em.emit(f"_probe.load(_sb + _wn * {row_bytes}, {row_bytes})")
            em.emit("_wn += 1")


def _emit_post_prep(em: Emitter, gen: GenContext, prep, row_bytes: int) -> None:
    """Sorting after the scan loop, when the prep calls for it."""
    if prep.kind == PREP_SORT:
        em.emit(f"out.sort(key={_itemgetter_source(prep.keys)})")
        if gen.traced:
            _emit_sort_trace(em, "out", "_sb", row_bytes)
    elif prep.kind == PREP_PARTITION_SORT:
        iterable = "parts.values()" if prep.fine else "parts"
        with em.block(f"for _part in {iterable}:"):
            em.emit(f"_part.sort(key={_itemgetter_source(prep.keys)})")
            if gen.traced:
                _emit_sort_trace(em, "_part", "_sb", row_bytes)


def _itemgetter_source(keys) -> str:
    positions = ", ".join(str(k) for k in keys)
    return f"_itemgetter({positions})"


def _emit_sort_trace(em: Emitter, rows_var: str, base_var: str, row_bytes: int) -> None:
    """Charge n·log2(n) sort steps plus two sequential sweeps."""
    with em.block(f"if len({rows_var}) > 1:"):
        em.emit(f"_n = len({rows_var})")
        em.emit(
            f"_probe.instr(int(_n * _log2(_n)) * "
            f"{costs.SORT_STEP_INSTRUCTIONS})"
        )
        with em.block("for _i in range(0, _n, 8):"):
            em.emit(f"_probe.load({base_var} + _i * {row_bytes}, "
                    f"{row_bytes * 8})")


# -- O0: generic helper calls ----------------------------------------------------------


def _emit_scan_generic(
    em: Emitter, gen: GenContext, op: ScanStage, func_name: str
) -> None:
    prep = op.prep
    with em.block(f"def {func_name}(ctx, _lo=0, _hi=None):"):
        em.emit(f'table = ctx.tables["{op.binding}"]')
        em.emit(
            f"out = _rt.scan_filter_project(table, "
            f"ctx.predicates.get({op.op_id}), "
            f"ctx.projectors.get({op.op_id}), _lo, _hi)"
        )
        _emit_generic_prep(em, prep, "out")
        em.emit(f"return {_result_var(prep)}")
    em.emit()

    if not has_index_path(gen, op):
        return
    _emit_index_probe(em, op, func_name)
    with em.block(f"def {func_name}_fetch(ctx, _rids):"):
        em.emit(f'table = ctx.tables["{op.binding}"]')
        em.emit(
            f"out = _rt.fetch_filter_project(table, _rids, "
            f"ctx.predicates.get({op.op_id}), "
            f"ctx.projectors.get({op.op_id}))"
        )
        _emit_generic_prep(em, prep, "out")
        em.emit(f"return {_result_var(prep)}")
    em.emit()


def emit_restage(
    em: Emitter, gen: GenContext, op: Restage, func_name: str
) -> None:
    """Re-stage an intermediate result (sort it or partition it).

    Untraced modules additionally get a ``<name>_chunk`` entry point —
    the morsel-aware analogue of the staged scan's ``(_lo, _hi)`` page
    range: the parallel executor calls it once per contiguous row chunk
    of a large intermediate and reassembles the per-chunk sorted runs /
    partition sets with the order-preserving merge finishers, exactly
    like parallel scan staging.  The serial body is already correct
    over any private row chunk (chunks are slice copies, so even the
    in-place sort is safe), so the entry point is an alias — the same
    idiom the merge/nested join templates use for ``*_pair``.  Traced
    modules skip it because traced runs are serial.
    """
    prep = op.prep
    with em.block(f"def {func_name}(ctx, rows):"):
        if gen.optimized:
            if prep.kind == PREP_SORT:
                em.emit(f"rows.sort(key={_itemgetter_source(prep.keys)})")
                em.emit("return rows")
            elif prep.kind == PREP_PARTITION:
                key = prep.keys[0]
                if prep.fine:
                    em.emit("parts = {}")
                    with em.block("for row in rows:"):
                        em.emit(f"_bucket = parts.get(row[{key}])")
                        with em.block("if _bucket is None:"):
                            em.emit(f"parts[row[{key}]] = [row]")
                        with em.block("else:"):
                            em.emit("_bucket.append(row)")
                else:
                    mask = prep.num_partitions - 1
                    em.emit(
                        f"parts = [[] for _k in range({prep.num_partitions})]"
                    )
                    with em.block("for row in rows:"):
                        em.emit(
                            f"parts[hash(row[{key}]) & {mask}].append(row)"
                        )
                em.emit("return parts")
            elif prep.kind == PREP_PARTITION_SORT:
                mask = prep.num_partitions - 1
                em.emit(
                    f"parts = [[] for _k in range({prep.num_partitions})]"
                )
                key = prep.keys[0]
                with em.block("for row in rows:"):
                    em.emit(f"parts[hash(row[{key}]) & {mask}].append(row)")
                with em.block("for _part in parts:"):
                    em.emit(
                        f"_part.sort(key={_itemgetter_source(prep.keys)})"
                    )
                em.emit("return parts")
            else:
                em.emit("return rows")
        else:
            em.emit("out = rows")
            _emit_generic_prep(em, prep, "out")
            em.emit(f"return {_result_var(prep)}")
    em.emit()
    if not gen.traced:
        em.emit(f"{func_name}_chunk = {func_name}")
        em.emit()


def _emit_generic_prep(em: Emitter, prep, rows_var: str) -> None:
    if prep.kind == PREP_SORT:
        em.emit(f"out = _rt.sort_rows({rows_var}, {tuple(prep.keys)!r})")
    elif prep.kind == PREP_PARTITION:
        if prep.fine:
            em.emit(
                f"parts = _rt.fine_partition_rows({rows_var}, "
                f"{prep.keys[0]})"
            )
        else:
            em.emit(
                f"parts = _rt.partition_rows({rows_var}, {prep.keys[0]}, "
                f"{prep.num_partitions})"
            )
    elif prep.kind == PREP_PARTITION_SORT:
        em.emit(
            f"parts = _rt.partition_sort_rows({rows_var}, {prep.keys[0]}, "
            f"{tuple(prep.keys)!r}, {prep.num_partitions})"
        )
