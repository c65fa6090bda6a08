"""Data staging templates: scan–filter–project with interleaved prep.

These instantiate the paper's Listing 1 (optimized table scan-select)
plus the staging variants of Section V-B: sorting, coarse/fine
partitioning, and hybrid hash-sort staging.  At ``O2`` everything is
inlined: one precompiled row ``Struct`` per scan, inline predicate
source.  At ``O0`` the function delegates to the generic runtime helpers
through per-tuple function calls, which is the generic-hard-coded code
quality the paper's Table II contrasts against.
"""

from __future__ import annotations

from repro.core.emitter import Emitter, GenContext
from repro.core.runtime import char_bytes
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
    COMPARE_SOURCE,
    PARAMS_LOCAL,
    comparisons_contain_parameter,
    conjunction_source_resolved,
    contains_parameter,
    expr_source_resolved,
)
from repro.sql.bound import (
    BoundColumn,
    BoundLiteral,
    BoundParameter,
    columns_in,
)
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


class ScanLoop:
    """The O2 scan loop of one :class:`ScanStage`, around a per-row body.

    The staging function's body appends the projected row; a fused
    consumer (``aggregate_oM_scan``) folds the row into its accumulators
    instead.  The body runs after the filter passed and every projected
    field is decoded into ``v<schema index>`` (see :meth:`resolve`).

    Untraced, each scan gets one module-level ``Struct`` covering the
    columns it reads, with ``x`` pad bytes over the rest: a page decodes
    in one ``iter_unpack`` call over its tuple area, and the index fetch
    calls ``unpack_from`` of the same ``Struct`` once per rid.  Strings
    decode late: a CHAR/VARCHAR column the filters compare only with
    ``=`` / ``<>`` against a literal or parameter is compared as its
    space-padded bytes, and is decoded only when the body reads it
    decoded.  ``raw_slots`` names the output slots the body reads as
    bytes (a fused map aggregate's directory keys); :meth:`slot_value`
    spells such a slot decoded.  Traced modules keep the per-field
    decode, whose loads the probe charges field by field.
    """

    def __init__(
        self,
        gen: GenContext,
        op: ScanStage,
        raw_slots: frozenset[int] = frozenset(),
    ):
        self.gen = gen
        self.op = op
        schema = op.table.schema
        self.schema = schema
        self.projected = [
            (slot, schema.index_of(slot.column))
            for slot in op.output_layout.slots
        ]
        filter_indexes: dict[str, int] = {}
        for comparison in op.filters:
            for column in columns_in(comparison.left) + columns_in(
                comparison.right
            ):
                filter_indexes[column.column] = schema.index_of(column.column)
        self.filter_indexes = sorted(filter_indexes.values())
        self.projected_only = [
            (slot, idx)
            for slot, idx in self.projected
            if idx not in filter_indexes.values()
        ]
        self.uses_params = comparisons_contain_parameter(op.filters)
        #: Schema indexes left as padded bytes (untraced only).
        self.raw: frozenset[int] = frozenset()
        #: (param index, width) → per-call local with its padded bytes.
        self.param_bytes: dict[tuple[int, int], str] = {}
        if gen.traced:
            self.predicate = conjunction_source_resolved(
                op.filters, self.resolve
            )
            return
        used = set(self.filter_indexes)
        used.update(index for _, index in self.projected)
        #: Schema indexes the row ``Struct`` decodes, in tuple order.
        self.fields = sorted(used)
        self.decoder = gen.row_struct(
            f"_row_o{op.op_id}", self._row_format(used)
        )
        self._plan_decode(used, raw_slots)

    def _plan_decode(self, used: set[int], raw_slots: frozenset[int]) -> None:
        """Which strings decode before the filter, which after it, and
        which stay bytes; the filter over raw comparisons."""
        strings = {i for i in used if self.schema[i].dtype.is_string}
        compared = (
            _raw_comparable(self.op.filters, strings, self.schema)
            if strings
            else set()
        )
        #: Strings decoded before the filter (range or column compares).
        decoded_first = strings - compared
        self.pre_decode = [
            i for i in self.filter_indexes if i in decoded_first
        ]
        body_decoded = {
            index
            for position, (_, index) in enumerate(self.projected)
            if index in strings and position not in raw_slots
        }
        #: Strings the body reads decoded, decoded once the filter passed.
        self.post_decode = sorted(body_decoded - set(self.pre_decode))
        self.raw = frozenset(strings - set(self.pre_decode) - body_decoded)
        if not compared:
            self.predicate = conjunction_source_resolved(
                self.op.filters, self.resolve
            )
            return
        parts = [self._compare_source(c, compared) for c in self.op.filters]
        if "False" in parts:
            self.predicate = "False"
        else:
            self.predicate = (
                " and ".join(part for part in parts if part != "True")
                or "True"
            )

    def _compare_source(self, comparison, compared: set[int]) -> str:
        column, other = comparison.left, comparison.right
        if not isinstance(column, BoundColumn):
            column, other = other, column
        index = (
            self.schema.index_of(column.column)
            if isinstance(column, BoundColumn)
            else None
        )
        if index not in compared:
            return conjunction_source_resolved([comparison], self.resolve)
        width = self.schema[index].dtype.size
        if isinstance(other, BoundParameter):
            key = (other.index, width)
            operand = self.param_bytes.setdefault(
                key, f"_c{len(self.param_bytes)}"
            )
        else:
            raw = char_bytes(other.value, width)
            if raw is None:  # no stored value decodes to the literal
                return "False" if comparison.op == "=" else "True"
            operand = repr(raw)
        return f"{self.var(index)} {COMPARE_SOURCE[comparison.op]} {operand}"

    def slot_value(self, position: int) -> str:
        """Output slot ``position`` decoded, whether or not the loop
        left it as bytes."""
        index = self.projected[position][1]
        if index in self.raw:
            return f"{self.var(index)}.rstrip(_SP).decode()"
        return self.var(index)

    @staticmethod
    def var(index: int) -> str:
        return f"v{index}"

    def resolve(self, column: BoundColumn) -> str:
        """The local holding ``column``'s decoded value."""
        return self.var(self.schema.index_of(column.column))

    def slot_var(self, position: int) -> str:
        """The local holding output slot ``position``."""
        return self.var(self.projected[position][1])

    def _row_format(self, used: set[int]) -> str:
        parts = ["<"]
        pad = 0
        for index, column in enumerate(self.schema):
            if index in used:
                if pad:
                    parts.append(f"{pad}x")
                    pad = 0
                parts.append(column.dtype.struct_char)
            else:
                pad += column.dtype.size
        if pad:
            parts.append(f"{pad}x")
        return "".join(parts)

    def _targets(self) -> str:
        if not self.fields:
            return "_"
        names = ", ".join(self.var(index) for index in self.fields)
        return names + "," if len(self.fields) == 1 else names

    def emit_prologue(self, em: Emitter) -> None:
        em.emit(f'table = ctx.tables["{self.op.binding}"]')
        em.emit("read_page = table.read_page")
        if not self.gen.traced:
            for (index, width), name in self.param_bytes.items():
                em.emit(
                    f"{name} = _rt.char_bytes(ctx.params[{index}], {width})"
                )

    def emit_pages(self, em: Emitter, body, pages: str) -> None:
        """The page walk over ``pages`` (a ``range(...)`` source)."""
        size = self.schema.tuple_size
        if not self.gen.traced:
            area = (
                f"memoryview(page.data)[{HEADER_SIZE}:{HEADER_SIZE} + "
                f"page.num_tuples * {size}]"
            )
            with em.block(f"for p in {pages}:"):
                em.emit("page = read_page(p)")
                with em.block(
                    f"for {self._targets()} in "
                    f"{self.decoder}.iter_unpack({area}):"
                ):
                    self._emit_unpacked(em, body)
            return
        em.emit("_probe = ctx.probe")
        em.emit("_fid = table.file.file_id")
        with em.block(f"for p in {pages}:"):
            em.emit("page = read_page(p)")
            em.emit("data = page.data")
            em.emit("_pb = _page_addr(_fid, p)")
            em.emit("_probe.call(1)  # read_page: the unavoidable call")
            with em.block("for t in range(page.num_tuples):"):
                em.emit(f"off = {HEADER_SIZE} + t * {size}")
                self._emit_traced_tuple(em, body)

    def emit_rids(self, em: Emitter, body) -> None:
        """The fetch walk over the probe's ``_rids`` (untraced only).

        Rids arrive in heap order, so a page is read once and rows come
        out in the order the scan would produce them."""
        em.emit("_pno = -1")
        with em.block("for p, t in _rids:"):
            with em.block("if p != _pno:"):
                em.emit("data = read_page(p).data")
                em.emit("_pno = p")
            em.emit(
                f"{self._targets()} = {self.decoder}.unpack_from(data, "
                f"{HEADER_SIZE} + t * {self.schema.tuple_size})"
            )
            self._emit_unpacked(em, body)

    def _emit_unpacked(self, em: Emitter, body) -> None:
        """Filter, then decode the strings, of one unpacked tuple."""
        for index in self.pre_decode:
            self._emit_string_decode(em, index)
        if self.predicate != "True":
            with em.block(f"if not ({self.predicate}):"):
                em.emit("continue")
        for index in self.post_decode:
            self._emit_string_decode(em, index)
        body(em)

    def _emit_string_decode(self, em: Emitter, index: int) -> None:
        name = self.var(index)
        em.emit(f"{name} = {name}.rstrip(_SP).decode()")

    def _emit_traced_tuple(self, em: Emitter, body) -> None:
        """One tuple at ``data[off:]``: filter, decode, run ``body``,
        charging every field load and the per-tuple instructions."""
        instr = _scan_instr_estimate(self.op, len(self.projected))
        em.emit(f"_probe.instr({instr})")
        # Decode filter fields first; short-circuit on failure.
        for index in self.filter_indexes:
            self._emit_traced_field(em, index)
        if self.predicate != "True":
            with em.block(f"if not ({self.predicate}):"):
                em.emit("continue")
        for _, index in self.projected_only:
            self._emit_traced_field(em, index)
        body(em)

    def _emit_traced_field(self, em: Emitter, index: int) -> None:
        dtype = self.schema[index].dtype
        offset = self.schema.offset_of(index)
        em.emit(f"_probe.load(_pb + off + {offset}, {dtype.size})")
        em.emit(
            f"{self.var(index)} = "
            + self.gen.field_decode(dtype, "data", f"off + {offset}")
        )


def _raw_comparable(filters, strings: set[int], schema) -> set[int]:
    """The string columns (schema indexes) every filter conjunct of
    which is ``=`` / ``<>`` against a literal or parameter.

    Such a comparison holds on the padded bytes exactly when it holds on
    the decoded value.  Range comparisons do not: space-padded byte
    order differs from string order below 0x20."""
    verdict: dict[int, bool] = {}
    for comparison in filters:
        sides = (comparison.left, comparison.right)
        for column in columns_in(comparison.left) + columns_in(
            comparison.right
        ):
            index = schema.index_of(column.column)
            other = sides[1] if sides[0] is column else sides[0]
            verdict[index] = verdict.get(index, True) and (
                comparison.op in ("=", "<>")
                and column in sides
                and isinstance(other, (BoundLiteral, BoundParameter))
            )
    return {index for index, ok in verdict.items() if ok and index in strings}


def _emit_scan_optimized(
    em: Emitter, gen: GenContext, op: ScanStage, func_name: str
) -> None:
    loop = ScanLoop(gen, op)
    row_bytes = len(op.output_layout.slots) * 8
    row_tuple = row_tuple_source(loop.projected, loop.var)

    def emit_collector() -> None:
        if loop.uses_params:
            em.emit(f"{PARAMS_LOCAL} = ctx.params")
        _emit_collector_init(em, gen, op, row_bytes, "table.num_rows")

    def collect(em: Emitter) -> None:
        _emit_collector_append(em, gen, op, row_tuple, row_bytes, loop.var)

    def emit_epilogue() -> None:
        _emit_post_prep(em, gen, op.prep, row_bytes)
        em.emit(f"return {_result_var(op.prep)}")

    with em.block(f"def {func_name}(ctx, _lo=0, _hi=None):"):
        loop.emit_prologue(em)
        em.emit("if _hi is None:")
        em.emit("    _hi = table.num_pages")
        emit_collector()
        loop.emit_pages(em, collect, "range(_lo, _hi)")
        emit_epilogue()
    em.emit()

    if not has_index_path(gen, op):
        return
    _emit_index_probe(em, op, func_name)
    # The fetch half: the scan's tuple body over the probe's rids.
    with em.block(f"def {func_name}_fetch(ctx, _rids):"):
        loop.emit_prologue(em)
        emit_collector()
        loop.emit_rids(em, collect)
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


def row_tuple_source(projected, var) -> str:
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
