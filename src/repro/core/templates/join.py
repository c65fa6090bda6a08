"""Join templates: every algorithm instantiates the nested-loops shape.

This is the paper's Listing 2.  Merge join, partition (fine hash) join
and hybrid hash-sort-merge join differ only in how their inputs were
staged and in a few extra lines inside the loops — exactly the property
Section V-C highlights ("the new algorithm resulted in a few different
lines of code when compared to the existing evaluation algorithms").

The multi-way variant implements join teams: one deeply-nested loop
block per team, no intermediate materialisation, following the
loop-blocking layout the paper describes for multi-way joins.

The build/probe hash join is the one-thread shape of the fine partition
join: only the build side is partitioned, and the probe side's rows are
looked up one by one — inside the probe side's scan loop when the two
fuse, so that input is never staged at all.
"""

from __future__ import annotations

from repro.core.emitter import Emitter, GenContext
from repro.core.templates.staging import ScanLoop, row_tuple_source
from repro.memsim import costs
from repro.plan.expressions import (
    PARAMS_LOCAL,
    comparisons_contain_parameter,
    conjunction_source,
)
from repro.plan.descriptors import (
    JOIN_HASH,
    JOIN_HYBRID,
    JOIN_MERGE,
    JOIN_NESTED,
    Join,
    MultiwayJoin,
    ScanStage,
)


def emit_join(
    em: Emitter,
    gen: GenContext,
    op: Join,
    func_name: str,
    scan: ScanStage | None = None,
) -> None:
    """Emit the evaluation function for a binary join.

    Untraced modules additionally get a ``<name>_pair`` entry point the
    parallel executor drives per unit of work: one partition pair for
    the staged (hash/hybrid) joins, one outer row chunk for merge and
    nested-loops joins.  Traced modules skip it — traced runs are
    serial, and the pair body would need its own probe bookkeeping.
    A build/probe hash join has none: it walks its probe rows in order.
    ``scan`` is its probe-side scan when the two fuse (see
    :meth:`~repro.plan.descriptors.PhysicalPlan.fusable_consumer`).
    """
    if op.build_op is not None:
        _emit_probe_join(em, gen, op, func_name, scan)
        return
    if not gen.optimized:
        _emit_join_generic(em, op, func_name)
        if not gen.traced:
            _emit_join_pair_generic(em, op, func_name)
        return
    if op.algorithm == JOIN_MERGE:
        _emit_merge_join(em, gen, op, func_name)
    elif op.algorithm == JOIN_HYBRID:
        _emit_hybrid_join(em, gen, op, func_name)
    elif op.algorithm == JOIN_HASH:
        _emit_fine_hash_join(em, gen, op, func_name)
    elif op.algorithm == JOIN_NESTED:
        _emit_nested_join(em, gen, op, func_name)
    else:  # pragma: no cover - guarded by the optimizer
        raise AssertionError(op.algorithm)
    if not gen.traced:
        _emit_join_pair(em, gen, op, func_name)


def _emit_join_pair(
    em: Emitter, gen: GenContext, op: Join, func_name: str
) -> None:
    """Emit the O2 per-pair/per-chunk parallel entry point."""
    if op.algorithm in (JOIN_MERGE, JOIN_NESTED):
        # The serial function already has (ctx, left, right) shape and
        # is correct over any contiguous outer chunk.
        em.emit(f"{func_name}_pair = {func_name}")
        em.emit()
        return
    with em.block(f"def {func_name}_pair(ctx, left, right):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if op.algorithm == JOIN_HYBRID:
            with em.block("if not left or not right:"):
                em.emit("return out")
            em.emit(f"left.sort(key=_itemgetter({op.left_key}))")
            em.emit(f"right.sort(key=_itemgetter({op.right_key}))")
            _emit_merge_body(em, gen, op, "left", "right")
        else:  # fine partition pair: every tuple combination matches
            with em.block("for lrow in left:"):
                with em.block("for rrow in right:"):
                    em.emit("append(lrow + rrow)")
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()


def _emit_join_pair_generic(em: Emitter, op: Join, func_name: str) -> None:
    """Emit the O0 per-pair/per-chunk parallel entry point."""
    if op.algorithm in (JOIN_MERGE, JOIN_NESTED):
        em.emit(f"{func_name}_pair = {func_name}")
        em.emit()
        return
    with em.block(f"def {func_name}_pair(ctx, left, right):"):
        if op.algorithm == JOIN_HYBRID:
            with em.block("if not left or not right:"):
                em.emit("return []")
            em.emit(f"left.sort(key=_itemgetter({op.left_key}))")
            em.emit(f"right.sort(key=_itemgetter({op.right_key}))")
            em.emit(
                f"out = _rt.merge_join(left, right, {op.left_key}, "
                f"{op.right_key})"
            )
        else:
            em.emit("out = _rt.nested_loops_join(left, right)")
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()




def _emit_residual_filter(em: Emitter, op: Join) -> None:
    """Enforce extra equi-join conjuncts over the join output."""
    if not op.residuals:
        return
    condition = conjunction_source(op.residuals, op.output_layout, "row")
    em.emit(f"out = [row for row in out if {condition}]")


def _emit_join_generic(em: Emitter, op: Join, func_name: str) -> None:
    with em.block(f"def {func_name}(ctx, left, right):"):
        if op.algorithm == JOIN_MERGE:
            em.emit(
                f"out = _rt.merge_join(left, right, {op.left_key}, "
                f"{op.right_key})"
            )
        elif op.algorithm == JOIN_HYBRID:
            em.emit(
                f"out = _rt.hybrid_join(left, right, {op.left_key}, "
                f"{op.right_key}, presorted=False)"
            )
        elif op.algorithm == JOIN_HASH:
            em.emit("out = _rt.fine_hash_join(left, right)")
        else:
            em.emit("out = _rt.nested_loops_join(left, right)")
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()


# -- merge join (Listing 2 with the merge-specific bound updates) --------------------


def _emit_merge_join(
    em: Emitter, gen: GenContext, op: Join, func_name: str
) -> None:
    with em.block(f"def {func_name}(ctx, left, right):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            _emit_join_trace_init(em, op)
        _emit_merge_body(em, gen, op, "left", "right")
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()


def _emit_merge_body(
    em: Emitter, gen: GenContext, op: Join, left_var: str, right_var: str
) -> None:
    """The merge loop over two key-sorted row lists."""
    lk, rk = op.left_key, op.right_key
    lrb = _row_bytes_left(op)
    rrb = _row_bytes_right(op)
    orb = lrb + rrb
    em.emit("i = 0")
    em.emit("j = 0")
    em.emit(f"n_l = len({left_var})")
    em.emit(f"n_r = len({right_var})")
    with em.block("while i < n_l and j < n_r:"):
        if gen.traced:
            em.emit(
                f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS + 2 * costs.PREDICATE_INSTRUCTIONS})"
            )
            em.emit(f"_probe.load(_lb + i * {lrb}, {lrb})")
            em.emit(f"_probe.load(_rb + j * {rrb}, {rrb})")
        em.emit(f"lrow = {left_var}[i]")
        em.emit(f"k = lrow[{lk}]")
        with em.block(f"if k < {right_var}[j][{rk}]:"):
            em.emit("i += 1")
            em.emit("continue")
        with em.block(f"if k > {right_var}[j][{rk}]:"):
            em.emit("j += 1")
            em.emit("continue")
        em.emit("j0 = j")
        with em.block(f"while j < n_r and {right_var}[j][{rk}] == k:"):
            em.emit(f"append(lrow + {right_var}[j])")
            if gen.traced:
                _emit_output_trace(em, orb)
            em.emit("j += 1")
        em.emit("i += 1")
        # Backtrack over the matching inner group for equal outer keys;
        # small groups tend to be cache resident (Section V-B).
        with em.block(f"while i < n_l and {left_var}[i][{lk}] == k:"):
            em.emit(f"lrow = {left_var}[i]")
            if gen.traced:
                em.emit(f"_probe.load(_lb + i * {lrb}, {lrb})")
            with em.block("for jj in range(j0, j):"):
                em.emit(f"append(lrow + {right_var}[jj])")
                if gen.traced:
                    em.emit(f"_probe.load(_rb + jj * {rrb}, {rrb})")
                    _emit_output_trace(em, orb)
            em.emit("i += 1")


# -- hybrid hash-sort-merge join -------------------------------------------------------


def _emit_hybrid_join(
    em: Emitter, gen: GenContext, op: Join, func_name: str
) -> None:
    lk, rk = op.left_key, op.right_key
    with em.block(f"def {func_name}(ctx, left_parts, right_parts):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            _emit_join_trace_init(em, op)
        with em.block("for left, right in zip(left_parts, right_parts):"):
            with em.block("if not left or not right:"):
                em.emit("continue")
            # Sort the corresponding partitions right before joining so
            # they are L2-cache resident during the merge (Section V-B).
            em.emit(f"left.sort(key=_itemgetter({lk}))")
            em.emit(f"right.sort(key=_itemgetter({rk}))")
            if gen.traced:
                _emit_partition_sort_trace(em, op)
            _emit_merge_body(em, gen, op, "left", "right")
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()


# -- fine partition join ------------------------------------------------------------------


def _emit_fine_hash_join(
    em: Emitter, gen: GenContext, op: Join, func_name: str
) -> None:
    lrb = _row_bytes_left(op)
    rrb = _row_bytes_right(op)
    orb = lrb + rrb
    with em.block(f"def {func_name}(ctx, left_parts, right_parts):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            _emit_join_trace_init(em, op)
        with em.block("for k, lrows in left_parts.items():"):
            em.emit("rrows = right_parts.get(k)")
            with em.block("if rrows is None:"):
                em.emit("continue")
            # Fine partitioning: every pair of tuples in corresponding
            # partitions matches — no comparisons inside the loops.
            with em.block("for lrow in lrows:"):
                with em.block("for rrow in rrows:"):
                    em.emit("append(lrow + rrow)")
                    if gen.traced:
                        em.emit(
                            f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS})"
                        )
                        _emit_output_trace(em, orb)
        _emit_residual_filter(em, op)
        em.emit("return out")
    em.emit()


# -- build/probe hash join ------------------------------------------------------------------


def _emit_probe_join(
    em: Emitter,
    gen: GenContext,
    op: Join,
    func_name: str,
    scan: ScanStage | None,
) -> None:
    """``<name>(ctx, build, rows)``: each probe row, in order, looked up
    in the build side's fine partitions; matches come out in layout
    order (``left + right``).

    With a fused ``scan`` the function takes ``rows=None``: called
    without rows it runs the probe side's page loop and looks each
    qualifying row up as it is decoded, so the probe side is never
    staged.  ``<name>_scan`` names that entry.
    """
    build_left = op.build_op == op.left_op
    probe_key = op.right_key if build_left else op.left_key
    rows = "rows" if scan is None else "rows=None"
    with em.block(f"def {func_name}(ctx, build, {rows}):"):
        if gen.optimized:
            _emit_probe_body(em, gen, op, scan, build_left, probe_key)
        else:
            em.emit(
                f"out = _rt.probe_hash_join(build, rows, {probe_key}, "
                f"{build_left})"
            )
            _emit_residual_filter(em, op)
            em.emit("return out")
    em.emit()
    if scan is not None:
        em.emit(f"{func_name}_scan = {func_name}")
        em.emit()


def _emit_probe_body(
    em: Emitter,
    gen: GenContext,
    op: Join,
    scan: ScanStage | None,
    build_left: bool,
    probe_key: int,
) -> None:
    if scan is not None and comparisons_contain_parameter(scan.filters):
        em.emit(f"{PARAMS_LOCAL} = ctx.params")
    em.emit("out = []")
    with em.block("if not build:"):
        em.emit("return out")
    em.emit("append = out.append")
    em.emit("get = build.get")
    if gen.traced:
        _emit_join_trace_init(em, op)
    orb = _row_bytes_left(op) + _row_bytes_right(op)
    row = "brow + prow" if build_left else "prow + brow"

    def probe(em: Emitter, key: str, prow: str | None) -> None:
        """Look ``key`` up; emit one output row per build match."""
        em.emit(f"matches = get({key})")
        with em.block("if matches is None:"):
            em.emit("continue")
        if prow is not None:
            em.emit(f"prow = {prow}")
        with em.block("for brow in matches:"):
            if op.residuals:
                condition = conjunction_source(
                    op.residuals, op.output_layout, "row"
                )
                em.emit(f"row = {row}")
                with em.block(f"if {condition}:"):
                    em.emit("append(row)")
            else:
                em.emit(f"append({row})")
            if gen.traced:
                _emit_output_trace(em, orb)

    def staged(em: Emitter) -> None:
        with em.block("for prow in rows:"):
            if gen.traced:
                em.emit(
                    f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS + costs.HASH_INSTRUCTIONS})"
                )
            probe(em, f"prow[{probe_key}]", None)

    if scan is None:
        staged(em)
    else:
        loop = ScanLoop(gen, scan)
        with em.block("if rows is None:"):
            loop.emit_prologue(em)
            loop.emit_pages(
                em,
                lambda em: probe(
                    em,
                    loop.slot_var(probe_key),
                    row_tuple_source(loop.projected, loop.var),
                ),
                "range(table.num_pages)",
            )
        with em.block("else:"):
            staged(em)
    em.emit("return out")


def _emit_nested_join(
    em: Emitter, gen: GenContext, op: Join, func_name: str
) -> None:
    orb = _row_bytes_left(op) + _row_bytes_right(op)
    with em.block(f"def {func_name}(ctx, left, right):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            _emit_join_trace_init(em, op)
        with em.block("for lrow in left:"):
            with em.block("for rrow in right:"):
                if gen.traced:
                    em.emit(f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS})")
                if op.residuals:
                    # A keyed nested-loops join: the equi predicate (and
                    # any extra conjuncts) rides as residuals, evaluated
                    # inside the loop so non-matching pairs are never
                    # materialised.
                    condition = conjunction_source(
                        op.residuals, op.output_layout, "row"
                    )
                    em.emit("row = lrow + rrow")
                    with em.block(f"if {condition}:"):
                        em.emit("append(row)")
                        if gen.traced:
                            _emit_output_trace(em, orb)
                else:
                    em.emit("append(lrow + rrow)")
                    if gen.traced:
                        _emit_output_trace(em, orb)
        em.emit("return out")
    em.emit()


# -- join teams -------------------------------------------------------------------------


def emit_multiway_join(
    em: Emitter, gen: GenContext, op: MultiwayJoin, func_name: str
) -> None:
    """Emit a join-team function over n staged inputs."""
    n = len(op.input_ops)
    params = ", ".join(f"in{k}" for k in range(n))
    if not gen.optimized:
        with em.block(f"def {func_name}(ctx, {params}):"):
            positions = tuple(op.key_positions)
            if op.algorithm == JOIN_MERGE:
                em.emit(
                    f"return _rt.multiway_merge_join([{params}], "
                    f"{positions!r})"
                )
            else:
                em.emit("out = []")
                em.emit(f"_num_parts = len(in0)")
                with em.block("for _m in range(_num_parts):"):
                    em.emit(
                        "_parts = ["
                        + ", ".join(f"in{k}[_m]" for k in range(n))
                        + "]"
                    )
                    for k in range(n):
                        em.emit(
                            f"_parts[{k}].sort(key=_itemgetter("
                            f"{op.key_positions[k]}))"
                        )
                    em.emit(
                        f"out.extend(_rt.multiway_merge_join(_parts, "
                        f"{positions!r}))"
                    )
                em.emit("return out")
        em.emit()
        return

    with em.block(f"def {func_name}(ctx, {params}):"):
        em.emit("out = []")
        em.emit("append = out.append")
        if gen.traced:
            em.emit("_probe = ctx.probe")
            em.emit("_ob = ctx.probe.space.alloc(1 << 24)")
            em.emit("_wn = 0")
        if op.algorithm == JOIN_MERGE:
            _emit_team_merge_body(
                em, gen, op, [f"in{k}" for k in range(n)]
            )
        else:
            with em.block("for _m in range(len(in0)):"):
                part_vars = []
                for k in range(n):
                    em.emit(f"p{k} = in{k}[_m]")
                    part_vars.append(f"p{k}")
                empties = " or ".join(f"not p{k}" for k in range(n))
                with em.block(f"if {empties}:"):
                    em.emit("continue")
                for k in range(n):
                    em.emit(
                        f"p{k}.sort(key=_itemgetter({op.key_positions[k]}))"
                    )
                _emit_team_merge_body(em, gen, op, part_vars)
        em.emit("return out")
    em.emit()


def _emit_team_merge_body(
    em: Emitter, gen: GenContext, op: MultiwayJoin, inputs: list[str]
) -> None:
    """N-ary merge over key-sorted inputs, with generated loop nesting."""
    n = len(inputs)
    keys = op.key_positions
    for k, var in enumerate(inputs):
        em.emit(f"i{k} = 0")
        em.emit(f"n{k} = len({var})")
    guard = " and ".join(f"i{k} < n{k}" for k in range(n))
    with em.block(f"while {guard}:"):
        if gen.traced:
            em.emit(
                f"_probe.instr({n * (costs.LOOP_ITER_INSTRUCTIONS + costs.PREDICATE_INSTRUCTIONS)})"
            )
        for k, var in enumerate(inputs):
            em.emit(f"k{k} = {var}[i{k}][{keys[k]}]")
        em.emit("_kmax = k0")
        for k in range(1, n):
            with em.block(f"if k{k} > _kmax:"):
                em.emit(f"_kmax = k{k}")
        em.emit("_advanced = False")
        for k in range(n):
            with em.block(f"if k{k} < _kmax:"):
                em.emit(f"i{k} += 1")
                em.emit("_advanced = True")
        with em.block("if _advanced:"):
            em.emit("continue")
        # All keys equal: find each input's group end, then emit the
        # cross product of the groups with one loop level per input —
        # the loop-blocking layout of Section V-B.
        for k, var in enumerate(inputs):
            em.emit(f"e{k} = i{k} + 1")
            with em.block(
                f"while e{k} < n{k} and {var}[e{k}][{keys[k]}] == _kmax:"
            ):
                em.emit(f"e{k} += 1")
        _emit_group_product(em, gen, op, inputs, 0, "")
        for k in range(n):
            em.emit(f"i{k} = e{k}")


def _emit_group_product(
    em: Emitter,
    gen: GenContext,
    op: MultiwayJoin,
    inputs: list[str],
    depth: int,
    prefix: str,
) -> None:
    n = len(inputs)
    var = inputs[depth]
    index = f"a{depth}"
    with em.block(f"for {index} in range(i{depth}, e{depth}):"):
        if depth == n - 1:
            row = f"{prefix} + {var}[{index}]" if prefix else f"{var}[{index}]"
            em.emit(f"append({row})")
            if gen.traced:
                em.emit("_wn += 1")
                em.emit(f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS})")
        else:
            combined = f"r{depth}"
            if prefix:
                em.emit(f"{combined} = {prefix} + {var}[{index}]")
            else:
                em.emit(f"{combined} = {var}[{index}]")
            _emit_group_product(em, gen, op, inputs, depth + 1, combined)


# -- trace helpers ------------------------------------------------------------------------


def _row_bytes_left(op: Join) -> int:
    return _input_bytes(op, left=True)


def _row_bytes_right(op: Join) -> int:
    return _input_bytes(op, left=False)


def _input_bytes(op: Join, left: bool) -> int:
    """Approximate staged row width (8 bytes per slot).

    The join output layout is left ++ right; without child layouts at
    hand we split it evenly, which only affects trace addresses, not
    results.
    """
    total = len(op.output_layout)
    half = max(total // 2, 1)
    return (half if left else max(total - half, 1)) * 8


def _emit_join_trace_init(em: Emitter, op: Join) -> None:
    em.emit("_probe = ctx.probe")
    em.emit("_lb = ctx.probe.space.alloc(1 << 24)")
    em.emit("_rb = ctx.probe.space.alloc(1 << 24)")
    em.emit("_ob = ctx.probe.space.alloc(1 << 26)")
    em.emit("_wn = 0")


def _emit_output_trace(em: Emitter, row_bytes: int) -> None:
    """Charge the result-generation instructions (no load: the paper
    does not materialise query output)."""
    em.emit("_wn += 1")
    em.emit(
        f"_probe.instr({costs.LOOP_ITER_INSTRUCTIONS + costs.COPY_WORD_INSTRUCTIONS * 4})"
    )


def _emit_partition_sort_trace(em: Emitter, op: Join) -> None:
    lrb = _row_bytes_left(op)
    with em.block("if len(left) > 1:"):
        em.emit(
            f"_probe.instr(int(len(left) * _log2(len(left))) * "
            f"{costs.SORT_STEP_INSTRUCTIONS})"
        )
    with em.block("if len(right) > 1:"):
        em.emit(
            f"_probe.instr(int(len(right) * _log2(len(right))) * "
            f"{costs.SORT_STEP_INSTRUCTIONS})"
        )
