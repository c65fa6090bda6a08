"""Runtime support library for generated query code.

The HIQUE code generator emits self-contained source at its highest
optimization level (``O2``): loops, inline predicates, direct field
unpacking.  At ``O0`` — the analogue of compiling the paper's templates
with ``gcc -O0`` / of the "generic hard-coded" style — the generated
code instead *calls* the generic helpers in this module per block or per
tuple, keeping the same algorithms but paying call overhead and generic
dispatch.  The Volcano engine reuses several of these helpers too, which
guarantees all backends implement the same staging semantics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

Row = tuple
Rows = list

# -- sorting --------------------------------------------------------------------


def sort_key(positions: Sequence[int]) -> Callable[[Row], Any]:
    """Key extractor over one or more slot positions."""
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


def sort_rows(rows: Rows, positions: Sequence[int]) -> Rows:
    """Sort rows in place on the given positions; returns the list.

    ``list.sort`` plays the role of the paper's "optimized version of
    quicksort over L2-cache-fitting input partitions".
    """
    rows.sort(key=sort_key(positions))
    return rows


def sort_rows_mixed(
    rows: Rows, keys: Sequence[tuple[int, bool]]
) -> Rows:
    """ORDER BY with per-key direction via stable passes."""
    for position, ascending in reversed(keys):
        rows.sort(key=itemgetter(position), reverse=not ascending)
    return rows


# -- partitioning --------------------------------------------------------------------


def partition_rows(rows: Iterable[Row], key: int, num_partitions: int) -> list[Rows]:
    """Coarse partitioning: hash-and-modulo into ``num_partitions`` lists."""
    partitions: list[Rows] = [[] for _ in range(num_partitions)]
    mask = num_partitions - 1
    pow2 = num_partitions & mask == 0
    if pow2:
        for row in rows:
            partitions[hash(row[key]) & mask].append(row)
    else:
        for row in rows:
            partitions[hash(row[key]) % num_partitions].append(row)
    return partitions


def fine_partition_rows(rows: Iterable[Row], key: int) -> dict[Any, Rows]:
    """Fine partitioning: a value directory maps each key value to its
    own partition, so corresponding partitions match in full."""
    partitions: dict[Any, Rows] = {}
    for row in rows:
        bucket = partitions.get(row[key])
        if bucket is None:
            partitions[row[key]] = [row]
        else:
            bucket.append(row)
    return partitions


def partition_sort_rows(
    rows: Iterable[Row],
    partition_key: int,
    sort_positions: Sequence[int],
    num_partitions: int,
) -> list[Rows]:
    """Hybrid hash-sort staging: coarse partition, then sort partitions."""
    partitions = partition_rows(rows, partition_key, num_partitions)
    key = sort_key(sort_positions)
    for partition in partitions:
        partition.sort(key=key)
    return partitions


# -- scanning (generic O0 path) ---------------------------------------------------------


def scan_filter_project(
    table,
    predicate: Callable[[Row], bool] | None,
    projector: Callable[[Row], Row] | None,
    page_lo: int = 0,
    page_hi: int | None = None,
) -> Rows:
    """Generic staging scan: decode, filter, project row by row.

    ``page_lo``/``page_hi`` bound the scan to one morsel's page range;
    the defaults scan the whole table (the serial path).
    """
    out: Rows = []
    append = out.append
    for page in table.pages(page_lo, page_hi):
        for row in page.rows():
            if predicate is not None and not predicate(row):
                continue
            append(projector(row) if projector is not None else row)
    return out


def fetch_filter_project(
    table,
    rids: Iterable[tuple[int, int]],
    predicate: Callable[[Row], bool] | None,
    projector: Callable[[Row], Row] | None,
) -> Rows:
    """Generic index fetch: the rows at ``rids``, filtered and projected."""
    out: Rows = []
    append = out.append
    for page_no, slot in rids:
        row = table.row_at(page_no, slot)
        if predicate is not None and not predicate(row):
            continue
        append(projector(row) if projector is not None else row)
    return out


# -- join bodies (generic O0 path) ----------------------------------------------------------


def merge_join(
    left: Rows, right: Rows, left_key: int, right_key: int
) -> Rows:
    """Merge join over inputs sorted on their keys (Listing 2, merge)."""
    out: Rows = []
    append = out.append
    i = 0
    j = 0
    n_left = len(left)
    n_right = len(right)
    while i < n_left and j < n_right:
        left_row = left[i]
        key = left_row[left_key]
        right_value = right[j][right_key]
        if key < right_value:
            i += 1
            continue
        if key > right_value:
            j += 1
            continue
        group_start = j
        while j < n_right and right[j][right_key] == key:
            append(left_row + right[j])
            j += 1
        i += 1
        # Backtrack to the start of the matching inner group for every
        # further outer tuple sharing the key.
        while i < n_left and left[i][left_key] == key:
            left_row = left[i]
            for back in range(group_start, j):
                append(left_row + right[back])
            i += 1
    return out


def nested_loops_join(left: Rows, right: Rows) -> Rows:
    """Blocked cartesian product (the bare nested-loops template)."""
    out: Rows = []
    append = out.append
    for left_row in left:
        for right_row in right:
            append(left_row + right_row)
    return out


def hybrid_join(
    left_partitions: list[Rows],
    right_partitions: list[Rows],
    left_key: int,
    right_key: int,
    presorted: bool = True,
) -> Rows:
    """Hybrid hash-sort-merge join over corresponding partitions."""
    out: Rows = []
    for left_part, right_part in zip(left_partitions, right_partitions):
        if not left_part or not right_part:
            continue
        if not presorted:
            left_part.sort(key=itemgetter(left_key))
            right_part.sort(key=itemgetter(right_key))
        out.extend(merge_join(left_part, right_part, left_key, right_key))
    return out


def fine_hash_join(
    left_partitions: dict[Any, Rows], right_partitions: dict[Any, Rows]
) -> Rows:
    """Fine partition join: corresponding partitions match entirely."""
    out: Rows = []
    append = out.append
    for key, left_rows in left_partitions.items():
        right_rows = right_partitions.get(key)
        if right_rows is None:
            continue
        for left_row in left_rows:
            for right_row in right_rows:
                append(left_row + right_row)
    return out


def probe_hash_join(
    build: dict[Any, Rows],
    rows: Rows,
    probe_key: int,
    build_left: bool,
) -> Rows:
    """Build/probe hash join: each probe row in order, looked up in the
    build side's fine partitions; output rows are ``left + right``."""
    out: Rows = []
    append = out.append
    for row in rows:
        matches = build.get(row[probe_key])
        if matches is None:
            continue
        for match in matches:
            append(match + row if build_left else row + match)
    return out


def multiway_merge_join(
    inputs: list[Rows], key_positions: Sequence[int]
) -> Rows:
    """N-ary merge join over inputs sorted on their keys (join team)."""
    out: Rows = []
    n = len(inputs)
    cursors = [0] * n
    lengths = [len(rows) for rows in inputs]
    while all(cursors[k] < lengths[k] for k in range(n)):
        keys = [
            inputs[k][cursors[k]][key_positions[k]] for k in range(n)
        ]
        maximum = max(keys)
        advanced = False
        for k in range(n):
            if keys[k] < maximum:
                cursors[k] += 1
                advanced = True
        if advanced:
            continue
        ends = []
        for k in range(n):
            end = cursors[k]
            rows = inputs[k]
            position = key_positions[k]
            while end < lengths[k] and rows[end][position] == maximum:
                end += 1
            ends.append(end)
        _emit_group(inputs, cursors, ends, 0, (), out)
        for k in range(n):
            cursors[k] = ends[k]
    return out


def _emit_group(
    inputs: list[Rows],
    starts: list[int],
    ends: list[int],
    depth: int,
    prefix: Row,
    out: Rows,
) -> None:
    if depth == len(inputs):
        out.append(prefix)
        return
    rows = inputs[depth]
    for index in range(starts[depth], ends[depth]):
        _emit_group(inputs, starts, ends, depth + 1, prefix + rows[index], out)


# -- aggregation bodies (generic O0 path) --------------------------------------------------------


def sorted_group_scan(
    rows: Rows,
    group_positions: Sequence[int],
    init: Callable[[], list],
    update: Callable[[list, Row], None],
    finalize: Callable[[tuple, list], Row],
) -> Rows:
    """Sort aggregation: single scan over group-sorted rows."""
    out: Rows = []
    current_key: tuple | None = None
    state: list | None = None
    for row in rows:
        key = tuple(row[p] for p in group_positions)
        if key != current_key:
            if state is not None:
                out.append(finalize(current_key, state))
            current_key = key
            state = init()
        update(state, row)
    if state is not None:
        out.append(finalize(current_key, state))
    return out


def hash_group_aggregate(
    rows: Rows,
    key_fn: Callable[[Row], tuple],
    init: Callable[[], list],
    update: Callable[[list, Row], None],
    finalize: Callable[[tuple, list], Row],
) -> Rows:
    """Generic hash aggregation (the O0 stand-in for map aggregation)."""
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for row in rows:
        key = key_fn(row)
        state = groups.get(key)
        if state is None:
            state = init()
            groups[key] = state
            order.append(key)
        update(state, row)
    return [finalize(key, groups[key]) for key in order]


def generic_partial(rows: Rows, helpers) -> dict[tuple, list[list]]:
    """Thread-local partial aggregation for the O0 morsel path.

    Accumulates one morsel's rows with the operator's generic helpers,
    then converts each group's states to the mergeable 4-slot
    ``[sum, count, minimum, maximum]`` representation the parallel
    executor's merge step consumes (see
    :func:`repro.parallel.executor.merge_aggregate_partials`).
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        key = helpers.key_fn(row)
        state = groups.get(key)
        if state is None:
            state = groups[key] = helpers.init()
        helpers.update(state, row)
    return {
        key: [
            [st.total, st.count, st.minimum, st.maximum] for st in states
        ]
        for key, states in groups.items()
    }


def limit_rows(rows: Rows, count: int) -> Rows:
    return rows[:count]


# -- raw string comparison (O2 scans) -------------------------------------------------------


def char_bytes(value: Any, width: int) -> bytes | None:
    """The space-padded bytes a ``width``-byte CHAR/VARCHAR slot holds
    when it decodes to ``value``; None when no slot decodes to it (not a
    string, a trailing space, or wider than the slot), which compares
    unequal to every slot."""
    if not isinstance(value, str) or value.endswith(" "):
        return None
    raw = value.encode("utf-8")
    if len(raw) > width:
        return None
    return raw.ljust(width, b" ")
