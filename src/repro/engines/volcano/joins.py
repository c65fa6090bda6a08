"""Iterator join operators: merge, hybrid hash-sort-merge, fine hash,
and blocked nested loops.

These are the "iterator-based versions of the proposed algorithms" the
paper benchmarks against HIQUE in Section VI-B: the same staged
algorithms, but with per-tuple ``next()`` traffic and closure-based
comparisons instead of generated inline code.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engines.volcano.base import Iterator
from repro.engines.volcano.operators import Materialize, _charge_sort
from repro.memsim import costs
from repro.memsim.probe import NULL_PROBE, NullProbe


class MergeJoin(Iterator):
    """Merge join over children sorted on their join keys."""

    def __init__(
        self,
        left: Iterator,
        right: Iterator,
        left_key: int,
        right_key: int,
        probe: NullProbe = NULL_PROBE,
    ):
        super().__init__(probe)
        self.left = Materialize(left, probe)
        self.right = Materialize(right, probe)
        self.left_key = left_key
        self.right_key = right_key
        self._i = 0
        self._j = 0
        self._group_start = 0
        self._group_end = 0
        self._emit_j = 0
        self._in_group = False

    def open(self) -> None:
        super().open()
        self.left.open()
        self.right.open()
        self._i = 0
        self._j = 0
        self._in_group = False

    def close(self) -> None:
        self.left.close()
        self.right.close()
        super().close()

    def next(self) -> tuple | None:
        left_rows = self.left.rows
        right_rows = self.right.rows
        lk, rk = self.left_key, self.right_key
        probe = self.probe
        while True:
            self.touch_state()
            if self._in_group:
                if self._emit_j < self._group_end:
                    row = (
                        left_rows[self._i] + right_rows[self._emit_j]
                    )
                    self._emit_j += 1
                    if probe.enabled:
                        probe.instr(costs.LOOP_ITER_INSTRUCTIONS)
                        self.left.touch_row(self._i)
                        self.right.touch_row(self._emit_j - 1)
                    return row
                # Outer tuple exhausted its group: advance, maybe backtrack.
                self._i += 1
                if (
                    self._i < len(left_rows)
                    and left_rows[self._i][lk]
                    == right_rows[self._group_start][rk]
                ):
                    self._emit_j = self._group_start
                    continue
                self._in_group = False
                self._j = self._group_end
                continue
            if self._i >= len(left_rows) or self._j >= len(right_rows):
                return None
            key = left_rows[self._i][lk]
            right_value = right_rows[self._j][rk]
            if probe.enabled:
                probe.instr(2 * costs.PREDICATE_INSTRUCTIONS)
                self.left.touch_row(self._i)
                self.right.touch_row(self._j)
            if key < right_value:
                self._i += 1
                continue
            if key > right_value:
                self._j += 1
                continue
            self._group_start = self._j
            end = self._j
            while end < len(right_rows) and right_rows[end][rk] == key:
                end += 1
            self._group_end = end
            self._emit_j = self._group_start
            self._in_group = True


class HybridJoin(Iterator):
    """Hybrid hash-sort-merge join: partition both children, sort the
    corresponding partitions, merge them pairwise."""

    def __init__(
        self,
        left: Iterator,
        right: Iterator,
        left_key: int,
        right_key: int,
        num_partitions: int = 64,
        probe: NullProbe = NULL_PROBE,
    ):
        super().__init__(probe)
        self.left = Materialize(left, probe)
        self.right = Materialize(right, probe)
        self.left_key = left_key
        self.right_key = right_key
        self.num_partitions = num_partitions
        self._pending: list[tuple] = []
        self._cursor = 0

    def open(self) -> None:
        super().open()
        self.left.open()
        self.right.open()
        mask = self.num_partitions - 1
        lk, rk = self.left_key, self.right_key
        probe = self.probe
        left_parts: list[list[tuple]] = [
            [] for _ in range(self.num_partitions)
        ]
        right_parts: list[list[tuple]] = [
            [] for _ in range(self.num_partitions)
        ]
        part_addr = 0
        band = 1 << 20
        if probe.enabled:
            part_addr = probe.space.alloc(2 * self.num_partitions * band)
        for row in self.left.rows:
            bucket = hash(row[lk]) & mask
            left_parts[bucket].append(row)
            if probe.enabled:
                probe.instr(costs.HASH_INSTRUCTIONS)
                probe.load(
                    part_addr + bucket * band
                    + (len(left_parts[bucket]) * 16) % band,
                    16,
                )
        for row in self.right.rows:
            bucket = hash(row[rk]) & mask
            right_parts[bucket].append(row)
            if probe.enabled:
                probe.instr(costs.HASH_INSTRUCTIONS)
                probe.load(
                    part_addr + (self.num_partitions + bucket) * band
                    + (len(right_parts[bucket]) * 16) % band,
                    16,
                )
        out: list[tuple] = []
        append = out.append
        for left_part, right_part in zip(left_parts, right_parts):
            if not left_part or not right_part:
                continue
            left_part.sort(key=itemgetter(lk))
            right_part.sort(key=itemgetter(rk))
            _charge_sort(probe, len(left_part))
            _charge_sort(probe, len(right_part))
            i = 0
            j = 0
            n_left = len(left_part)
            n_right = len(right_part)
            while i < n_left and j < n_right:
                if probe.enabled:
                    probe.instr(2 * costs.PREDICATE_INSTRUCTIONS)
                    probe.load(part_addr + (i * 16) % band, 16)
                    probe.load(part_addr + band + (j * 16) % band, 16)
                left_row = left_part[i]
                key = left_row[lk]
                if key < right_part[j][rk]:
                    i += 1
                    continue
                if key > right_part[j][rk]:
                    j += 1
                    continue
                group_start = j
                while j < n_right and right_part[j][rk] == key:
                    append(left_row + right_part[j])
                    j += 1
                i += 1
                while i < n_left and left_part[i][lk] == key:
                    left_row = left_part[i]
                    for back in range(group_start, j):
                        append(left_row + right_part[back])
                    i += 1
        self._pending = out
        self._cursor = 0

    def close(self) -> None:
        self.left.close()
        self.right.close()
        super().close()

    def next(self) -> tuple | None:
        if self._cursor >= len(self._pending):
            return None
        row = self._pending[self._cursor]
        self._cursor += 1
        self.touch_state()
        return row


class FineHashJoin(Iterator):
    """Fine partition join: a value directory per side; corresponding
    partitions match entirely."""

    def __init__(
        self,
        left: Iterator,
        right: Iterator,
        left_key: int,
        right_key: int,
        probe: NullProbe = NULL_PROBE,
    ):
        super().__init__(probe)
        self.left = Materialize(left, probe)
        self.right = Materialize(right, probe)
        self.left_key = left_key
        self.right_key = right_key
        self._pending: list[tuple] = []
        self._cursor = 0

    def open(self) -> None:
        super().open()
        self.left.open()
        self.right.open()
        right_parts: dict = {}
        for row in self.right.rows:
            right_parts.setdefault(row[self.right_key], []).append(row)
        out: list[tuple] = []
        append = out.append
        probe = self.probe
        dir_addr = (
            probe.space.alloc(max(len(right_parts), 1) * 32)
            if probe.enabled
            else 0
        )
        for row in self.left.rows:
            matches = right_parts.get(row[self.left_key])
            if probe.enabled:
                probe.instr(costs.HASH_INSTRUCTIONS)
                probe.load(
                    dir_addr
                    + (hash(row[self.left_key]) % max(len(right_parts), 1))
                    * 32,
                    32,
                )
            if matches is None:
                continue
            for right_row in matches:
                append(row + right_row)
        self._pending = out
        self._cursor = 0

    def close(self) -> None:
        self.left.close()
        self.right.close()
        super().close()

    def next(self) -> tuple | None:
        if self._cursor >= len(self._pending):
            return None
        row = self._pending[self._cursor]
        self._cursor += 1
        self.touch_state()
        return row


class ProbeHashJoin(Iterator):
    """Build/probe hash join: the build child is loaded into a value
    directory on open(); the probe child streams through it, and each
    probe tuple yields its matches in build order, as ``left + right``.
    """

    def __init__(
        self,
        build: Iterator,
        probe_side: Iterator,
        build_key: int,
        probe_key: int,
        build_left: bool,
        probe: NullProbe = NULL_PROBE,
    ):
        super().__init__(probe)
        self.build = Materialize(build, probe)
        self.source = probe_side
        self.build_key = build_key
        self.probe_key = probe_key
        self.build_left = build_left
        self._directory: dict = {}
        self._dir_addr = 0
        self._row: tuple | None = None
        self._matches: list[tuple] = []
        self._cursor = 0

    def open(self) -> None:
        super().open()
        self.build.open()
        self.source.open()
        directory: dict = {}
        for row in self.build.rows:
            directory.setdefault(row[self.build_key], []).append(row)
        self._directory = directory
        if self.probe.enabled:
            self._dir_addr = self.probe.space.alloc(
                max(len(directory), 1) * 32
            )
        self._matches = []
        self._cursor = 0

    def close(self) -> None:
        self.build.close()
        self.source.close()
        super().close()

    def next(self) -> tuple | None:
        probe = self.probe
        while self._cursor >= len(self._matches):
            row = self.child_next(self.source)
            if row is None:
                return None
            key = row[self.probe_key]
            if probe.enabled:
                probe.instr(costs.HASH_INSTRUCTIONS)
                probe.load(
                    self._dir_addr
                    + (hash(key) % max(len(self._directory), 1)) * 32,
                    32,
                )
            self._row = row
            self._matches = self._directory.get(key, ())
            self._cursor = 0
        match = self._matches[self._cursor]
        self._cursor += 1
        self.touch_state()
        if self.build_left:
            return match + self._row
        return self._row + match


class NestedLoopsJoin(Iterator):
    """Blocked nested loops (cartesian products)."""

    def __init__(
        self, left: Iterator, right: Iterator, probe: NullProbe = NULL_PROBE
    ):
        super().__init__(probe)
        self.left = Materialize(left, probe)
        self.right = Materialize(right, probe)
        self._i = 0
        self._j = 0

    def open(self) -> None:
        super().open()
        self.left.open()
        self.right.open()
        self._i = 0
        self._j = 0

    def close(self) -> None:
        self.left.close()
        self.right.close()
        super().close()

    def next(self) -> tuple | None:
        left_rows = self.left.rows
        right_rows = self.right.rows
        if not left_rows or not right_rows:
            return None
        if self._j >= len(right_rows):
            self._j = 0
            self._i += 1
        if self._i >= len(left_rows):
            return None
        row = left_rows[self._i] + right_rows[self._j]
        self._j += 1
        self.touch_state()
        return row
