"""Tables: schema + heap file + buffer-mediated access paths.

A :class:`Table` couples a schema with a heap file and exposes the three
access paths the engines use:

* ``append`` / ``load_rows`` for building tables;
* ``scan_rows`` for decoded row iteration (iterator engines, tests);
* ``pages`` / ``page_buffers`` for page-granular access, which is what
  the HIQUE-generated code and the hard-coded baselines use — they walk
  raw page bytes with per-field offsets, exactly like the C templates in
  the paper.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.btree import BPlusTree, KeyRange, build_index
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import HeapFile, MemoryFile
from repro.storage.page import Page
from repro.storage.schema import Schema


#: An index probe that matches more than this fraction of the table
#: (1/16) is declined: past it the per-rid page fetches cost more than
#: the sequential scan they would replace.  The floor keeps point
#: lookups on tables of a few pages from tripping the rule.
INDEX_DECLINE_DIVISOR = 16
INDEX_DECLINE_FLOOR = 16


class IndexProbe(NamedTuple):
    """What :meth:`Table.probe_index` found."""

    #: Matching rids in heap order, or ``None`` when the probe declined.
    rids: list[tuple[int, int]] | None
    #: Entries seen (a declined range stops counting at ``cutoff + 1``).
    matched: int
    #: The most rids the probe would have accepted.
    cutoff: int


class Table:
    """A stored relation."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        file: HeapFile | None = None,
        buffer: BufferManager | None = None,
    ):
        self.name = name
        self.schema = schema.qualify(name) if _unqualified(schema) else schema
        self.file = file if file is not None else MemoryFile()
        self.buffer = buffer if buffer is not None else BufferManager()
        #: How scans read a page, decided once: a memory file's page
        #: never waits, a disk file's scans read ahead.
        self._scan_page = (
            self.buffer.scan_page
            if isinstance(self.file, MemoryFile)
            else self.buffer.scan_ahead
        )
        self._row_count = 0
        self._tail_page_no: int | None = None
        #: Monotonic mutation epoch.  Every mutation (append, bulk load,
        #: update, delete, truncate) advances it, so any cache keyed on
        #: ``(table, version)`` is coherent without tracking what changed.
        self.version = 0
        #: The version of the last mutation that was not a pure
        #: :meth:`append_rows`.  Between it and :attr:`version` the heap
        #: only grew at its end, so whatever was derived from its rows
        #: at a version in that range can be extended, not rebuilt.
        self.rewritten = 0
        #: column name → B+-tree over that column (rid values).  Appends
        #: and index-located updates/deletes patch single entries; the
        #: page-rewriting paths (full-scan DML, bulk load, truncate)
        #: shift rids wholesale and rebuild.
        self._indexes: dict[str, BPlusTree] = {}
        #: Probes answered from an index / handed back to the scan.
        self.index_probes = 0
        self.index_declined = 0
        self._probe_stats_lock = threading.Lock()
        #: Serializes appends/truncation; reads are lock-free (they go
        #: through the latched buffer manager and snapshot page counts).
        self._write_lock = threading.Lock()
        # Rows may pre-exist in the file (e.g. reopened DiskFile).
        if self.file.num_pages:
            self._row_count = sum(
                p.num_tuples for p in self.pages()
            )
            self._tail_page_no = self.file.num_pages - 1

    # -- building --------------------------------------------------------------
    def append(self, row: Sequence[Any]) -> None:
        """Append one Python row."""
        self.append_rows([row])

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows at the tail as ONE mutation: a single version bump.

        Unlike :meth:`load_rows` this fills the current tail page before
        growing, so small statements don't each open a fresh page; the
        whole batch advances the epoch once, matching the
        statement-granular invalidation the caches key on.
        """
        count = 0
        touched = False
        with self._write_lock:
            try:
                for row in rows:
                    encoded = self.schema.encode(row)
                    page = self._tail_page()
                    if page.is_full:
                        page = self._grow()
                    touched = True
                    slot = page.insert(encoded)
                    assert self._tail_page_no is not None
                    self.buffer.unpin(
                        self.file, self._tail_page_no, dirty=True
                    )
                    self._row_count += 1
                    if self._indexes:
                        rid = (self._tail_page_no, slot)
                        for position, index in self._indexed_positions():
                            # The stored form is the key (CHAR padding
                            # is stripped on decode), exactly as
                            # build_index reads it.
                            index.insert(page.read_field(slot, position), rid)
                    count += 1
            finally:
                # Bump even when a later row failed: earlier rows are
                # already on the page, so caches keyed on the old
                # version must not survive.
                if touched:
                    self.version += 1
        return count

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-append rows; returns the number inserted.

        Packs pages directly (one pin per page, not per row), which is the
        path the data generators use.
        """
        count = 0
        encode = self.schema.encode
        page: Page | None = None
        page_no: int | None = None
        with self._write_lock:
            try:
                for row in rows:
                    if page is None or page.is_full:
                        if page is not None:
                            self.buffer.unpin(self.file, page_no, dirty=True)
                        page_no, page = self.buffer.new_page(
                            self.file, self.schema
                        )
                        self._tail_page_no = page_no
                    page.insert(encode(row))
                    count += 1
            finally:
                # A row that fails to encode leaves the rows before it
                # loaded: count them, and move the version over them.
                if page is not None:
                    self.buffer.unpin(self.file, page_no, dirty=True)
                self._row_count += count
                self._rewrote()
                self._rebuild_indexes()
        return count

    def _rewrote(self) -> None:
        """Move the version over a mutation that did more than append."""
        self.version += 1
        self.rewritten = self.version

    def _tail_page(self) -> Page:
        if self._tail_page_no is None:
            page_no, page = self.buffer.new_page(self.file, self.schema)
            self._tail_page_no = page_no
            return page
        return self.buffer.get_page(
            self.file, self._tail_page_no, self.schema
        )

    def _grow(self) -> Page:
        assert self._tail_page_no is not None
        self.buffer.unpin(self.file, self._tail_page_no)
        following = self._tail_page_no + 1
        if following < self.file.num_pages:
            # Deletes emptied the pages past the tail without
            # deallocating them: refill those before growing the file.
            self._tail_page_no = following
            return self.buffer.get_page(self.file, following, self.schema)
        page_no, page = self.buffer.new_page(self.file, self.schema)
        self._tail_page_no = page_no
        return page

    # -- introspection -----------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._row_count

    @property
    def num_pages(self) -> int:
        return self.file.num_pages

    @property
    def tuple_size(self) -> int:
        return self.schema.tuple_size

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"Table({self.name!r}, {self._row_count} rows, "
            f"{self.num_pages} pages)"
        )

    # -- access paths -----------------------------------------------------------
    def read_page(self, page_no: int) -> Page:
        """Buffer-mediated unpinned page read (generated-code path)."""
        return self._scan_page(self.file, page_no, self.schema)

    def pages(self, page_lo: int = 0) -> Iterator[Page]:
        """Iterate pages through the buffer manager, from ``page_lo``."""
        scan_page = self._scan_page
        for page_no in range(page_lo, self.file.num_pages):
            yield scan_page(self.file, page_no, self.schema)

    def scan_rows(self) -> Iterator[tuple]:
        """Iterate over all rows decoded into Python tuples."""
        for page in self.pages():
            yield from page.rows()

    def all_rows(self) -> list[tuple]:
        """Materialise the whole table (tests and small inputs only)."""
        return list(self.scan_rows())

    def heap_end(self) -> tuple[int, int]:
        """``(page, slot)`` just past the last stored row.

        Rows appended later sit at or after it in heap order: from that
        slot of that page on, then on the pages that follow.
        """
        if self._tail_page_no is None:
            return (0, 0)
        tail = self.read_page(self._tail_page_no)
        return (self._tail_page_no, tail.num_tuples)

    def tail(self, end: tuple[int, int]) -> "TableTail":
        """A read-only view of the rows stored at or after ``end``."""
        return TableTail(self, end)

    def row_at(self, page_no: int, slot: int) -> tuple:
        """Fetch one row by rid; used by index lookups.

        Unlike the scan paths, the page reference is held across the
        decode, so it stays pinned for the duration of the read.
        """
        with self.buffer.shared(self.file, page_no, self.schema) as page:
            return page.read(slot)

    def truncate(self) -> None:
        """Remove all rows (pages are cleared, not deallocated)."""
        with self._write_lock:
            for page_no in range(self.file.num_pages):
                page = self.buffer.get_page(self.file, page_no, self.schema)
                page.clear()
                self.buffer.unpin(self.file, page_no, dirty=True)
            self._row_count = 0
            if self.file.num_pages:
                self._tail_page_no = 0
            self._rewrote()
            self._rebuild_indexes()

    # -- DML -----------------------------------------------------------------
    def update_rows(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], Sequence[Any]],
        key_range: KeyRange | None = None,
    ) -> int:
        """Rewrite matching rows in place; returns the match count.

        ``key_range`` names bounds on an indexed column that every
        matching row satisfies (the predicate is still checked in
        full).  When the index accepts the probe, only the rows it
        returns are read, each match overwrites its fixed-width slot,
        and index entries are patched for just the keys that changed;
        every new row is encoded before the first one is written, so a
        value that does not fit leaves the table untouched.

        Otherwise each page is rewritten independently: its rows are
        decoded, the updater applied where the predicate matches, and
        the page repacked.  Row counts per page never change, so every
        rewrite fits.  New rows are fully encoded *before* the page is
        cleared, so an encode failure leaves that page untouched.
        """
        with self._write_lock:
            rids = self._probe_for_write(key_range)
            if rids is not None:
                return self._update_at(rids, predicate, updater)
            return self._update_scan(predicate, updater)

    def _update_at(self, rids, predicate, updater) -> int:
        """In-place update of the given rids; caller holds the lock."""
        encode = self.schema.encode
        pending: list[tuple[tuple[int, int], tuple, bytes]] = []
        for rid in rids:
            row = self.row_at(*rid)
            if predicate(row):
                pending.append((rid, row, encode(tuple(updater(row)))))
        if not pending:
            return 0
        indexed = self._indexed_positions()
        try:
            for rid, old_row, encoded in pending:
                page_no, slot = rid
                page = self.buffer.get_page(self.file, page_no, self.schema)
                try:
                    page.overwrite(slot, encoded)
                    for position, index in indexed:
                        key = page.read_field(slot, position)
                        if key != old_row[position]:
                            index.delete(old_row[position], rid)
                            index.insert(key, rid)
                finally:
                    self.buffer.unpin(self.file, page_no, dirty=True)
        finally:
            # A failure between the page overwrite and the index patch
            # still changed what readers see.
            self._rewrote()
        return len(pending)

    def _update_scan(self, predicate, updater) -> int:
        """Page-by-page update; caller holds the lock."""
        changed = 0
        rewrote = False
        try:
            for page_no in range(self.file.num_pages):
                page = self.buffer.get_page(self.file, page_no, self.schema)
                dirty = False
                try:
                    replacement: list[bytes] = []
                    for row in page.rows():
                        if predicate(row):
                            row = tuple(updater(row))
                            changed += 1
                            dirty = True
                        replacement.append(self.schema.encode(row))
                    if dirty:
                        page.clear()
                        for encoded in replacement:
                            page.insert(encoded)
                        rewrote = True
                finally:
                    self.buffer.unpin(self.file, page_no, dirty=dirty)
        finally:
            # Bump even when a later page failed to encode: earlier
            # pages were already rewritten, so caches keyed on the
            # old version must not survive.
            if rewrote:
                self._rewrote()
                self._rebuild_indexes()
        return changed

    def delete_rows(
        self,
        predicate: Callable[[tuple], bool],
        key_range: KeyRange | None = None,
    ) -> int:
        """Remove matching rows; returns the number removed.

        With a ``key_range`` the index accepts (see
        :meth:`update_rows`), each victim's slot is refilled with the
        heap's last row and only the two rows' index entries are
        patched.  Otherwise survivors are repacked front to front
        across the existing pages.  Either way trailing pages are
        emptied, not deallocated, so page numbers stay dense.
        """
        with self._write_lock:
            rids = self._probe_for_write(key_range)
            if rids is not None:
                return self._delete_at(rids, predicate)
            survivors: list[tuple] = []
            removed = 0
            for page in self.pages():
                for row in page.rows():
                    if predicate(row):
                        removed += 1
                    else:
                        survivors.append(row)
            if removed:
                try:
                    self._repack(survivors)
                finally:
                    self._rewrote()
                    self._rebuild_indexes()
        return removed

    def _delete_at(self, rids, predicate) -> int:
        """Delete the matching rows among ``rids``; caller holds the lock.

        Victims go highest rid first: the row moved into a hole is
        always the heap's current last row, which then sits at or past
        the victim and so is never a victim still waiting its turn.
        """
        victims = []
        for rid in rids:
            row = self.row_at(*rid)
            if predicate(row):
                victims.append((rid, row))
        if not victims:
            return 0
        indexed = self._indexed_positions()
        try:
            for rid, row in reversed(victims):
                for position, index in indexed:
                    index.delete(row[position], rid)
                tail_no, tail = self._last_row_page()
                try:
                    tail_rid = (tail_no, tail.num_tuples - 1)
                    if tail_rid != rid:
                        moved = tail.read(tail_rid[1])
                        hole = self.buffer.get_page(
                            self.file, rid[0], self.schema
                        )
                        try:
                            hole.overwrite(rid[1], tail.raw(tail_rid[1]))
                        finally:
                            self.buffer.unpin(self.file, rid[0], dirty=True)
                        for position, index in indexed:
                            index.delete(moved[position], tail_rid)
                            index.insert(moved[position], rid)
                    tail.num_tuples -= 1
                finally:
                    self.buffer.unpin(self.file, tail_no, dirty=True)
                self._row_count -= 1
        finally:
            # As in _update_at: a partial delete changed what readers
            # see.
            self._rewrote()
        return len(victims)

    def _last_row_page(self) -> tuple[int, Page]:
        """The last non-empty page, pinned, and now the append tail."""
        page_no = self._tail_page_no
        assert page_no is not None
        while True:
            page = self.buffer.get_page(self.file, page_no, self.schema)
            if page.num_tuples or page_no == 0:
                self._tail_page_no = page_no
                return page_no, page
            self.buffer.unpin(self.file, page_no)
            page_no -= 1

    def _repack(self, rows: list[tuple]) -> None:
        """Rewrite the whole heap with ``rows``; caller holds the lock."""
        encode = self.schema.encode
        cursor = 0
        last_used: int | None = None
        for page_no in range(self.file.num_pages):
            page = self.buffer.get_page(self.file, page_no, self.schema)
            page.clear()
            while cursor < len(rows) and not page.is_full:
                page.insert(encode(rows[cursor]))
                cursor += 1
            if page.num_tuples:
                last_used = page_no
            self.buffer.unpin(self.file, page_no, dirty=True)
        self._row_count = len(rows)
        self._tail_page_no = last_used if last_used is not None else 0

    # -- secondary indexes ----------------------------------------------------
    def create_index(self, column: str) -> BPlusTree:
        """Build (or return) a B+-tree index over ``column``.

        The low-level call: plans cached before the index existed do
        not learn of it.  ``Database.create_index`` builds under the
        catalogue's write gate and announces the change.
        """
        key = column.lower()
        self.schema.index_of(key)  # raises CatalogError on unknown column
        with self._write_lock:
            if key not in self._indexes:
                self._indexes[key] = build_index(self, key)
            return self._indexes[key]

    def index_on(self, column: str) -> BPlusTree | None:
        """The registered index over ``column``, or None."""
        return self._indexes.get(column.lower())

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    def probe_index(
        self,
        column: str,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> IndexProbe:
        """Rids of the rows whose ``column`` lies between the bounds.

        Declines — ``rids`` is None — once the matches exceed
        1/``INDEX_DECLINE_DIVISOR`` of the table: the caller then scans,
        which costs what it always did plus a probe that stopped one
        entry past the cutoff.  Accepted rids come back in heap order,
        so fetching them reads each page once and yields rows in the
        order a filtering scan would.
        """
        index = self._indexes[column]
        cutoff = max(
            self._row_count // INDEX_DECLINE_DIVISOR, INDEX_DECLINE_FLOOR
        )
        if low_inclusive and high_inclusive and low is not None and low == high:
            rids = index.search(low)
        else:
            rids = [
                rid
                for _, rid in index.range_scan(
                    low, high, low_inclusive, high_inclusive,
                    limit=cutoff + 1,
                )
            ]
        declined = len(rids) > cutoff
        with self._probe_stats_lock:
            if declined:
                self.index_declined += 1
            else:
                self.index_probes += 1
        if declined:
            return IndexProbe(None, len(rids), cutoff)
        rids.sort()
        return IndexProbe(rids, len(rids), cutoff)

    def _indexed_positions(self) -> list[tuple[int, BPlusTree]]:
        """(schema position of the key column, tree) per index."""
        return [
            (self.schema.index_of(column), index)
            for column, index in self._indexes.items()
        ]

    def _probe_for_write(
        self, key_range: KeyRange | None
    ) -> list[tuple[int, int]] | None:
        """Rids a DML statement should visit, or None to scan."""
        if key_range is None or key_range.column not in self._indexes:
            return None
        return self.probe_index(*key_range).rids

    def _rebuild_indexes(self) -> None:
        """Rebuild every registered index; caller holds the write lock.

        The page-rewriting mutations shift rids wholesale, so the trees
        are bulk-built again rather than patched.
        """
        for column in list(self._indexes):
            self._indexes[column] = build_index(self, column)

    def check_indexes(self) -> None:
        """Raise StorageError unless every index agrees with the heap:
        structurally sound, every rid resolving to a row that carries
        its key, and exactly one entry per stored row."""
        for column, index in self._indexes.items():
            index.check_invariants()
            position = self.schema.index_of(column)
            seen: set[tuple[int, int]] = set()
            for key, rid in index.items():
                seen.add(rid)
                if self.row_at(*rid)[position] != key:
                    raise StorageError(
                        f"index on {self.name}.{column}: entry {key!r} -> "
                        f"{rid} points at a row without it"
                    )
            entries = len(index)
            if len(seen) != entries or entries != self._row_count:
                raise StorageError(
                    f"index on {self.name}.{column} holds {entries} entries "
                    f"for {self._row_count} rows"
                )


class TableTail:
    """The rows a table gained after a :meth:`Table.heap_end`.

    Stands in for the table wherever a scan reads pages
    (``read_page``, ``pages``) and forwards everything else: the end
    page reads from the end slot on, earlier pages read as empty.  A
    generated staging function run over this view stages exactly the
    rows appended since the end was taken.
    """

    def __init__(self, table: Table, end: tuple[int, int]):
        self._table = table
        self._page_no, self._slot = end

    def __getattr__(self, name: str) -> Any:
        return getattr(self._table, name)

    def read_page(self, page_no: int) -> Page:
        page = self._table.read_page(page_no)
        if page_no > self._page_no:
            return page
        if page_no < self._page_no:
            return page.tail(page.num_tuples)
        return page.tail(self._slot)

    def pages(self, page_lo: int = 0) -> Iterator[Page]:
        for page_no in range(page_lo, self._table.num_pages):
            yield self.read_page(page_no)


def _unqualified(schema: Schema) -> bool:
    return all(c.table is None for c in schema.columns)


def table_from_rows(
    name: str,
    schema: Schema,
    rows: Iterable[Sequence[Any]],
    buffer: BufferManager | None = None,
) -> Table:
    """Convenience constructor used pervasively by tests and benchmarks."""
    table = Table(name, schema, buffer=buffer)
    table.load_rows(rows)
    return table


def require_same_arity(table: Table, row: Sequence[Any]) -> None:
    """Explicit arity check helper for user-facing load paths."""
    if len(row) != len(table.schema):
        raise StorageError(
            f"row arity {len(row)} does not match table "
            f"{table.name!r} arity {len(table.schema)}"
        )
