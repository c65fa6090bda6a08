"""System catalogue: table registry plus optimizer statistics.

The SQL binder validates queries against the catalogue (Section IV of
the paper: "The SQL parser checks the query for validity against the
system catalogue"), and the optimizer's greedy join ordering consumes the
per-table statistics kept here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import CatalogError
from repro.parallel.latch import ReadWriteLatch
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


@dataclass
class ColumnStats:
    """Per-column statistics used for selectivity/grouping estimates."""

    distinct: int = 0
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStats:
    """Per-table statistics for the greedy optimizer."""

    row_count: int = 0
    page_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def distinct_of(self, column: str, default: int | None = None) -> int:
        stats = self.columns.get(column)
        if stats is None or stats.distinct <= 0:
            # A common default: assume uniqueness-ish for key-like columns.
            return default if default is not None else max(self.row_count, 1)
        return stats.distinct


class Catalog:
    """Name → table mapping shared by the parser, optimizer and engines.

    Lookups are safe from concurrent reader threads (a registry lock
    guards the dictionaries).  Mutations — DDL, bulk loads through
    :meth:`exclusive`, ``analyze`` — additionally take the write side of
    :attr:`gate`, the readers–writer latch the query service uses to
    admit concurrent read queries while keeping writers exclusive.
    """

    def __init__(self, buffer: BufferManager | None = None):
        #: Shared buffer pool handed to tables created through the catalog.
        self.buffer = buffer if buffer is not None else BufferManager()
        #: Readers (query executions) vs writers (DDL/loads/analyze).
        self.gate = ReadWriteLatch()
        self._lock = threading.RLock()
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._listeners: list[Callable[[str | None], None]] = []

    # -- change notification ------------------------------------------------------
    def add_listener(
        self, listener: Callable[[str | None, str], None]
    ) -> None:
        """Register a callback fired after catalogue or data changes.

        The callback receives ``(name, kind)``: the affected table name
        (lowercased, or ``None`` when every table is affected) and the
        change kind — ``"ddl"`` for structural changes (create/drop/
        register, index creation, ``analyze``) or ``"dml"`` for data
        mutations under an unchanged schema.  The query service
        invalidates wholesale on DDL; on DML only version-keyed state
        (staged intermediates, column copies) is dropped.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[str | None, str], None]
    ) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, name: str | None, kind: str = "ddl") -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(name, kind)

    def notify_dml(self, name: str) -> None:
        """Announce a data mutation of one table (schema unchanged).

        Called by the DML executor and bulk-load paths *after* the
        table's :attr:`~repro.storage.table.Table.version` has moved,
        while still holding the write gate — listeners therefore observe
        the new version before any reader can race in.
        """
        self._notify(name.lower(), kind="dml")

    # -- write gating ------------------------------------------------------------
    def exclusive(self):
        """Exclusive-writer scope for out-of-band mutations (bulk loads).

        DDL and ``analyze`` gate themselves; callers mutating table
        contents directly (``Database.load_rows``, benchmark loaders)
        wrap the mutation in ``with catalog.exclusive(): ...`` so no
        read query observes a half-loaded table.
        """
        return self.gate.write()

    # -- registration -----------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        key = name.lower()
        with self.gate.write():
            with self._lock:
                if key in self._tables:
                    raise CatalogError(f"table {name!r} already exists")
                table = Table(name, schema, buffer=self.buffer)
                self._tables[key] = table
                self._stats[key] = TableStats()
            self._notify(key)
        return table

    def register(self, table: Table) -> Table:
        """Adopt an externally built table."""
        key = table.name.lower()
        with self.gate.write():
            with self._lock:
                if key in self._tables:
                    raise CatalogError(f"table {table.name!r} already exists")
                self._tables[key] = table
                self._stats[key] = TableStats()
            self._notify(key)
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        with self.gate.write():
            with self._lock:
                if key not in self._tables:
                    raise CatalogError(f"unknown table {name!r}")
                self._tables[key].file.close()
                del self._tables[key]
                del self._stats[key]
            self._notify(key)

    def create_index(self, name: str, column: str) -> BPlusTree:
        """Index one table's column and announce it as DDL.

        Built under the write gate, so no reader meets a half-built
        tree, and announced like any structural change, so plans
        cached before the index existed are re-optimized and pick it up.
        """
        with self.gate.write():
            index = self.table(name).create_index(column)
            self._notify(name.lower())
        return index

    # -- lookup -----------------------------------------------------------------
    def table(self, name: str) -> Table:
        with self._lock:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def tables(self) -> Iterator[Table]:
        with self._lock:
            return iter(list(self._tables.values()))

    def versions(self) -> dict[str, int]:
        """Current mutation epoch of every table, by lowercased name."""
        with self._lock:
            return {key: t.version for key, t in self._tables.items()}

    def version_of(self, name: str) -> int:
        """Current mutation epoch of one table."""
        return self.table(name).version

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def resolve_column(self, name: str) -> tuple[Table, Column]:
        """Resolve a possibly qualified column name to (table, column).

        Bare names must be unambiguous across all registered tables; this
        is the rule the binder applies for queries without aliases.
        """
        if "." in name:
            table_name, column_name = name.split(".", 1)
            table = self.table(table_name)
            idx = table.schema.index_of(column_name)
            return table, table.schema[idx]
        matches = [
            (t, t.schema[t.schema.index_of(name)])
            for t in self.tables()
            if t.schema.has_column(name)
        ]
        if not matches:
            raise CatalogError(f"unknown column {name!r}")
        if len(matches) > 1:
            owners = ", ".join(t.name for t, _ in matches)
            raise CatalogError(f"ambiguous column {name!r} (in {owners})")
        return matches[0]

    # -- statistics ----------------------------------------------------------------
    def stats(self, name: str) -> TableStats:
        key = name.lower()
        with self._lock:
            if key not in self._stats:
                raise CatalogError(f"unknown table {name!r}")
            return self._stats[key]

    def analyze(self, name: str | None = None) -> None:
        """Recompute statistics for one table (or all tables).

        Gathers row/page counts and exact per-column distinct counts and
        min/max — the paper gathers statistics "at the highest level of
        detail" before running its benchmarks.
        """
        with self.gate.write():
            names: Iterable[str]
            with self._lock:
                if name is None:
                    names = list(self._tables)
                else:
                    if name.lower() not in self._tables:
                        raise CatalogError(f"unknown table {name!r}")
                    names = [name.lower()]
            for key in names:
                table = self.table(key)
                stats = TableStats(
                    row_count=table.num_rows, page_count=table.num_pages
                )
                collectors: list[set] = [set() for _ in table.schema]
                minima: list[Any] = [None] * len(table.schema)
                maxima: list[Any] = [None] * len(table.schema)
                for row in table.scan_rows():
                    for i, value in enumerate(row):
                        collectors[i].add(value)
                        if minima[i] is None or value < minima[i]:
                            minima[i] = value
                        if maxima[i] is None or value > maxima[i]:
                            maxima[i] = value
                for i, column in enumerate(table.schema):
                    stats.columns[column.name] = ColumnStats(
                        distinct=len(collectors[i]),
                        min_value=minima[i],
                        max_value=maxima[i],
                    )
                with self._lock:
                    self._stats[key] = stats
            self._notify(name.lower() if name is not None else None)
