"""The buffer pool's sequential read-ahead over disk files.

A scan of a :class:`~repro.storage.heapfile.DiskFile` keeps the pages
after its second consecutive read requested from a few fetcher
threads.  What must hold: rows equal a memory copy's, nothing stays
pinned, only sequential reads fetch ahead, a fetch that fails is never
what a scan sees, a fetch that overlapped a write-back is never
installed, and ``Database.close()`` leaves no fetcher running.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database
from repro.errors import BufferPoolError
from repro.storage import Catalog, Column, INT, Schema, char
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

SCHEMA = Schema([Column("a", INT), Column("b", INT), Column("c", char(8))])
ROWS = [(i, (i * 7) % 101, f"c{i % 13}") for i in range(12_000)]


def _disk_db(tmp_path, capacity: int = 4096, latency: float = 0.0):
    buffer = BufferManager(capacity=capacity)
    catalog = Catalog(buffer)
    file = DiskFile(str(tmp_path / "t.pages"), read_latency=latency)
    table = Table("t", SCHEMA, file=file, buffer=buffer)
    table.load_rows(ROWS)
    catalog.register(table)
    catalog.analyze()
    return Database(catalog=catalog)


def _memory_db():
    db = Database()
    db.create_table("t", list(SCHEMA.columns))
    db.load_rows("t", ROWS)
    db.analyze()
    return db


def _fetchers() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("read-ahead")
    }


class _Gate:
    """Holds a file's read-ahead fetches of pages from ``first`` on
    until released: after their read (the bytes they carry are the
    file's at read time), or, with ``before=True``, before it."""

    def __init__(self, file: DiskFile, before: bool = False, first: int = 0):
        self.release = threading.Event()
        self.held: list[int] = []
        self.file = file
        self.before = before
        self.first = first
        self._read = file.read_page
        file.read_page = self.read_page

    def read_page(self, page_no: int):
        if page_no < self.first or not threading.current_thread().name.startswith(
            "read-ahead"
        ):
            return self._read(page_no)
        if self.before:
            self._hold(page_no)
            return self._read(page_no)
        data = self._read(page_no)
        self._hold(page_no)
        return data

    def _hold(self, page_no: int) -> None:
        self.held.append(page_no)
        assert self.release.wait(timeout=30)

    def wait_held(self, count: int) -> None:
        deadline = time.monotonic() + 30
        while len(self.held) < count and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(self.held) >= count

    def remove(self) -> None:
        self.release.set()
        del self.file.read_page


QUERIES = [
    "SELECT a, b, c FROM t",
    "SELECT c, count(*) AS n, sum(b) AS s FROM t GROUP BY c ORDER BY c",
    "SELECT a, b FROM t WHERE b < 10 ORDER BY a DESC LIMIT 40",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_cold_disk_scan_returns_the_memory_copys_rows(tmp_path, sql):
    disk = _disk_db(tmp_path, latency=2e-4)
    memory = _memory_db()
    before = _fetchers()
    try:
        want = memory.execute(sql)
        disk.buffer.evict_all()
        got = disk.execute(sql)
        assert repr(got) == repr(want)
        assert disk.buffer.num_pinned == 0
        assert _fetchers() - before, "a cold scan started no fetcher"
    finally:
        disk.close()
        memory.close()
    assert not _fetchers() - before


def test_cold_scan_counts_every_page_as_one_miss(tmp_path):
    db = _disk_db(tmp_path, latency=2e-4)
    try:
        table = db.table("t")
        buffer = db.buffer
        buffer.evict_all()
        buffer.stats.reset()
        assert table.all_rows() == ROWS
        assert buffer.stats.misses == table.num_pages
        assert buffer.stats.hits == 0
        table.all_rows()
        assert buffer.stats.hits == table.num_pages
    finally:
        db.close()


class _InFlight:
    """Wraps a file's page reads (the modelled latency included) and
    records how many were in flight at once and how often each page
    was read."""

    def __init__(self, file: DiskFile):
        self.file = file
        self.reads: dict[int, int] = {}
        self.peak = 0
        self._now = 0
        self._lock = threading.Lock()
        self._read = file.read_page
        file.read_page = self.read_page

    def read_page(self, page_no: int):
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
            self.reads[page_no] = self.reads.get(page_no, 0) + 1
        try:
            return self._read(page_no)
        finally:
            with self._lock:
                self._now -= 1

    def remove(self) -> None:
        del self.file.read_page


def test_read_ahead_overlaps_page_waits(tmp_path):
    """With a modelled 2 ms per page, a cold scan has page reads in
    flight at the same time, and still reads every page exactly once."""
    db = _disk_db(tmp_path, latency=2e-3)
    try:
        table = db.table("t")
        db.buffer.evict_all()
        reads = _InFlight(table.file)
        try:
            assert table.all_rows() == ROWS
        finally:
            reads.remove()
        assert reads.peak >= 2, reads.peak
        assert reads.reads == dict.fromkeys(range(table.num_pages), 1)
    finally:
        db.close()


def test_non_sequential_reads_fetch_nothing_ahead(tmp_path):
    db = _disk_db(tmp_path)
    try:
        table = db.table("t")
        buffer = db.buffer
        buffer.evict_all()
        for page_no in (0, 0, 3, 7, 5, 9, 2):
            table.read_page(page_no)
        assert buffer.resident_pages(table.file) == 6
        # Index probes read just the pages their rids name.
        db.create_index("t", "a")
        buffer.evict_all()
        for key in (5, 4_000, 9_000, 11_999):
            assert db.execute(f"SELECT a, b FROM t WHERE a = {key}") == [
                ROWS[key][:2]
            ]
        assert buffer.resident_pages(table.file) == 4
    finally:
        db.close()


def test_window_stays_within_a_quarter_of_the_pool(tmp_path):
    db = _disk_db(tmp_path, capacity=8)
    try:
        table = db.table("t")
        buffer = db.buffer
        buffer.evict_all()
        table.read_page(0)
        table.read_page(1)
        deadline = time.monotonic() + 30
        while buffer.num_resident < 4 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        # Pages 0 and 1, and the two of a capacity-8 pool's window.
        assert buffer.resident_pages(table.file) == 4
        assert table.all_rows() == ROWS
        assert buffer.num_pinned == 0
    finally:
        db.close()


def test_prefetch_into_an_all_pinned_pool_is_dropped(tmp_path):
    db = _disk_db(tmp_path, capacity=8)
    try:
        table = db.table("t")
        buffer = db.buffer
        buffer.evict_all()
        gate = _Gate(table.file)
        table.read_page(0)
        table.read_page(1)  # requests pages 2 and 3
        gate.wait_held(2)
        pinned = [0, 1, *range(10, 16)]
        for page_no in pinned:
            buffer.get_page(table.file, page_no, table.schema)
        assert buffer.num_pinned == buffer.capacity
        gate.release.set()
        # The fetch finds no frame to take and is dropped; the scan's
        # own read then fails with the pool's error.
        with pytest.raises(BufferPoolError):
            table.read_page(2)
        for page_no in pinned:
            buffer.unpin(table.file, page_no)
        gate.remove()
        assert table.all_rows() == ROWS
        assert buffer.num_pinned == 0
    finally:
        db.close()


def test_prefetch_of_a_closed_file_is_dropped(tmp_path):
    db = _disk_db(tmp_path)
    before = _fetchers()
    try:
        table = db.table("t")
        db.buffer.evict_all()
        gate = _Gate(table.file, before=True)
        table.read_page(0)
        table.read_page(1)
        gate.wait_held(1)
        table.file.close()
        gate.release.set()
        # The fetches fail on the closed file and are dropped; the
        # scan's own read of a page they held raises its own error.
        with pytest.raises((OSError, ValueError)):
            table.read_page(2)
        assert db.buffer.num_pinned == 0
    finally:
        db.close()
    assert not _fetchers() - before


def test_limit_scan_then_update_on_a_small_pool_matches_the_mirror(tmp_path):
    """A LIMIT scan stops with fetches in flight.  They read their
    pages before an UPDATE rewrites every page and writes it back
    through a 16-frame pool, and must not install those older bytes
    afterwards: the index rebuild that ends the UPDATE reads through
    them, so the index on ``b`` would keep the old values."""
    db = _disk_db(tmp_path, capacity=16)
    try:
        table = db.table("t")
        db.create_index("t", "b")
        mirror = list(ROWS)
        # The scan stops on its third page, having requested pages 3-6.
        limit = 2 * table.read_page(0).num_tuples + 1
        for step in (1, 2, 3):
            db.buffer.evict_all()
            writebacks = db.buffer.stats.writebacks
            gate = _Gate(table.file, first=3)
            limited = db.execute(
                f"SELECT a, b FROM t LIMIT {limit}", engine="volcano"
            )
            assert limited == [row[:2] for row in mirror[:limit]]
            gate.wait_held(1)
            version = table.version
            update = threading.Thread(
                target=db.execute, args=(f"UPDATE t SET b = b + {step}",)
            )
            update.start()
            # Every page is rewritten before the version moves.
            deadline = time.monotonic() + 30
            while table.version == version and time.monotonic() < deadline:
                time.sleep(0.001)
            gate.remove()
            update.join(timeout=30)
            assert not update.is_alive()
            assert db.buffer.stats.writebacks > writebacks
            mirror = [(a, b + step, c) for a, b, c in mirror]
            assert table.all_rows() == mirror
            table.check_indexes()
            assert db.buffer.num_pinned == 0
            assert db.execute("SELECT a, b FROM t WHERE a = 7") == [
                mirror[7][:2]
            ]
    finally:
        db.close()


def test_close_stops_the_fetchers(tmp_path):
    db = _disk_db(tmp_path, latency=2e-4)
    before = _fetchers()
    try:
        db.buffer.evict_all()
        assert db.execute("SELECT count(*) AS n FROM t") == [(len(ROWS),)]
        assert _fetchers() - before
    finally:
        db.close()
    assert not _fetchers() - before
    # A later scan starts them again, and closing the pool stops them.
    db.buffer.evict_all()
    assert db.table("t").all_rows() == ROWS
    db.buffer.close()
    assert not _fetchers() - before


def test_memory_tables_never_read_ahead():
    db = _memory_db()
    before = _fetchers()
    try:
        table = db.table("t")
        assert table._scan_page == db.buffer.scan_page
        assert table.all_rows() == ROWS
        assert not _fetchers() - before
    finally:
        db.close()
