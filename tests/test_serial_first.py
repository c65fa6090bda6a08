"""Serial-first execution: the scheduler's first answer is "don't".

A run is scheduled only when some scanned table has pages that can
wait (a disk-backed file not fully resident in the buffer pool);
otherwise the plan's serial generated functions run in plan order on
the calling thread — and still get the intermediate cache and the index
probe, because both live in :class:`repro.parallel.stage.StageAccess`,
not in the scheduler.
"""

from __future__ import annotations

import threading

import pytest

from repro import Column, Database, INT
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.parallel.intermediates import (
    SIGHTINGS_CAPACITY,
    IntermediateCache,
    _approx_bytes,
)
from repro.parallel.stats import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Schema
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

RESIDENT = "all scanned pages resident: nothing for threads to overlap"

QUERIES = {
    "scan": "SELECT a, b FROM t WHERE a < 9000",
    "staged join": (
        "SELECT t.b AS g, u.v AS v FROM t, u WHERE t.a = u.k AND u.v < 3"
    ),
    "multiway join": (
        "SELECT t.a AS a, u.v AS v, w.z AS z FROM t, u, w "
        "WHERE t.a = u.k AND u.k = w.k AND w.z = 2"
    ),
    "aggregate": "SELECT b, count(*) AS n, sum(a) AS s FROM t GROUP BY b",
    "order by": "SELECT a, b FROM t WHERE b = 3 ORDER BY a DESC LIMIT 50",
}

JOIN = (
    "SELECT t.b AS g, count(u.v) AS n FROM t, u WHERE t.a = u.k GROUP BY t.b"
)


def _rows(n: int) -> list[tuple[int, int]]:
    return [(i, i % 7) for i in range(n)]


def _memory_db(workers: int) -> Database:
    db = Database(workers=workers)
    db.create_table("t", [Column("a", INT), Column("b", INT)])
    db.load_rows("t", _rows(20_000))
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", _rows(20_000))
    db.create_table("w", [Column("k", INT), Column("z", INT)])
    db.load_rows("w", [(i * 3, i % 5) for i in range(4_000)])
    db.analyze()
    return db


def _disk_db(tmp_path, capacity: int) -> Database:
    buffer = BufferManager(capacity=capacity)
    catalog = Catalog(buffer)
    table = Table(
        "t",
        Schema([Column("a", INT), Column("b", INT)]),
        file=DiskFile(str(tmp_path / "t.pages")),
        buffer=buffer,
    )
    table.load_rows(_rows(20_000))
    catalog.register(table)
    catalog.analyze()
    return Database(catalog=catalog, workers=4)


def _executor(db: Database):
    return db.engine("hique").parallel


# -- (a) the decision over memory-resident data ---------------------------------------


@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_memory_tables_are_not_scheduled_and_rows_match(shape):
    sql = QUERIES[shape]
    db = _memory_db(workers=4)
    try:
        walked = db.execute(sql)
        stats = db.last_exec_stats()
        assert stats.parallel is False and stats.scheduled is False
        assert stats.reason == RESIDENT
        assert stats.phases and all(p.workers == 1 for p in stats.phases)
        assert stats.morsels == 0
        assert sum(p.tasks for p in stats.phases) == 0

        # The same plan through the scheduler, and the iterator oracle.
        _executor(db).waiting_table = lambda plan: "pinned by the test"
        db.set_parallel(morsel_pages=4, min_pages=2, min_rows=256)
        assert db.execute(sql) == walked
        assert db.last_exec_stats().scheduled is True
        oracle = db.execute(sql, engine="volcano")
        if "ORDER BY" in sql:
            assert walked == oracle
        else:
            assert sorted(walked) == sorted(oracle)
    finally:
        db.close()


def test_single_worker_walks_and_hits_the_cache():
    db = _memory_db(workers=1)
    try:
        first = db.execute(JOIN)
        assert db.last_exec_stats().reason == "single worker"
        assert db.execute(JOIN) == first  # second miss: banked
        assert db.execute(JOIN) == first
        assert db.intermediates.stats().hits >= 2
        assert any(
            "staging reused" in note for note in db.last_exec_stats().notes
        )
    finally:
        db.close()


# -- (b) pages that can wait ------------------------------------------------------------


def test_disk_table_is_scheduled_until_resident(tmp_path):
    db = _disk_db(tmp_path, capacity=4096)
    try:
        sql = QUERIES["aggregate"]
        want = db.execute(sql)
        # load_rows left every page in the pool: nothing waits.
        assert db.last_exec_stats().scheduled is False
        db.buffer.evict_all()
        assert db.table("t").waiting_pages == db.table("t").num_pages
        assert db.execute(sql) == want
        stats = db.last_exec_stats()
        assert stats.scheduled is True
        assert any(
            note.startswith("scheduled: table 't'") and "not resident" in note
            for note in stats.notes
        ), stats.notes
        # That run read every page in; the next one declines again.
        assert db.table("t").waiting_pages == 0
        assert db.execute(sql) == want
        assert db.last_exec_stats().reason == RESIDENT
    finally:
        db.close()


def test_pool_smaller_than_the_table_always_schedules(tmp_path):
    db = _disk_db(tmp_path, capacity=8)
    try:
        sql = QUERIES["aggregate"]
        want = db.execute(sql, engine="volcano")
        for _ in range(2):
            assert sorted(db.execute(sql)) == sorted(want)
            assert db.last_exec_stats().scheduled is True
    finally:
        db.close()


def test_bare_engine_owns_the_serial_first_executor(tmp_path, monkeypatch):
    """An engine built without a config takes the same decision."""
    sql = QUERIES["aggregate"]
    memory = _memory_db(workers=4)
    disk = _disk_db(tmp_path, capacity=4096)
    walked, scheduled = HiqueEngine(memory.catalog), HiqueEngine(disk.catalog)
    try:
        assert sorted(walked.execute(sql)) == sorted(
            memory.execute(sql, engine="volcano")
        )
        assert walked.last_exec_stats.scheduled is False
        disk.buffer.evict_all()
        rows = scheduled.execute(sql)
        assert scheduled.last_exec_stats.scheduled is True
        assert sorted(rows) == sorted(disk.execute(sql, engine="volcano"))
    finally:
        walked.close()
        scheduled.close()
        memory.close()
        disk.close()


def test_bare_engine_takes_the_default_config(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
    engine = HiqueEngine(Catalog())
    try:
        assert engine.parallel.config == ParallelConfig()
    finally:
        engine.close()
    monkeypatch.setenv("REPRO_PIPELINE", "sideways")
    with pytest.raises(ReproError, match="REPRO_PIPELINE"):
        HiqueEngine(Catalog())


def test_bare_engine_reports_the_overflow_fallback(monkeypatch):
    """Stale statistics re-plan with hybrid aggregation; the re-planned
    query takes the same serial-first executor, and its stats say why."""
    db = Database()
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", [(i, i % 3) for i in range(4000)])
    db.analyze()
    # Now the data outgrows the analysed distinct count.
    db.load_rows("u", [(i + 4000, i % 883) for i in range(4000)])
    engine = HiqueEngine(
        db.catalog, planner_config=PlannerConfig(force_agg="map")
    )
    try:
        sql = "SELECT v, count(*) AS n FROM u GROUP BY v"
        rows = engine.execute(sql)
        stats = engine.last_exec_stats
        assert stats.parallel is False
        assert stats.reason == (
            "map-directory overflow: re-planned with hybrid aggregation; "
            + RESIDENT
        )
        assert stats.notes[0].startswith("map-directory overflow")
        assert engine.parallel.serial_runs == 1
        assert sorted(rows) == sorted(db.execute(sql, engine="volcano"))
    finally:
        engine.close()
        db.close()


def test_resident_count_tracks_install_and_evict(tmp_path):
    db = _disk_db(tmp_path, capacity=4096)
    try:
        table = db.table("t")
        assert db.buffer.resident_pages(table.file) == table.num_pages
        db.buffer.evict_all()
        assert db.buffer.resident_pages(table.file) == 0
        table.read_page(0)
        table.read_page(0)
        table.read_page(3)
        assert db.buffer.resident_pages(table.file) == 2
        assert db.buffer.resident_pages(table.file) == sum(
            1 for file_id, _ in db.buffer.resident_keys()
            if file_id == table.file.file_id
        )
    finally:
        db.close()


# -- (c) the walk keeps the cache and the index ---------------------------------------


def test_walk_reuses_stagings_and_restages_only_the_written_input():
    db = _memory_db(workers=4)
    try:
        first = db.execute(JOIN)
        assert db.explain_analyze(JOIN).count("staging: reused") == 0
        text = db.explain_analyze(JOIN)  # third execution: both inputs warm
        assert text.count("staging: reused cached intermediate") == 2
        assert f"serial, not scheduled ({RESIDENT})" in text

        db.execute("INSERT INTO u VALUES (5, 1)")
        after = db.explain_analyze(JOIN)
        assert after.count("staging: reused cached intermediate") == 1
        notes = db.last_exec_stats().notes
        assert any("table 't': staging reused" in note for note in notes)
        assert not any("table 'u': staging reused" in note for note in notes)
        assert db.execute(JOIN) != first  # the insert is visible
        assert db.execute(JOIN) == db.execute(JOIN, engine="volcano")
    finally:
        db.close()


def test_walk_probes_the_index_and_banks_nothing():
    db = _memory_db(workers=4)
    try:
        db.create_index("t", "a")
        sql = "SELECT a, b FROM t WHERE a = ?"
        for _ in range(3):
            assert db.execute(sql, params=(4321,)) == [(4321, 4321 % 7)]
        stats = db.last_exec_stats()
        assert stats.scheduled is False
        assert "table 't': index: 1 rids" in stats.notes
        assert db.intermediates.stats().entries == 0
        assert "index: 1 rids" in db.explain_analyze(sql, params=(4321,))
    finally:
        db.close()


def test_single_worker_probes_the_index():
    db = _memory_db(workers=1)
    try:
        db.create_index("t", "a")
        sql = "SELECT a, b FROM t WHERE a = ?"
        assert db.execute(sql, params=(4321,)) == [(4321, 4321 % 7)]
        stats = db.last_exec_stats()
        assert stats.reason == "single worker"
        assert "table 't': index: 1 rids" in stats.notes
    finally:
        db.close()


def test_small_scans_skip_the_cache_entirely():
    db = Database(workers=4)
    try:
        db.create_table("s", [Column("a", INT), Column("b", INT)])
        db.load_rows("s", _rows(300))  # one page: below the banking floor
        db.analyze()
        for _ in range(3):
            db.execute("SELECT b, count(*) AS n FROM s GROUP BY b ORDER BY b")
        stats = db.intermediates.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
    finally:
        db.close()


# -- (e) a declined run costs no thread and no pin --------------------------------------


def test_declined_run_starts_no_thread_and_leaves_no_pin():
    db = _memory_db(workers=4)
    try:
        before = threading.active_count()
        for sql in QUERIES.values():
            db.execute(sql)
            assert db.last_exec_stats().scheduled is False
        assert _executor(db).thread_backend()._pool is None
        assert threading.active_count() == before
        assert db.buffer.num_pinned == 0
        parallel_runs, serial_runs = db.parallel_counters()
        assert (parallel_runs, serial_runs) == (0, len(QUERIES))
    finally:
        db.close()


# -- (f) second-miss admission -----------------------------------------------------------


def test_staging_is_banked_from_its_second_miss():
    db = _memory_db(workers=4)
    try:
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 0
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 2
        # A version bump is not a new staging: the re-stage banks at once.
        db.execute("INSERT INTO u VALUES (5, 1)")
        assert db.intermediates.stats().entries == 1
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 2
    finally:
        db.close()


def test_sightings_are_bounded_and_leave_put_unconditional():
    cache = IntermediateCache()
    assert cache.sighted("t", ("sig",)) is False
    assert cache.sighted("t", ("sig",)) is True
    assert cache.sighted("u", ("sig",)) is False  # keyed per table
    for index in range(SIGHTINGS_CAPACITY):
        cache.sighted("t", ("other", index))
    assert cache.sighted("t", ("sig",)) is False  # aged out, FIFO
    cache.put("t", 1, ("never sighted",), [(1, 2)])
    assert cache.get("t", 1, ("never sighted",)) == [(1, 2)]


# -- sizing a staging from its first rows ------------------------------------------------


def _exact_bytes(value) -> int:
    """The row-by-row walk ``_approx_bytes`` replaced."""
    if isinstance(value, dict):
        buckets = value.values()
    elif value and isinstance(value[0], list):
        buckets = value
    else:
        buckets = (value,)
    total = 64
    for bucket in buckets:
        total += 64
        for row in bucket:
            total += 56 + 16 * len(row)
    return total


@pytest.mark.parametrize(
    "staged",
    [
        [(i, i, i) for i in range(50)],  # flat list
        [[(i, i) for i in range(20)], [], [(1, 2)]],  # bucket lists
        {3: [(3, "x")] * 7, 9: [], 4: [(4, "y")]},  # fine dict
        [],
        [[], []],
        {},
    ],
)
def test_bucket_sizing_equals_the_exact_walk(staged):
    assert _approx_bytes(staged) == _exact_bytes(staged)
