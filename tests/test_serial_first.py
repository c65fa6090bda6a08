"""One serial run: the one way a plan runs.

The plan's generated composing function, ``run_query``, calls its
generated functions in plan order on the calling thread, over memory
tables and cold disk tables alike (whose page waits the buffer pool's
read-ahead overlaps), and every run gets the intermediate cache and
the index probe from :mod:`repro.parallel.stage`.
"""

from __future__ import annotations

import inspect
import io
import threading

import pytest

import repro
import repro.parallel
from repro import Column, Database, INT
from repro.cli import Shell
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.parallel.executor import ParallelExecutor
from repro.parallel.intermediates import (
    SIGHTINGS_CAPACITY,
    IntermediateCache,
    _approx_bytes,
)
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Schema
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

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


def _stale(db: Database, table: str = "u") -> None:
    """Stale JOIN's answer, not its rows: -1 is no key of t or u."""
    db.execute(f"INSERT INTO {table} VALUES (-1, 1)")


def _rows(n: int) -> list[tuple[int, int]]:
    return [(i, i % 7) for i in range(n)]


def _memory_db(workers: int = 4) -> Database:
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


# -- (a) every shape walks -----------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_every_shape_walks_and_rows_match(shape):
    sql = QUERIES[shape]
    db = _memory_db()
    try:
        walked = db.execute(sql)
        stats = db.last_exec_stats()
        assert stats.parallel is False
        assert stats.reason == ""
        assert stats.phases and stats.morsels == 0
        assert sum(p.tasks for p in stats.phases) == 0
        oracle = db.execute(sql, engine="volcano")
        if "ORDER BY" in sql:
            assert walked == oracle
        else:
            assert sorted(walked) == sorted(oracle)
    finally:
        db.close()


def test_workers_is_accepted_and_the_walk_hits_the_cache():
    db = _memory_db(workers=1)
    try:
        first = db.execute(JOIN)
        assert db.execute(JOIN) == first  # second miss: answer banked
        assert db.execute(JOIN) == first
        assert db.last_exec_stats().recycled == "hit"
        # Stale answers over t: its staging is sighted, banked, reused.
        for _ in range(3):
            _stale(db)
            assert db.execute(JOIN) == first
        assert db.intermediates.stats().hits >= 2
        assert any(
            "staging reused" in note for note in db.last_exec_stats().notes
        )
    finally:
        db.close()


# -- (b) disk tables walk too ----------------------------------------------------------


def test_cold_disk_table_walks_to_the_warm_rows(tmp_path):
    db = _disk_db(tmp_path, capacity=4096)
    try:
        sql = QUERIES["aggregate"]
        want = db.execute(sql)
        db.buffer.evict_all()
        db.intermediates.clear()
        assert repr(db.execute(sql)) == repr(want)
        stats = db.last_exec_stats()
        assert stats.parallel is False and stats.reason == ""
        assert stats.phases
        assert db.buffer.num_pinned == 0
    finally:
        db.close()


def test_pool_smaller_than_the_table_walks(tmp_path):
    db = _disk_db(tmp_path, capacity=8)
    try:
        sql = QUERIES["aggregate"]
        want = db.execute(sql, engine="volcano")
        for _ in range(2):
            assert sorted(db.execute(sql)) == sorted(want)
        assert db.buffer.num_pinned == 0
    finally:
        db.close()


def test_cold_disk_join_returns_the_memory_rows(tmp_path):
    """A join over two cold disk tables returns exactly the rows a
    memory-resident copy's walk does."""
    buffer = BufferManager(capacity=4096)
    catalog = Catalog(buffer)
    for name, columns, rows in (
        ("t", [Column("a", INT), Column("b", INT)], _rows(20_000)),
        ("u", [Column("k", INT), Column("v", INT)], _rows(20_000)),
    ):
        table = Table(
            name,
            Schema(columns),
            file=DiskFile(str(tmp_path / f"{name}.pages")),
            buffer=buffer,
        )
        table.load_rows(rows)
        catalog.register(table)
    catalog.analyze()
    sql = QUERIES["staged join"]
    db = Database(catalog=catalog)
    memory = _memory_db()
    try:
        want = memory.execute(sql)
        buffer.evict_all()
        assert repr(db.execute(sql)) == repr(want)
    finally:
        memory.close()
        db.close()


def test_bare_engine_walks_memory_and_cold_disk_tables(tmp_path):
    sql = QUERIES["aggregate"]
    memory = _memory_db()
    disk = _disk_db(tmp_path, capacity=4096)
    walked, cold = HiqueEngine(memory.catalog), HiqueEngine(disk.catalog)
    try:
        assert sorted(walked.execute(sql)) == sorted(
            memory.execute(sql, engine="volcano")
        )
        assert walked.last_exec_stats.phases
        disk.buffer.evict_all()
        rows = cold.execute(sql)
        assert cold.last_exec_stats.phases
        assert sorted(rows) == sorted(disk.execute(sql, engine="volcano"))
    finally:
        walked.close()
        cold.close()
        memory.close()
        disk.close()


def test_removed_knobs_are_rejected():
    """One path, no execution knobs: ``workers`` is still accepted by
    ``Database`` (and must be positive); no execution setting, engine
    prepared cache or scheduler option is.  The surfaces are listed
    whole, so a knob that comes back fails here."""
    with pytest.raises(ReproError):
        Database(workers=0)
    with Database(workers=8) as db:
        # Neither an execution configuration nor a setter for one.
        assert not [name for name in dir(db) if "parallel" in name]
        with pytest.raises(TypeError):
            db.serve(task_timeout=1.0)
    # No execution configuration class is exported.
    for module in (repro, repro.parallel):
        assert not [name for name in module.__all__ if "Config" in name
                    and name != "PlannerConfig"]
    # The engine takes no execution configuration, keeps no prepared
    # cache, and prepares on every call.
    assert list(inspect.signature(HiqueEngine).parameters) == [
        "catalog", "planner_config", "opt_level", "obs",
    ]
    assert list(inspect.signature(HiqueEngine.prepare).parameters) == [
        "self", "sql", "name", "traced", "opt_level", "planner_config",
        "query", "param_dtypes",
    ]
    engine = HiqueEngine(Catalog())
    assert not [name for name in dir(engine) if "cache" in name]
    # The executor takes no settings and has nothing to swap.
    assert not list(inspect.signature(ParallelExecutor).parameters)
    assert [
        name for name in vars(ParallelExecutor) if not name.startswith("_")
    ] == ["run"]
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".workers 2")
        shell.handle(".parallel")
        assert "unknown command .workers" in out.getvalue()
        assert "(no execution yet)" in out.getvalue()
        assert "min_pages" not in out.getvalue()
    finally:
        shell.db.close()


def test_bare_engine_reports_the_overflow_fallback(monkeypatch):
    """Stale statistics re-plan with hybrid aggregation; the re-planned
    query takes the same walk, and its stats say why."""
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
            "map-directory overflow: re-planned with hybrid aggregation"
        )
        assert stats.notes[0].startswith("map-directory overflow")
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
    db = _memory_db()
    try:
        first = db.execute(JOIN)
        assert db.explain_analyze(JOIN).count("staging: reused") == 0
        assert "answer recycled" in db.explain_analyze(JOIN)
        # Two stale answers sight, then bank, both stagings.
        for table in ("u", "t"):
            _stale(db, table)
            text = db.explain_analyze(JOIN)
            assert text.count("staging: reused") == 0
            assert "; serial; " in text

        # A write to one input: the other's staging is reused.
        db.execute("INSERT INTO t VALUES (-2, 1)")
        after = db.explain_analyze(JOIN)
        assert after.count("staging: reused cached intermediate") == 1
        notes = db.last_exec_stats().notes
        assert any("table 'u': staging reused" in note for note in notes)
        assert not any("table 't': staging reused" in note for note in notes)

        db.execute("INSERT INTO u VALUES (5, 1)")
        after = db.explain_analyze(JOIN)
        assert after.count("staging: reused cached intermediate") == 1
        notes = db.last_exec_stats().notes
        assert any("table 't': staging reused" in note for note in notes)
        assert not any("table 'u': staging reused" in note for note in notes)
        assert db.execute(JOIN) != first  # the insert is visible
        assert db.execute(JOIN) == db.execute(JOIN, engine="volcano")

        # A new preparation (after a plan-cache eviction) is a first
        # sighting of its answer and reads both current stagings.
        db.service.cache.invalidate()
        text = db.explain_analyze(JOIN)
        assert text.count("staging: reused cached intermediate") == 2
        assert "; serial; " in text
    finally:
        db.close()


def test_walk_probes_the_index_and_banks_nothing():
    db = _memory_db()
    try:
        db.create_index("t", "a")
        sql = "SELECT a, b FROM t WHERE a = ?"
        for _ in range(3):  # first sighting, then two stale answers
            _stale(db, "t")
            assert db.execute(sql, params=(4321,)) == [(4321, 4321 % 7)]
        stats = db.last_exec_stats()
        assert stats.recycled == "stale"
        assert "table 't': index: 1 rids" in stats.notes
        assert db.intermediates.stats().entries == 1  # the answer alone
        _stale(db, "t")
        assert "index: 1 rids" in db.explain_analyze(sql, params=(4321,))
    finally:
        db.close()


def test_first_run_probes_the_index():
    db = _memory_db(workers=1)
    try:
        db.create_index("t", "a")
        sql = "SELECT a, b FROM t WHERE a = ?"
        assert db.execute(sql, params=(4321,)) == [(4321, 4321 % 7)]
        stats = db.last_exec_stats()
        assert stats.recycled == "first"
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


# -- (e) a walk over memory tables costs no thread and no pin ---------------------------


def test_walk_starts_no_thread_and_leaves_no_pin():
    db = _memory_db()
    try:
        before = threading.active_count()
        for sql in QUERIES.values():
            db.execute(sql)
        assert threading.active_count() == before
        assert db.buffer.num_pinned == 0
    finally:
        db.close()


# -- (f) second-miss admission -----------------------------------------------------------


def test_staging_is_banked_from_its_second_miss():
    db = _memory_db()
    try:
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 0
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 1  # the answer
        _stale(db)
        assert db.intermediates.stats().entries == 0
        db.execute(JOIN)  # stale: both stagings sighted
        assert db.intermediates.stats().entries == 1
        _stale(db)
        db.execute(JOIN)  # stale again: both banked
        assert db.intermediates.stats().entries == 3
        # An INSERT drops the answer and keeps both stagings: u's is
        # extended by the appended row and banked in place of the old.
        db.execute("INSERT INTO u VALUES (5, 1)")
        assert db.intermediates.stats().entries == 2
        db.execute(JOIN)
        assert db.last_exec_stats().notes.count(
            "table 'u': staging extended from version 3 (+1 rows)"
        ) == 1
        stats = db.intermediates.stats()
        assert (stats.entries, stats.extended) == (3, 1)
        # An UPDATE drops u's staging too.  A version bump is not a new
        # staging: the re-stage banks at once.
        db.execute("UPDATE u SET v = 2 WHERE k = 5")
        assert db.intermediates.stats().entries == 1
        db.execute(JOIN)
        assert db.intermediates.stats().entries == 3
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
