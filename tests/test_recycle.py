"""Recycled answers: a repeated statement over unwritten tables runs
nothing.

The intermediate cache keeps a statement's rows keyed on the prepared
query's identity token, the parameter vector and the version of every
table the plan scans.  These tests pin what may and may not be answered
from it: a different preparation of the same text never is, a write to
any scanned table (including one that fails half-way) makes the answer
stale, DDL forgets everything, and the caller's rows are its own.
Staging admission follows the answer: only a stale answer sights and
banks stagings.
"""

from __future__ import annotations

import io

import pytest

from repro import Column, Database, INT
from repro.cli import Shell
from repro.parallel import executor as executor_module
from repro.parallel.intermediates import (
    SIGHTINGS_CAPACITY,
    IntermediateCache,
)
from repro.plan.optimizer import PlannerConfig
from repro.storage.btree import BPlusTree
from repro.storage.page import Page

ROWS = 6000
JOIN = (
    "SELECT t.b AS g, count(u.v) AS n FROM t, u WHERE t.a = u.k GROUP BY t.b"
)
TOTALS = "SELECT count(*) AS n, sum(a) AS sa, sum(b) AS sb FROM t"


def _db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("t", [Column("a", INT), Column("b", INT)])
    db.load_rows("t", [(i, i % 7) for i in range(ROWS)])
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", [(i, i % 5) for i in range(ROWS)])
    db.analyze()
    return db


@pytest.fixture()
def db():
    db = _db()
    assert db.table("t").num_pages >= db.parallel_config.min_pages
    yield db
    db.close()


def _recycled(db: Database) -> str:
    return db.last_exec_stats().recycled


def _heap_totals(db: Database) -> list[tuple]:
    rows = db.table("t").all_rows()
    return [(len(rows), sum(r[0] for r in rows), sum(r[1] for r in rows))]


# -- the key --------------------------------------------------------------------------


def test_the_second_sighting_banks_and_the_third_is_recycled(db):
    first = db.execute(JOIN)
    assert _recycled(db) == "first"
    assert db.execute(JOIN) == first
    assert _recycled(db) == "first"
    again = db.execute(JOIN)
    stats = db.last_exec_stats()
    assert stats.recycled == "hit"
    assert stats.reason == "answer recycled (versions t=1, u=1)"
    assert stats.notes == []
    assert stats.phases == []
    assert again == first
    assert sorted(first) == sorted(db.execute(JOIN, engine="volcano"))
    assert db.intermediates.stats().answers == 1


def test_parameters_are_part_of_the_key_with_their_types(db):
    sql = "SELECT a + ? AS x FROM t WHERE a < 3"
    for _ in range(3):
        assert db.execute(sql, params=(1,)) == [(1,), (2,), (3,)]
        assert db.execute(sql, params=(2,)) == [(2,), (3,), (4,)]
    assert _recycled(db) == "hit"
    floats = db.execute(sql, params=(1.0,))
    assert _recycled(db) == "first"
    assert floats == [(1.0,), (2.0,), (3.0,)]
    assert [type(row[0]) for row in floats] == [float] * 3


def test_o0_literals_read_from_the_plan_never_share_an_answer(db):
    """O0 code reads its literals from the plan context, so two texts
    that differ only in a literal generate the same source: keying on
    the source (or the plan text) recycled the wrong rows."""
    engine = db.engine("hique-o0")
    statement = db.prepare("SELECT a, b FROM t WHERE a = ?", engine="hique-o0")
    for _ in range(3):
        for value in (10, 55, 160):
            inlined = f"SELECT a, b FROM t WHERE a = {value}"
            want = db.execute(inlined, engine="volcano")
            assert want == [(value, value % 7)]
            assert engine.execute(inlined) == want
            assert statement.execute((value,)) == want
    assert db.intermediates.stats().answers == 6


def test_a_forced_plan_never_reads_another_plans_answer(db):
    engine = db.engine("hique")
    default = engine.prepare(JOIN)
    forced = engine.prepare(
        JOIN, planner_config=PlannerConfig(force_join="merge")
    )
    assert default.token != forced.token
    rows = [engine.execute_prepared(default) for _ in range(3)]
    assert engine.last_exec_stats.recycled == "hit"
    merged = engine.execute_prepared(forced)
    assert engine.last_exec_stats.recycled == "first"
    assert sorted(merged) == sorted(rows[0])
    # Each forced prepare is a new preparation: never a repeat.
    for _ in range(3):
        engine.execute(JOIN, planner_config=PlannerConfig(force_join="merge"))
        assert engine.last_exec_stats.recycled == "first"


def test_a_dropped_and_recreated_table_never_reads_the_old_answer(db):
    statement = db.prepare(TOTALS)
    for _ in range(3):
        statement.execute()
    assert _recycled(db) == "hit"
    version = db.table("t").version
    db.catalog.drop_table("t")
    db.create_table("t", [Column("a", INT), Column("b", INT)])
    db.load_rows("t", [(i, 1) for i in range(ROWS)])
    # The epoch restarted: the old key's versions are current again.
    assert db.table("t").version == version
    assert db.intermediates.stats().entries == 0
    assert statement.execute() == _heap_totals(db)
    assert db.execute(TOTALS) == _heap_totals(db)
    assert _recycled(db) == "first"


def test_the_caller_owns_the_rows_it_is_handed(db):
    want = db.execute(JOIN)
    banked = db.execute(JOIN)
    banked.append(("junk",))
    banked[0] = ("junk",)
    hit = db.execute(JOIN)
    assert _recycled(db) == "hit"
    assert hit == want
    hit.clear()
    assert db.execute(JOIN) == want


def test_tiny_plans_skip_the_answer_cache():
    db = Database()
    try:
        db.create_table("s", [Column("a", INT)])
        db.load_rows("s", [(i,) for i in range(100)])
        for _ in range(3):
            db.execute("SELECT sum(a) AS s FROM s")
            assert _recycled(db) == ""
        assert db.intermediates.stats().misses == 0
    finally:
        db.close()


# -- staleness ----------------------------------------------------------------------


def test_a_write_to_one_input_stales_the_answer_and_reuses_the_other(db):
    want = db.execute(JOIN)
    db.execute(JOIN)
    whys = []
    for key in (-1, -2, -3):  # no t.a joins these
        db.execute(f"INSERT INTO u VALUES ({key}, 1)")
        assert db.execute(JOIN) == want
        assert _recycled(db) == "stale"
        whys.append(
            any("table 't': staging reused" in note
                for note in db.last_exec_stats().notes)
        )
    # t's staging: sighted, banked, reused.
    assert whys == [False, False, True]
    stats = db.intermediates.stats()
    assert stats.stale == 3
    db.execute("INSERT INTO u VALUES (7, 1)")  # joins t.a = 7
    assert sorted(db.execute(JOIN)) == sorted(
        db.execute(JOIN, engine="volcano")
    )
    assert db.execute(JOIN) != want


def test_a_run_that_raced_a_write_banks_nothing(db, monkeypatch):
    walk = executor_module.serial_walk

    def racing_walk(prepared, *args):
        result = walk(prepared, *args)
        db.table("u").version += 1  # a writer slipped in mid-run
        return result

    monkeypatch.setattr(executor_module, "serial_walk", racing_walk)
    for _ in range(3):
        db.execute(JOIN)
        assert _recycled(db) != "hit"
    assert db.intermediates.stats().entries == 0


@pytest.mark.usefixtures("scheduled")
def test_the_scheduled_path_recycles_and_banks(db):
    want = db.execute(JOIN)
    assert db.last_exec_stats().scheduled is True
    assert db.execute(JOIN) == want
    assert db.last_exec_stats().scheduled is True
    assert db.execute(JOIN) == want
    assert _recycled(db) == "hit"
    assert db.last_exec_stats().scheduled is False
    for key in (-1, -2, -3):
        db.execute(f"INSERT INTO u VALUES ({key}, 1)")
        assert db.execute(JOIN) == want
        stats = db.last_exec_stats()
        assert (stats.scheduled, stats.recycled) == (True, "stale")
    assert "table 't': staging reused" in " ".join(stats.notes)
    assert db.execute(JOIN) == want
    assert _recycled(db) == "hit"


# -- a partial mutation moves the epoch --------------------------------------------


class _Injected(Exception):
    pass


def _fail_on_call(monkeypatch, owner, name: str, call: int) -> None:
    original = getattr(owner, name)
    calls = [0]

    def failing(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] == call:
            raise _Injected(f"{owner.__name__}.{name} call {call}")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize(
    "statement, owner, name, call",
    [
        # In place through the index: a page overwritten, its index
        # entry half patched.
        ("UPDATE t SET a = a + 100000 WHERE a >= 10 AND a < 20",
         BPlusTree, "insert", 1),
        ("UPDATE t SET b = b + 1 WHERE a >= 10 AND a < 20",
         Page, "overwrite", 2),
        ("DELETE FROM t WHERE a >= 10 AND a < 20", Page, "overwrite", 2),
        # The repack path: the heap is half rewritten.
        ("DELETE FROM t WHERE b = 3", Page, "insert", 5),
        # An append whose index insert fails after the page took the row.
        ("INSERT INTO t VALUES (-5, 1), (-6, 2)", BPlusTree, "insert", 1),
    ],
    ids=["update-index", "update-page", "delete-page", "delete-repack",
         "insert-index"],
)
def test_a_failed_statement_still_stales_the_answer(
    db, monkeypatch, statement, owner, name, call
):
    db.create_index("t", "a")
    for _ in range(3):
        assert db.execute(TOTALS) == _heap_totals(db)
    assert _recycled(db) == "hit"
    table = db.table("t")
    before = table.version
    events = []
    db.catalog.add_listener(lambda table, kind: events.append((table, kind)))
    _fail_on_call(monkeypatch, owner, name, call)
    with pytest.raises(_Injected):
        db.execute(statement)
    monkeypatch.undo()
    assert table.version > before
    assert ("t", "dml") in events
    assert db.execute(TOTALS) == _heap_totals(db)
    assert _recycled(db) == "stale"


def test_a_failed_bulk_load_still_stales_the_answer(db, monkeypatch):
    for _ in range(3):
        assert db.execute(TOTALS) == _heap_totals(db)
    table = db.table("t")
    before = table.version
    events = []
    db.catalog.add_listener(lambda table, kind: events.append((table, kind)))
    _fail_on_call(monkeypatch, Page, "insert", 2)
    with pytest.raises(_Injected):
        db.load_rows("t", [(-5, 1), (-6, 2)])
    monkeypatch.undo()
    assert table.version > before
    assert ("t", "dml") in events
    assert db.execute(TOTALS) == _heap_totals(db)
    assert db.execute(TOTALS)[0][0] == ROWS + 1
    assert db.buffer.num_pinned == 0


# -- the cache's own bookkeeping -----------------------------------------------------


def _index_is_exact(cache: IntermediateCache) -> bool:
    expected: dict[str, set] = {}
    for key, (_, _, tables) in cache._entries.items():
        for table in tables:
            expected.setdefault(table, set()).add(key)
    return cache._by_table == expected


def test_invalidate_table_drops_only_the_entries_that_read_it():
    cache = IntermediateCache()
    cache.put("t", 1, ("a",), [(1,)])
    cache.bank(7, "()", (("t", 1), ("u", 2)), [(1, 2)])
    cache.bank(8, "()", (("u", 2),), [(3,)])
    cache.put("u", 2, ("b",), [(4,)])
    cache.put("u", 2, ("b",), [(5,)])  # a replace keeps one index slot
    assert _index_is_exact(cache)
    assert cache.invalidate_table("t") == 2  # t's staging and the join
    assert _index_is_exact(cache)
    assert cache.recall(8, "()", (("u", 2),))[0] == [(3,)]
    assert cache.get("u", 2, ("b",)) == [(5,)]
    assert cache.invalidate_table("w") == 0
    assert cache.invalidate_table("u") == 2
    assert len(cache) == 0 and cache.stats().bytes == 0
    assert _index_is_exact(cache)


def test_lru_eviction_keeps_the_table_index_exact():
    cache = IntermediateCache(capacity_bytes=8192)
    rows = [(i, i) for i in range(30)]  # ~2.6 KiB
    for token in range(6):
        cache.bank(token, "()", (("t", 1), (f"u{token}", 1)), rows)
        assert _index_is_exact(cache)
    kept = len(cache)
    assert cache.stats().evictions == 6 - kept > 0
    assert cache.invalidate_table("t") == kept
    assert len(cache) == 0
    assert _index_is_exact(cache) and cache._by_table == {}


def test_recall_reports_first_repeat_and_stale():
    cache = IntermediateCache()
    key = (1, "(5,)")
    assert cache.recall(*key, (("t", 1),)) == (None, False, False)
    assert cache.recall(*key, (("t", 1),)) == (None, False, True)
    cache.bank(*key, (("t", 1),), [(5,)])
    assert cache.recall(*key, (("t", 1),)) == ([(5,)], False, False)
    assert cache.recall(*key, (("t", 2),)) == (None, True, True)
    stats = cache.stats()
    assert (stats.answers, stats.stale, stats.hits, stats.misses) == (
        1, 1, 1, 3,
    )


def test_a_hot_answer_keeps_its_banked_marker():
    cache = IntermediateCache()
    key = (1, "()")
    cache.recall(*key, (("t", 1),))
    cache.recall(*key, (("t", 1),))
    cache.bank(*key, (("t", 1),), [(5,)])
    # Far more than a FIFO's worth of other keys are sighted while the
    # answer keeps being recalled.
    for index in range(2 * SIGHTINGS_CAPACITY):
        cache.sighted("u", (index,))
        if index % 64 == 0:
            assert cache.recall(*key, (("t", 1),))[0] == [(5,)]
    assert cache.stats().sighting_evictions >= SIGHTINGS_CAPACITY
    # A write moves the version: the miss is stale, not a first sighting.
    assert cache.recall(*key, (("t", 2),)) == (None, True, True)


def test_the_sightings_fifo_keeps_exactly_the_newest_keys():
    cache = IntermediateCache()
    extra = 10
    for index in range(SIGHTINGS_CAPACITY + extra):
        assert cache.sighted("t", (index,)) is False
    assert cache.stats().sighting_evictions == extra
    assert len(cache._sightings) == SIGHTINGS_CAPACITY
    # Asking about a kept key changes nothing.
    newest = range(extra, SIGHTINGS_CAPACITY + extra)
    assert all(cache.sighted("t", (index,)) for index in newest)
    assert cache.stats().sighting_evictions == extra
    for index in range(extra):
        assert cache.sighted("t", (index,)) is False  # aged out


# -- observability ------------------------------------------------------------------


def test_the_execute_span_and_explain_analyze_say_recycled():
    db = _db(trace=True)
    try:
        states = []
        for _ in range(3):
            db.execute(JOIN)
            states.append(db.last_trace().root.find("execute").attrs["recycled"])
        db.execute("INSERT INTO u VALUES (-1, 1)")
        db.execute(JOIN)
        states.append(db.last_trace().root.find("execute").attrs["recycled"])
        assert states == ["first", "first", "hit", "stale"]
        text = db.explain_analyze(JOIN)
        assert "answer recycled (versions t=1, u=2); rows=7" in text
    finally:
        db.close()


def test_the_counters_reach_metrics_and_the_shell(db):
    for _ in range(3):
        db.execute(JOIN)
    db.execute("INSERT INTO u VALUES (-1, 1)")
    db.execute(JOIN)
    metrics = db.metrics_text()
    assert "repro_intermediate_cache_answers_total 1" in metrics
    assert "repro_intermediate_cache_stale_total 1" in metrics

    shell = Shell(stdout=io.StringIO())
    shell.handle(".tpch 0.0005")
    for _ in range(3):
        shell.handle("SELECT count(*) AS n FROM lineitem")
    shell.handle(".cache")
    assert "1 answers recycled, 0 stale" in shell.stdout.getvalue()
