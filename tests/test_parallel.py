"""Unit tests for the parallel execution subsystem.

Covers the latch, the morsel/task dispatchers, the k-way merge
finishers, parallel-vs-serial result identity across plan shapes, join
strategies and optimization levels, serial-fallback reasons, the
aggregate-partial merge, the parallelism knobs, and the cost-aware
plan-cache admission policy.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database
from repro.core.engine import HiqueEngine
from repro.parallel import (
    Morsel,
    MorselDispatcher,
    ParallelConfig,
    ReadWriteLatch,
    TaskDispatcher,
    morsels_for,
)
from repro.parallel.merge import (
    Desc,
    chunk_bounds,
    kway_merge,
    lower_bound,
    merge_fine_partition_runs,
    merge_ordered_runs,
    merge_partition_runs,
    merge_sorted_runs,
)
from repro.plan.optimizer import PlannerConfig
from repro.service.cache import PlanCache
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from repro.storage.table import table_from_rows
from tests.conftest import SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

PARALLEL = ParallelConfig(
    workers=4, morsel_pages=4, min_pages=2, min_rows=256
)


@pytest.fixture()
def wide_catalog() -> Catalog:
    """Tables big enough to split into many morsels; ``v`` joins ``t``
    on ``t.c = v.k`` (9 matching keys, 4 rows each)."""
    rng = random.Random(11)
    catalog = Catalog()
    schema = Schema(
        [
            Column("a", INT),
            Column("b", DOUBLE),
            Column("c", INT),
            Column("d", char(8)),
        ]
    )
    rows = [
        (i, float(rng.randrange(10_000)) / 4, i % 9, f"g{i % 5}")
        for i in range(12_000)
    ]
    catalog.register(
        table_from_rows("t", schema, rows, buffer=catalog.buffer)
    )
    v_schema = Schema([Column("k", INT), Column("w", INT)])
    v_rows = [(i % 500, i) for i in range(2_000)]
    catalog.register(
        table_from_rows("v", v_schema, v_rows, buffer=catalog.buffer)
    )
    catalog.analyze()
    return catalog


# -- latch ------------------------------------------------------------------------------


def test_latch_admits_concurrent_readers():
    latch = ReadWriteLatch()
    inside = threading.Barrier(3, timeout=5)

    def reader():
        with latch.read():
            inside.wait()  # all three readers are in simultaneously

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert latch.active_readers == 0


def test_latch_writer_excludes_readers():
    latch = ReadWriteLatch()
    order: list[str] = []
    writer_in = threading.Event()

    def writer():
        with latch.write():
            writer_in.set()
            order.append("write")

    with latch.read():
        t = threading.Thread(target=writer)
        t.start()
        # The writer cannot enter while we hold the read side.
        assert not writer_in.wait(timeout=0.1)
        order.append("read-done")
    t.join(timeout=5)
    assert order == ["read-done", "write"]
    assert not latch.writer_active


# -- morsels ----------------------------------------------------------------------------


def test_dispatcher_covers_every_page_once():
    dispatcher = MorselDispatcher(num_pages=53, morsel_pages=8)
    morsels = list(dispatcher)
    assert dispatcher.num_morsels == len(morsels) == 7
    covered = [p for m in morsels for p in range(m.page_lo, m.page_hi)]
    assert covered == list(range(53))
    assert [m.seq for m in morsels] == list(range(7))
    assert dispatcher.next() is None


def test_dispatcher_is_race_free():
    dispatcher = MorselDispatcher(num_pages=1000, morsel_pages=1)
    taken: list[list[Morsel]] = [[] for _ in range(4)]

    def worker(k: int):
        while True:
            morsel = dispatcher.next()
            if morsel is None:
                return
            taken[k].append(morsel)

    threads = [
        threading.Thread(target=worker, args=(k,)) for k in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    all_pages = sorted(m.page_lo for chunk in taken for m in chunk)
    assert all_pages == list(range(1000))  # each page exactly once


def test_morsels_for_rejects_bad_size():
    with pytest.raises(ValueError):
        morsels_for(10, 0)


# -- parallel vs serial identity --------------------------------------------------------

QUERIES = [
    "SELECT a, b FROM t WHERE a < 400",
    "SELECT a, b, c, d FROM t",
    "SELECT count(*) AS n FROM t WHERE c = 3",
    "SELECT sum(a) AS s, count(*) AS n, min(a) AS mn, max(a) AS mx FROM t",
    "SELECT c, count(*) AS n, sum(a) AS s, min(d) AS mn FROM t GROUP BY c",
    "SELECT c, d, count(*) AS n FROM t GROUP BY c, d",
    "SELECT c, sum(a) AS s FROM t WHERE a > 6000 GROUP BY c ORDER BY s DESC",
    "SELECT a, b FROM t WHERE c = 1 ORDER BY a DESC LIMIT 25",
    "SELECT a + c AS x, b FROM t WHERE a < 100 ORDER BY x",
]


@pytest.mark.parametrize("opt_level", ["O2", "O0"])
def test_parallel_rows_identical_to_serial(wide_catalog, opt_level):
    serial = HiqueEngine(wide_catalog, opt_level=opt_level, parallel=SERIAL)
    parallel = HiqueEngine(
        wide_catalog, opt_level=opt_level, parallel=PARALLEL
    )
    try:
        for sql in QUERIES:
            assert parallel.execute(sql) == serial.execute(sql), sql
        assert parallel.parallel.parallel_runs > 0
    finally:
        serial.close()
        parallel.close()


def test_float_sums_exact_by_default_relaxed_when_allowed(wide_catalog):
    """DOUBLE sum/avg: aggregation stays serial (bit-identical) unless
    float reordering is allowed — the scan still parallelizes, since
    concatenating morsel chunks in page order reassociates nothing."""
    sql = "SELECT c, sum(b) AS s, avg(b) AS av FROM t GROUP BY c"
    strict = HiqueEngine(wide_catalog, parallel=PARALLEL)
    relaxed = HiqueEngine(
        wide_catalog,
        parallel=ParallelConfig(
            workers=4, morsel_pages=4, min_pages=2, min_rows=256,
            allow_float_reorder=True,
        ),
    )
    serial = HiqueEngine(wide_catalog, parallel=SERIAL)
    try:
        # Bit-identical mode: rows match serial exactly; the gated
        # aggregation is recorded as a serial decision.
        rows = strict.execute(sql)
        assert rows == serial.execute(sql)
        stats = strict.last_exec_stats
        assert any("order-sensitive" in note for note in stats.notes)
        # Relaxed mode parallelizes the aggregation too; values agree
        # to rounding.
        relaxed_rows = relaxed.execute(sql)
        assert relaxed.last_exec_stats.parallel
        assert not any(
            "order-sensitive" in note
            for note in relaxed.last_exec_stats.notes
        )
        assert len(relaxed_rows) == len(rows)
        for got, want in zip(relaxed_rows, rows):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-12)
            assert got[2] == pytest.approx(want[2], rel=1e-12)
    finally:
        strict.close()
        relaxed.close()
        serial.close()


JOIN_ORDER_BY_SQL = (
    "SELECT t.a AS a, t.c AS c, v.w AS w FROM t, v "
    "WHERE t.c = v.k AND t.a < 4000 ORDER BY w DESC, a"
)


@pytest.mark.parametrize("force_join", ["merge", "hash", "hybrid"])
@pytest.mark.parametrize("opt_level", ["O2", "O0"])
def test_parallel_joins_identical_to_serial(
    wide_catalog, force_join, opt_level
):
    """Every join strategy: parallel staging + partition-pair/chunked
    join + parallel ORDER BY reproduce the serial rows exactly."""
    config = PlannerConfig(force_join=force_join)
    serial = HiqueEngine(
        wide_catalog,
        planner_config=config,
        opt_level=opt_level,
        parallel=SERIAL,
    )
    parallel = HiqueEngine(
        wide_catalog,
        planner_config=config,
        opt_level=opt_level,
        parallel=PARALLEL,
    )
    try:
        want = serial.execute(JOIN_ORDER_BY_SQL)
        assert want  # the join matches keys 0..8
        assert parallel.execute(JOIN_ORDER_BY_SQL) == want
        stats = parallel.last_exec_stats
        assert stats.parallel
        phases = {phase.name: phase for phase in stats.phases}
        assert phases["join"].workers > 1
        assert phases["stage"].workers > 1
    finally:
        serial.close()
        parallel.close()


def test_parallel_join_with_aggregation(wide_catalog):
    """Join feeding grouped aggregation: the whole pipeline is exact."""
    sql = (
        "SELECT t.c AS c, count(*) AS n, sum(v.w) AS s FROM t, v "
        "WHERE t.c = v.k GROUP BY t.c ORDER BY c"
    )
    serial = HiqueEngine(wide_catalog, parallel=SERIAL)
    parallel = HiqueEngine(wide_catalog, parallel=PARALLEL)
    try:
        assert parallel.execute(sql) == serial.execute(sql)
        assert parallel.last_exec_stats.parallel
    finally:
        serial.close()
        parallel.close()


def test_small_join_stays_serial(simple_catalog):
    """Inputs under min_rows run a merge join's serial function, with
    the decision surfaced in the stats."""
    with Database(
        catalog=simple_catalog,
        planner_config=PlannerConfig(force_join="merge"),
    ) as db:
        db.set_parallel(min_pages=1)
        rows = db.execute(
            "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 30"
        )
        assert rows  # correct result either way
        stats = db.last_exec_stats("hique")
        assert not stats.parallel
        assert "min_rows" in stats.reason


def test_small_tables_stay_serial(simple_db):
    simple_db.execute("SELECT a FROM t WHERE a < 10")
    stats = simple_db.last_exec_stats("hique")
    assert not stats.parallel
    assert "min_pages" in stats.reason


def test_forced_sort_aggregation_stages_in_parallel(wide_catalog):
    """Sort aggregation: staging parallelizes into sorted runs, the
    group scan folds the merged (byte-identical) input serially."""
    engine = HiqueEngine(
        wide_catalog,
        planner_config=PlannerConfig(force_agg="sort"),
        parallel=PARALLEL,
    )
    try:
        serial = HiqueEngine(
            wide_catalog,
            planner_config=PlannerConfig(force_agg="sort"),
            parallel=SERIAL,
        )
        sql = "SELECT c, count(*) AS n FROM t GROUP BY c"
        assert engine.execute(sql) == serial.execute(sql)
        stats = engine.last_exec_stats
        assert stats.parallel
        phases = {phase.name: phase for phase in stats.phases}
        assert phases["stage"].workers > 1
        assert phases["aggregate"].workers == 1
        serial.close()
    finally:
        engine.close()


def test_map_overflow_falls_back_identically():
    """Stale statistics overflow the merged value directory too."""
    catalog = Catalog()
    schema = Schema([Column("k", INT), Column("v", INT)])
    table = table_from_rows(
        "u", schema, [(i, i % 3) for i in range(4000)], buffer=catalog.buffer
    )
    catalog.register(table)
    catalog.analyze()
    # Now the data outgrows the analysed distinct count.
    table.load_rows([(i + 4000, i % 883) for i in range(4000)])
    config = PlannerConfig(force_agg="map")
    parallel = HiqueEngine(
        catalog, planner_config=config, parallel=PARALLEL
    )
    serial = HiqueEngine(catalog, planner_config=config, parallel=SERIAL)
    try:
        sql = "SELECT v, count(*) AS n FROM u GROUP BY v"
        assert parallel.execute(sql) == serial.execute(sql)
    finally:
        parallel.close()
        serial.close()


def test_phase_stats_reported_for_simple_scan(wide_catalog):
    engine = HiqueEngine(wide_catalog, parallel=PARALLEL)
    try:
        engine.execute("SELECT a FROM t WHERE a < 5")
        stats = engine.last_exec_stats
        assert stats.parallel
        assert [phase.name for phase in stats.phases] == ["stage"]
        assert stats.phases[0].workers > 1
        assert stats.phases[0].tasks == stats.morsels
        assert "stage" in stats.describe()
    finally:
        engine.close()


# -- k-way merge finishers ---------------------------------------------------------------


def test_kway_merge_duplicate_keys_stay_stable():
    """Equal keys drain earlier runs first — exactly a stable sort of
    the concatenated runs (rows carry their origin for the check)."""
    rng = random.Random(3)
    rows = [(rng.randrange(6), i) for i in range(300)]
    runs = [
        sorted(rows[lo : lo + 75], key=lambda r: r[0])
        for lo in range(0, 300, 75)
    ]
    merged = kway_merge(runs, key=lambda r: r[0])
    assert merged == sorted(rows, key=lambda r: r[0])


def test_kway_merge_handles_empty_runs():
    runs = [[], [(1,), (3,)], [], [(2,), (2,)], []]
    assert kway_merge(runs, key=lambda r: r[0]) == [
        (1,), (2,), (2,), (3,)
    ]
    assert kway_merge([], key=lambda r: r[0]) == []
    assert kway_merge([[], []], key=lambda r: r[0]) == []


def test_kway_merge_single_run_degenerate():
    run = [(1, "a"), (2, "b")]
    assert kway_merge([run], key=lambda r: r[0]) == run
    assert kway_merge([[], run, []], key=lambda r: r[0]) == run


def test_merge_ordered_runs_descending_and_mixed_keys():
    """DESC keys merge through the Desc wrapper; mixed directions match
    the serial stable multi-pass sort."""
    rng = random.Random(9)
    rows = [(rng.randrange(5), rng.randrange(4), i) for i in range(400)]
    keys = [(0, False), (1, True)]  # ORDER BY k0 DESC, k1 ASC

    def serial_sort(data):
        out = list(data)
        for position, ascending in reversed(keys):
            out.sort(key=lambda r: r[position], reverse=not ascending)
        return out

    runs = [serial_sort(rows[lo : lo + 100]) for lo in range(0, 400, 100)]
    assert merge_ordered_runs(runs, keys) == serial_sort(rows)
    # Pure descending, duplicates included.
    desc_runs = [
        sorted(rows[lo : lo + 100], key=lambda r: r[0], reverse=True)
        for lo in range(0, 400, 100)
    ]
    assert merge_ordered_runs(desc_runs, [(0, False)]) == sorted(
        rows, key=lambda r: r[0], reverse=True
    )


def test_merge_sorted_runs_multi_key():
    rows = [(i % 4, i % 3, i) for i in range(120)]
    runs = [
        sorted(rows[lo : lo + 40], key=lambda r: (r[0], r[1]))
        for lo in range(0, 120, 40)
    ]
    assert merge_sorted_runs(runs, (0, 1)) == sorted(
        rows, key=lambda r: (r[0], r[1])
    )


def test_partition_run_merges_preserve_serial_order():
    coarse = [
        [[(0, "m0")], [(1, "m0")]],
        [[(0, "m1")], []],
        [[], [(1, "m2"), (3, "m2")]],
    ]
    assert merge_partition_runs(coarse) == [
        [(0, "m0"), (0, "m1")],
        [(1, "m0"), (1, "m2"), (3, "m2")],
    ]
    fine = [
        {"b": [(1,)], "a": [(2,)]},
        {"c": [(3,)], "a": [(4,)]},
    ]
    merged = merge_fine_partition_runs(fine)
    assert list(merged) == ["b", "a", "c"]  # first-seen across runs
    assert merged["a"] == [(2,), (4,)]


def test_desc_wrapper_orders_inversely():
    assert Desc(2) < Desc(1)
    assert not Desc(1) < Desc(2)
    assert Desc(1) == Desc(1)
    assert (Desc(2), 0) < (Desc(1), 5)  # tuple fallback on inequality
    assert (Desc(1), 0) < (Desc(1), 5)  # tie falls through to run index


def test_lower_bound_and_chunk_bounds():
    rows = [(k,) for k in [1, 1, 2, 4, 4, 4, 7]]
    assert lower_bound(rows, 0, 0) == 0
    assert lower_bound(rows, 0, 2) == 2
    assert lower_bound(rows, 0, 3) == 3
    assert lower_bound(rows, 0, 8) == len(rows)
    assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert chunk_bounds(0, 4) == []
    with pytest.raises(ValueError):
        chunk_bounds(5, 0)


def test_task_dispatcher_hands_out_each_index_once():
    dispatcher = TaskDispatcher(500)
    taken: list[list[int]] = [[] for _ in range(4)]

    def worker(k: int):
        while True:
            index = dispatcher.next()
            if index is None:
                return
            taken[k].append(index)

    threads = [
        threading.Thread(target=worker, args=(k,)) for k in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert sorted(i for chunk in taken for i in chunk) == list(range(500))


# -- knobs ------------------------------------------------------------------------------


def test_database_knobs_and_counters(wide_catalog):
    db = Database(catalog=wide_catalog, workers=3)
    try:
        db.set_parallel(min_pages=2, morsel_pages=4)
        db.execute("SELECT count(*) AS n FROM t")
        stats = db.last_exec_stats("hique")
        assert stats.parallel and stats.workers == 3
        assert stats.morsels > 1
        parallel_runs, _serial = db.parallel_counters()
        assert parallel_runs >= 1
        # One worker pins execution to the serial walk.
        db.set_parallel(workers=1)
        db.execute("SELECT count(*) AS n FROM t WHERE c = 1")
        stats = db.last_exec_stats("hique")
        assert not stats.parallel and stats.reason == "single worker"
    finally:
        db.close()


def test_parallel_config_validation():
    with pytest.raises(ValueError):
        ParallelConfig(workers=0)
    with pytest.raises(ValueError):
        ParallelConfig(morsel_pages=0)


# -- cost-aware cache admission ---------------------------------------------------------


def test_cache_cost_aware_eviction_protects_valuable_entries():
    cache = PlanCache(capacity=2)
    cache.put("expensive", 1, cost_seconds=0.5, size_bytes=100)
    cache.put("cheap", 2, cost_seconds=0.001, size_bytes=100)
    # Hits earn the expensive entry its bytes even though it is LRU.
    cache.get("expensive")
    cache.get("cheap")
    cache.put("newcomer", 3, cost_seconds=0.1, size_bytes=100)
    assert "expensive" in cache
    assert "cheap" not in cache  # lowest seconds-saved/size score
    assert "newcomer" in cache
    assert cache.stats().policy.startswith("cost-aware")


def test_cache_ties_break_in_lru_order():
    cache = PlanCache(capacity=2)
    cache.put("first", 1)
    cache.put("second", 2)
    cache.put("third", 3)  # all scores zero: evict the LRU entry
    assert "first" not in cache
    assert "second" in cache and "third" in cache


def _full_scan_victim(cache: PlanCache, exclude) -> object:
    """Reference eviction rule: the lowest score, LRU order breaking
    ties, over every entry."""
    victim, best = None, None
    for entry in cache.entries():  # LRU → MRU
        if entry.key == exclude:
            continue
        if best is None or entry.score < best:
            victim, best = entry.key, entry.score
    return victim


def test_cache_early_exit_victim_matches_the_full_scan():
    """Stopping at the first zero score picks the full scan's victim."""
    rng = random.Random(20100419)
    for _ in range(300):
        cache = PlanCache(capacity=64)
        keys = list(range(rng.randrange(2, 40)))
        for key in keys:
            # Few distinct costs and sizes, so scores tie often
            # (0.1 / 100 == 0.2 / 200); cost 0 scores zero however hit.
            cache.put(
                key,
                key,
                cost_seconds=rng.choice((0.0, 0.1, 0.2)),
                size_bytes=rng.choice((100, 200)),
            )
        for key in rng.sample(keys, rng.randrange(len(keys) + 1)):
            cache.get(key)  # a hit gives a positive score, and recency
        exclude = rng.choice(keys)
        assert cache._pick_victim(exclude) == _full_scan_victim(
            cache, exclude
        )


def test_cache_entry_counters_update_under_lock():
    cache = PlanCache(capacity=4)
    cache.put("k", "v", cost_seconds=0.25)
    threads_n, per_thread = 8, 200

    def hammer():
        for _ in range(per_thread):
            cache.get("k")

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    entry = cache.entries()[-1]
    assert entry.hits == threads_n * per_thread  # no dropped increments
    assert entry.seconds_saved == pytest.approx(
        entry.hits * entry.cost_seconds
    )
    stats = cache.stats()
    assert stats.hits == threads_n * per_thread
    assert stats.seconds_saved == pytest.approx(entry.seconds_saved)
