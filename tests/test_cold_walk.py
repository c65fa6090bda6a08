"""The one execution path over cold disk tables: every plan shape
returns the rows it returns over memory.

A plan runs as its generated composing function, ``run_query``.  Over
:class:`~repro.storage.heapfile.DiskFile` tables in a pool smaller
than the data, its scans read through the buffer pool's sequential
read-ahead, and fetched pages are evicted and fetched again while
joins, restages and sorts read the other files.  The plans here are
the shapes that once ran on a thread scheduler: staged joins under
every algorithm, restages of a join result (sort, coarse and fine
partition, partition sort, DOUBLE keys), fused and separate
aggregations, final sorts and limits, at both optimisation levels.
Each must return the memory run's rows byte for byte (``repr``-equal),
read its pages cold, leave nothing pinned, and report its phases; a
generated function that raises mid-walk must surface its error and
leave the engine serving.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Database, ENGINE_KINDS
from repro.core.engine import HiqueEngine
from repro.plan.optimizer import PlannerConfig
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from repro.storage.table import table_from_rows
from tests.conftest import disk_copy

OPT_LEVELS = ["O2", "O0"]


def _walk_both(memory, disk, sql, planner_config=None, opt_level="O2"):
    """Run ``sql`` warm over ``memory`` and cold over ``disk``.

    Asserts the rows are ``repr``-equal, that the disk run read its
    pages cold on the walk and left no pin; returns ``(rows, stats)``
    of the disk run.
    """
    options = dict(opt_level=opt_level)
    if planner_config is not None:
        options["planner_config"] = planner_config
    warm = HiqueEngine(memory, **options)
    cold = HiqueEngine(disk, **options)
    try:
        want = warm.execute(sql)
        disk.buffer.evict_all()
        misses = disk.buffer.stats.misses
        got = cold.execute(sql)
        assert repr(got) == repr(want), sql
        assert disk.buffer.stats.misses > misses, "no page was read cold"
        assert disk.buffer.num_pinned == 0
        stats = cold.last_exec_stats
        assert stats is not None
        assert not stats.parallel and stats.morsels == 0
        assert stats.phases and all(
            phase.tasks == 0 for phase in stats.phases
        ), stats
        return got, stats
    finally:
        warm.close()
        cold.close()


def _phase_names(stats) -> list[str]:
    return [phase.name for phase in stats.phases]


# -- a wide table: scans, aggregations, sorts, joins ----------------------------------


def _wide_catalog() -> Catalog:
    """``t`` spans ≈70 pages; ``v`` joins it on ``t.c = v.k`` (9
    matching keys, 4 rows each)."""
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


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    memory = _wide_catalog()
    with disk_copy(
        memory, tmp_path_factory.mktemp("wide"), capacity=32
    ) as disk:
        yield memory, disk


WIDE_QUERIES = [
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


@pytest.mark.parametrize("opt_level", OPT_LEVELS)
@pytest.mark.parametrize(
    "sql", WIDE_QUERIES, ids=[f"q{i}" for i in range(len(WIDE_QUERIES))]
)
def test_wide_scans_match_memory(wide, sql, opt_level):
    _walk_both(*wide, sql, opt_level=opt_level)


def test_the_table_outgrows_the_pool_and_reads_ahead(wide):
    memory, disk = wide
    assert disk.table("t").num_pages > 2 * disk.buffer.capacity
    _walk_both(memory, disk, "SELECT a, b, c, d FROM t")
    assert disk.buffer.stats.evictions > 0
    assert disk.buffer._fetchers is not None, "no fetcher ever started"


def test_double_sums_are_bit_identical(wide):
    """DOUBLE sum/avg fold rows in heap order on the one path, cold
    or warm: the same additions in the same order."""
    _walk_both(
        *wide, "SELECT c, sum(b) AS s, avg(b) AS av FROM t GROUP BY c"
    )


JOIN_ORDER_BY_SQL = (
    "SELECT t.a AS a, t.c AS c, v.w AS w FROM t, v "
    "WHERE t.c = v.k AND t.a < 4000 ORDER BY w DESC, a"
)


@pytest.mark.parametrize("force_join", ["merge", "hash", "hybrid"])
@pytest.mark.parametrize("opt_level", OPT_LEVELS)
def test_wide_joins_match_memory(wide, force_join, opt_level):
    rows, stats = _walk_both(
        *wide,
        JOIN_ORDER_BY_SQL,
        PlannerConfig(force_join=force_join),
        opt_level,
    )
    assert rows  # the join matches keys 0..8
    assert _phase_names(stats) == ["stage", "join", "final"], stats


def test_join_with_aggregation_matches_memory(wide):
    _, stats = _walk_both(
        *wide,
        "SELECT t.c AS c, count(*) AS n, sum(v.w) AS s FROM t, v "
        "WHERE t.c = v.k GROUP BY t.c ORDER BY c",
    )
    # The scan of ``t`` folds into the join: one step, counted as
    # staging.
    assert _phase_names(stats) == ["stage", "aggregate", "final"], stats
    assert "table 't': scan fused into join o2 (no cache)" in stats.notes


def test_forced_sort_aggregation_matches_memory(wide):
    _, stats = _walk_both(
        *wide,
        "SELECT c, count(*) AS n FROM t GROUP BY c",
        PlannerConfig(force_agg="sort"),
    )
    assert _phase_names(stats) == ["stage", "aggregate"], stats


def test_phase_stats_reported_for_simple_scan(wide):
    _, stats = _walk_both(*wide, "SELECT a FROM t WHERE a < 5")
    assert _phase_names(stats) == ["stage"]
    assert stats.describe().startswith("serial; stage ")


def test_map_overflow_falls_back_identically(tmp_path):
    """Stale statistics overflow the map directory on a cold disk
    table too: the run re-plans and returns the memory rows."""
    memory = Catalog()
    schema = Schema([Column("k", INT), Column("v", INT)])
    table = table_from_rows(
        "u", schema, [(i, i % 3) for i in range(4000)], buffer=memory.buffer
    )
    memory.register(table)
    with disk_copy(memory, tmp_path, capacity=8) as disk:
        # Now the data outgrows the analysed distinct count.
        grown = [(i + 4000, i % 883) for i in range(4000)]
        table.load_rows(grown)
        disk.table("u").load_rows(grown)
        _, stats = _walk_both(
            memory,
            disk,
            "SELECT v, count(*) AS n FROM u GROUP BY v",
            PlannerConfig(force_agg="map"),
        )
        assert stats.notes[0].startswith("map-directory overflow"), stats


# -- three joinable tables: every multi-operator shape --------------------------------


def _shapes_catalog() -> Catalog:
    rng = random.Random(53)
    catalog = Catalog()
    t = catalog.create_table(
        "t",
        Schema(
            [
                Column("x", INT),
                Column("y", INT),
                Column("v", DOUBLE),
                Column("c", char(6)),
            ]
        ),
    )
    t.load_rows(
        (
            rng.randrange(200),
            rng.randrange(150),
            float(rng.randrange(-2000, 2000)) / 8,
            f"s{rng.randrange(5)}",
        )
        for _ in range(1600)
    )
    u = catalog.create_table(
        "u", Schema([Column("x", INT), Column("w", INT)])
    )
    u.load_rows(
        (rng.randrange(200), rng.randrange(100)) for _ in range(500)
    )
    v = catalog.create_table(
        "v", Schema([Column("y", INT), Column("z", INT)])
    )
    v.load_rows(
        (rng.randrange(150), rng.randrange(100)) for _ in range(400)
    )
    catalog.analyze()
    return catalog


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    memory = _shapes_catalog()
    # Eight frames, two pages ahead: less than the three tables span.
    with disk_copy(
        memory, tmp_path_factory.mktemp("shapes"), capacity=8
    ) as disk:
        yield memory, disk


#: name → sql.
SHAPES = {
    # scan + filter + aggregation fused, then a sort
    "fused-aggregate-sort": "SELECT c AS c, count(*) AS n, sum(x) AS s "
    "FROM t WHERE x < 120 GROUP BY c ORDER BY c",
    # two-table join + ORDER BY + LIMIT
    "join-sort": "SELECT t.x AS x, u.w AS w FROM t, u WHERE t.x = u.x "
    "ORDER BY x DESC, w LIMIT 200",
    # join, restage of the intermediate, second join
    "three-way": "SELECT t.x AS x, u.w AS w, v.z AS z FROM t, u, v "
    "WHERE t.x = u.x AND t.y = v.y ORDER BY x, w, z LIMIT 200",
    # aggregation over a join result
    "join-aggregate": "SELECT t.c AS c, count(*) AS n, min(u.w) AS lo "
    "FROM t, u WHERE t.x = u.x GROUP BY t.c ORDER BY c",
    # a single fused scan + aggregation
    "fused-aggregate": "SELECT c AS c, count(*) AS n, sum(x) AS s FROM t "
    "WHERE x < 30 GROUP BY c",
    # a join with no sort above it: its output order is the answer's
    "join-unsorted": "SELECT t.x AS x, t.y AS y, u.w AS w FROM t, u "
    "WHERE t.x = u.x AND t.y < 40",
}


@pytest.mark.parametrize("opt_level", OPT_LEVELS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_matches_memory(shapes, shape, opt_level):
    _walk_both(*shapes, SHAPES[shape], opt_level=opt_level)


@pytest.mark.parametrize(
    "config",
    [
        PlannerConfig(force_join="hash"),
        PlannerConfig(force_join="hybrid", force_partitions=8),
    ],
    ids=["fine-hash", "coarse-hybrid"],
)
def test_partition_joins_match_memory(shapes, config):
    _walk_both(*shapes, SHAPES["join-sort"], config)


@pytest.mark.parametrize("force_join", ["hash", "hybrid", "merge", "nested"])
@pytest.mark.parametrize(
    "shape", ["join-sort", "three-way", "join-aggregate", "join-unsorted"]
)
def test_forced_joins_match_memory(shapes, shape, force_join):
    """Every join algorithm, under every multi-operator shape."""
    _, stats = _walk_both(
        *shapes, SHAPES[shape], PlannerConfig(force_join=force_join)
    )
    assert "join" in _phase_names(stats), stats


def test_self_join_matches_memory(shapes):
    """``FROM t t1, t t2`` stages each binding separately, reading the
    same file twice."""
    _walk_both(
        *shapes,
        "SELECT t1.x AS x, t2.y AS y FROM t t1, t t2 "
        "WHERE t1.x = t2.x AND t2.y < 20 ORDER BY x, y LIMIT 150",
        PlannerConfig(force_join="hash"),
    )


def test_hybrid_aggregation_matches_memory(shapes):
    """A partition staging feeding an aggregation, not a join."""
    _walk_both(
        *shapes,
        "SELECT c AS c, count(*) AS n FROM t GROUP BY c ORDER BY c",
        PlannerConfig(force_agg="hybrid", force_partitions=8),
    )


def _boom(*args, **kwargs):
    raise RuntimeError("generated function died")


#: name → (shape, planner config, the generated entry point to break:
#: a function prefix, with ``_scan`` for a fused scan's fold).
DYING = {
    "join": ("join-sort", PlannerConfig(force_join="merge"), "join", ""),
    "fused-scan": (
        "fused-aggregate-sort", PlannerConfig(force_agg="map"),
        "aggregate", "_scan",
    ),
    "aggregate-over-join": (
        "join-aggregate", PlannerConfig(force_agg="map"), "aggregate", "",
    ),
    "final-sort": ("join-sort", PlannerConfig(), "order", ""),
}


@pytest.mark.parametrize("case", sorted(DYING))
def test_generated_function_errors_propagate_cleanly(shapes, case):
    """A function that raises mid-walk surfaces its own error — no
    partial rows, no pin left — and the engine serves the next
    statement."""
    shape, config, prefix, suffix = DYING[case]
    memory, disk = shapes
    engine = HiqueEngine(disk)
    try:
        prepared = engine.prepare(
            SHAPES[shape], name="boom", planner_config=config
        )
        namespace = prepared.compiled.namespace
        (entry,) = [
            name + suffix
            for name in prepared.generated.function_names.values()
            if name.startswith(prefix) and name + suffix in namespace
        ]
        namespace[entry] = _boom
        disk.buffer.evict_all()
        with pytest.raises(RuntimeError, match="generated function died"):
            engine.execute_prepared(prepared)
        assert disk.buffer.num_pinned == 0
        _walk_both(memory, disk, SHAPES[shape], config)
    finally:
        engine.close()


# -- restaged join results ------------------------------------------------------------

#: Staged joins: the default build/probe hash join probes its larger
#: input unprepared, so SQL's intermediate would need no restage.
MERGE = PlannerConfig(force_join="merge")

#: Three tables joined on two different keys: under MERGE the optimizer
#: joins two of them first and re-stages the intermediate for the
#: second join.
RESTAGE_SQL = (
    "SELECT a.x AS x, b.w AS w, c.z AS z FROM a, b, c "
    "WHERE a.x = b.x AND a.y = c.y ORDER BY x, w, z LIMIT 300"
)
#: Aggregation whose hybrid algorithm partition-sorts the join result.
RESTAGE_AGG_SQL = (
    "SELECT a.x AS x, count(*) AS n, min(b.w) AS lo FROM a, b "
    "WHERE a.x = b.x GROUP BY a.x ORDER BY x"
)
#: The second join key is DOUBLE, so the restage sorts on a DOUBLE
#: column — exact, since sorting reassociates nothing.
RESTAGE_DOUBLE_SQL = (
    "SELECT a.x AS x, c2.z AS z FROM a, b, c2 "
    "WHERE a.x = b.x AND a.d = c2.d ORDER BY x, z LIMIT 300"
)


def _restage_catalog() -> Catalog:
    rng = random.Random(11)
    catalog = Catalog()
    a = catalog.create_table(
        "a",
        Schema(
            [
                Column("x", INT),
                Column("y", INT),
                Column("d", DOUBLE),
                Column("pad", char(8)),
            ]
        ),
    )
    a.load_rows(
        (
            rng.randrange(60),
            rng.randrange(50),
            float(rng.randrange(40)) / 4,
            f"p{rng.randrange(9)}",
        )
        for _ in range(3000)
    )
    b = catalog.create_table(
        "b", Schema([Column("x", INT), Column("w", INT)])
    )
    b.load_rows(
        (rng.randrange(60), rng.randrange(100)) for _ in range(400)
    )
    c = catalog.create_table(
        "c", Schema([Column("y", INT), Column("z", INT)])
    )
    c.load_rows(
        (rng.randrange(50), rng.randrange(100)) for _ in range(300)
    )
    c2 = catalog.create_table(
        "c2", Schema([Column("d", DOUBLE), Column("z", INT)])
    )
    c2.load_rows(
        (float(rng.randrange(40)) / 4, rng.randrange(100))
        for _ in range(300)
    )
    catalog.analyze()
    return catalog


@pytest.fixture(scope="module")
def restage(tmp_path_factory):
    memory = _restage_catalog()
    with disk_copy(
        memory, tmp_path_factory.mktemp("restage"), capacity=16
    ) as disk:
        yield memory, disk


def _canonical(rows):
    return sorted(repr(list(row)) for row in rows)


def test_plan_contains_restage(restage):
    _, disk = restage
    engine = HiqueEngine(disk, planner_config=MERGE)
    try:
        assert "Restage" in engine.explain(RESTAGE_SQL)
    finally:
        engine.close()


def test_every_engine_agrees_over_cold_disk(restage):
    """Every engine kind returns the reference rows over the disk
    tables (canonicalised: engines may differ on int/float types)."""
    _, disk = restage
    expected = _canonical(
        reference_evaluate(Binder(disk).bind(parse(RESTAGE_SQL)))
    )
    with Database(catalog=disk) as db:
        for kind in ENGINE_KINDS:
            disk.buffer.evict_all()
            assert _canonical(db.execute(RESTAGE_SQL, engine=kind)) == (
                expected
            ), kind
        assert db.buffer.num_pinned == 0


@pytest.mark.parametrize("force_join", ["merge", "hash", "hybrid"])
def test_restages_match_memory(restage, force_join):
    """Sort, fine-partition and coarse-partition restages."""
    planner = PlannerConfig(force_join=force_join)
    memory, _ = restage
    engine = HiqueEngine(memory, planner_config=planner)
    try:
        assert "Restage" in engine.explain(RESTAGE_SQL)
    finally:
        engine.close()
    _walk_both(*restage, RESTAGE_SQL, planner)


def test_hybrid_aggregation_restage_matches_memory(restage):
    planner = PlannerConfig(force_agg="hybrid")
    memory, _ = restage
    engine = HiqueEngine(memory, planner_config=planner)
    try:
        assert "Restage" in engine.explain(RESTAGE_AGG_SQL)
    finally:
        engine.close()
    _walk_both(*restage, RESTAGE_AGG_SQL, planner)


def test_double_restage_keys_match_memory(restage):
    memory, _ = restage
    engine = HiqueEngine(memory, planner_config=MERGE)
    try:
        assert "Restage" in engine.explain(RESTAGE_DOUBLE_SQL)
    finally:
        engine.close()
    _walk_both(*restage, RESTAGE_DOUBLE_SQL, MERGE)


@pytest.mark.parametrize("force_join", ["merge", "hybrid"])
def test_restage_errors_surface_cleanly(restage, force_join):
    """A restage dying mid-run surfaces its error (no hang, no partial
    rows), and the engine keeps serving."""
    memory, disk = restage
    config = PlannerConfig(force_join=force_join)
    engine = HiqueEngine(disk, planner_config=config)
    try:
        prepared = engine.prepare(RESTAGE_SQL, name="crashy")
        (entry,) = [
            name
            for name in prepared.generated.function_names.values()
            if name.startswith("restage")
        ]
        prepared.compiled.namespace[entry] = _boom
        disk.buffer.evict_all()
        with pytest.raises(RuntimeError, match="generated function died"):
            engine.execute_prepared(prepared)
        assert disk.buffer.num_pinned == 0
        _walk_both(memory, disk, RESTAGE_SQL, config)
    finally:
        engine.close()
