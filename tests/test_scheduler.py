"""Scheduler mechanics: affinity, row identity, the driver, knobs.

Covers the sticky/work-stealing :class:`AffinityDispatcher`; row
identity of scheduled runs against the serial walk for every plan
shape — staged joins, restages, forced partition joins, aggregation,
final sorts; the dependency-driven driver (overlap accounting, clean
error propagation out of driver threads); and the ``ParallelConfig``
/ ``set_parallel`` / shell plumbing.
"""

from __future__ import annotations

import dataclasses
import io
import random

import pytest

from repro.api import Database
from repro.cli import Shell
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.parallel.morsel import AffinityDispatcher
from repro.parallel.stats import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from tests.conftest import FANOUT, SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

# -- page-range affinity ----------------------------------------------------------------


def test_affinity_workers_drain_their_own_partition_first():
    dispatcher = AffinityDispatcher(6, [0, 0, 0, 1, 1, 1], workers=2)
    assert [dispatcher.next(0) for _ in range(3)] == [0, 1, 2]
    assert [dispatcher.next(1) for _ in range(3)] == [3, 4, 5]
    assert dispatcher.steals == 0
    assert dispatcher.next(0) is None and dispatcher.next(1) is None


def test_affinity_steals_from_the_longest_queue_tail():
    # Every task lands in worker 0's stripe: worker 1 must steal, and
    # from the *tail*, so worker 0 keeps walking its stripe in order.
    dispatcher = AffinityDispatcher(4, [0, 0, 0, 0], workers=2)
    assert dispatcher.next(1) == 3
    assert dispatcher.steals == 1
    assert dispatcher.next(0) == 0
    assert dispatcher.next(1) == 2
    assert dispatcher.next(0) == 1
    assert dispatcher.steals == 2
    assert dispatcher.next(1) is None


def test_affinity_claims_cover_every_task_exactly_once():
    rng = random.Random(7)
    partitions = [rng.randrange(5) for _ in range(40)]
    dispatcher = AffinityDispatcher(40, partitions, workers=3)
    claimed = []
    slot = 0
    while True:
        index = dispatcher.next(slot)
        if index is None:
            break
        claimed.append(index)
        slot = (slot + 1) % 3
    assert sorted(claimed) == list(range(40))


def test_affinity_cancel_and_validation():
    dispatcher = AffinityDispatcher(2, [0, 1], workers=2)
    dispatcher.cancel()
    assert dispatcher.next(0) is None
    with pytest.raises(ValueError):
        AffinityDispatcher(3, [0, 1], workers=2)
    with pytest.raises(ValueError):
        AffinityDispatcher(1, [0], workers=0)


# -- scheduled row identity -------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog() -> Catalog:
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


QUERIES = [
    # scan + filter + aggregation fused into one node, then a sort
    "SELECT c AS c, count(*) AS n, sum(x) AS s FROM t "
    "WHERE x < 120 GROUP BY c ORDER BY c",
    # two-table join + ORDER BY
    "SELECT t.x AS x, u.w AS w FROM t, u WHERE t.x = u.x "
    "ORDER BY x DESC, w LIMIT 200",
    # three-table plan: join, restage of the intermediate, second join
    "SELECT t.x AS x, u.w AS w, v.z AS z FROM t, u, v "
    "WHERE t.x = u.x AND t.y = v.y ORDER BY x, w, z LIMIT 200",
    # aggregation over a join result
    "SELECT t.c AS c, count(*) AS n, min(u.w) AS lo FROM t, u "
    "WHERE t.x = u.x GROUP BY t.c ORDER BY c",
    # scan fused with its aggregation: a single-node plan, run on the
    # calling thread without a driver
    "SELECT c AS c, count(*) AS n, sum(x) AS s FROM t "
    "WHERE x < 30 GROUP BY c",
    # a join with no sort above it: its output order is the answer's
    "SELECT t.x AS x, t.y AS y, u.w AS w FROM t, u "
    "WHERE t.x = u.x AND t.y < 40",
]


def test_scheduled_rows_identical_to_serial(catalog):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    try:
        for sql in QUERIES:
            assert engine.execute(sql) == serial.execute(sql), sql
            stats = engine.last_exec_stats
            assert stats is not None and stats.scheduled, sql
            assert stats.parallel, (sql, stats)
            assert stats.describe().startswith("parallel: "), sql
    finally:
        serial.close()
        engine.close()


def test_scheduled_o0_plans_match_serial(catalog):
    serial = HiqueEngine(catalog, opt_level="O0", parallel=SERIAL)
    engine = HiqueEngine(
        catalog, opt_level="O0", parallel=ParallelConfig(**FANOUT)
    )
    try:
        for sql in QUERIES:
            assert engine.execute(sql) == serial.execute(sql), sql
    finally:
        serial.close()
        engine.close()


@pytest.mark.parametrize(
    "config",
    [
        PlannerConfig(force_join="hash"),
        PlannerConfig(force_join="hybrid", force_partitions=8),
    ],
    ids=["fine-hash", "coarse-hybrid"],
)
def test_partition_joins_match_serial(catalog, config):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    sql = QUERIES[1]
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel, stats
    finally:
        serial.close()
        engine.close()


@pytest.mark.parametrize("force_join", ["hash", "hybrid", "merge", "nested"])
@pytest.mark.parametrize(
    "query",
    [1, 2, 3, 5],
    ids=["join-sort", "three-way", "join-aggregate", "join-unsorted"],
)
def test_forced_joins_match_serial(catalog, query, force_join):
    """Every join algorithm, under every multi-node plan shape, returns
    the serial walk's rows when the driver runs its nodes."""
    config = PlannerConfig(force_join=force_join)
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    sql = QUERIES[query]
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.scheduled and stats.parallel
        assert any(phase.name == "join" for phase in stats.phases), stats
    finally:
        serial.close()
        engine.close()


def test_self_join_matches_serial(catalog):
    """``FROM t t1, t t2`` stages each binding separately, on two
    independent nodes — rows must still match the serial run."""
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    config = PlannerConfig(force_join="hash")
    sql = (
        "SELECT t1.x AS x, t2.y AS y FROM t t1, t t2 "
        "WHERE t1.x = t2.x AND t2.y < 20 ORDER BY x, y LIMIT 150"
    )
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
    finally:
        serial.close()
        engine.close()


def test_hybrid_aggregation_matches_serial(catalog):
    """A partition staging feeding an aggregation, not a join."""
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    config = PlannerConfig(force_agg="hybrid", force_partitions=8)
    sql = (
        "SELECT c AS c, count(*) AS n FROM t GROUP BY c ORDER BY c"
    )
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        assert engine.last_exec_stats is not None
    finally:
        serial.close()
        engine.close()


# -- the dependency-driven driver -------------------------------------------------------


def test_chain_plan_reports_no_overlap(catalog):
    """A fused scan+aggregate followed by its sort: each node waits for
    the one before, so no phase overlaps another."""
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    try:
        engine.execute(QUERIES[0])
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert all(phase.overlap_seconds == 0.0 for phase in stats.phases)
    finally:
        engine.close()


def test_independent_scans_overlap(catalog):
    """Two leaf scans share no dependency, so the driver must actually
    overlap them — the stage phase reports overlapped time with high
    probability on a plan whose three scans dominate."""
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    try:
        # A couple of attempts damp scheduler noise: overlap only needs
        # to be observed once to prove the phases genuinely interleave.
        for _ in range(5):
            engine.execute(QUERIES[2])
            stats = engine.last_exec_stats
            assert stats is not None and stats.parallel
            if any(phase.overlap_seconds > 0 for phase in stats.phases):
                break
        else:
            pytest.fail(f"no overlap ever observed: {stats.phases}")
    finally:
        engine.close()


#: name → (query, planner config, generated function prefix, the
#: scheduler-only entry point the patched task calls).
DYING_TASKS = {
    # A merge join fans out pair tasks; the default build/probe hash
    # join would probe serially.
    "join-pair": (1, PlannerConfig(force_join="merge"), "join", "_pair"),
    # The scan's morsel tasks fold rows through the fused aggregate's
    # partial entry point, upstream of the final sort's node.
    "fused-scan-partial": (
        0, PlannerConfig(force_agg="map"), "aggregate", "_partial"
    ),
    # The aggregation over a join result runs row-chunk partials on
    # its own node, after the join's node.
    "aggregate-partial": (
        3, PlannerConfig(force_agg="map"), "aggregate", "_partial"
    ),
}


@pytest.mark.parametrize("task", sorted(DYING_TASKS))
def test_driver_task_errors_propagate_cleanly(catalog, task):
    query, config, prefix, suffix = DYING_TASKS[task]
    engine = HiqueEngine(catalog, parallel=ParallelConfig(**FANOUT))
    try:
        prepared = engine.prepare(
            QUERIES[query], name="boom", planner_config=config
        )
        entry = next(
            name + suffix
            for name in prepared.generated.function_names.values()
            if name.startswith(prefix)
        )

        def boom(*args, **kwargs):
            raise RuntimeError("task died")

        # Link the scheduler's entry points first, so the first
        # scheduled run does not overwrite the patch.
        prepared.compiled.link_scheduled()
        assert entry in prepared.compiled.namespace
        prepared.compiled.namespace[entry] = boom
        with pytest.raises(RuntimeError, match="task died"):
            engine.execute_prepared(prepared)
        # The engine (and its pool) survive for the next statement.
        engine.clear_cache()
        assert engine.execute(QUERIES[0])
    finally:
        engine.close()


# -- knob plumbing ----------------------------------------------------------------------


def test_parallel_config_has_five_fields():
    assert [f.name for f in dataclasses.fields(ParallelConfig)] == [
        "workers",
        "morsel_pages",
        "task_timeout",
        "min_pages",
        "min_rows",
    ]


def test_removed_knobs_are_rejected(catalog):
    """``workers=1`` pins the serial walk; threads are the only task
    backend, the dependency-driven driver is the only schedule, DOUBLE
    sums always stay exact, and generated modules never touch a work
    directory."""
    for removed in (
        dict(parallel=False),
        dict(placement="auto"),
        dict(executor="thread"),
        dict(pipeline=True),
    ):
        with pytest.raises(TypeError):
            Database(catalog=catalog, **removed)
    with Database(catalog=catalog) as db:
        for removed in (
            dict(enabled=False),
            dict(placement="auto"),
            dict(executor="thread"),
            dict(pipeline=True),
            dict(allow_float_reorder=True),
        ):
            with pytest.raises(TypeError):
                db.set_parallel(**removed)
    for removed in (dict(pipeline=True), dict(allow_float_reorder=True)):
        with pytest.raises(TypeError):
            ParallelConfig(**removed)
    with pytest.raises(TypeError):
        HiqueEngine(catalog, workdir="generated")
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".pipeline on")
        assert shell.db.parallel_config == ParallelConfig()
        assert "unknown command .pipeline" in out.getvalue()
    finally:
        shell.db.close()


def test_set_parallel_rejects_bad_values_and_keeps_the_config(catalog):
    with Database(catalog=catalog, workers=3) as db:
        before = db.parallel_config
        for bad in (
            dict(workers=0),
            dict(morsel_pages=0),
            dict(min_rows=0),
            dict(task_timeout=-1.0),
        ):
            with pytest.raises(ReproError):
                db.set_parallel(**bad)
            assert db.parallel_config == before, bad


def test_shell_parallel_only_shows_the_config():
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".parallel")
        shell.handle(".parallel off")
        shell.handle(".placement auto")
        shell.handle(".executor process")
        assert shell.db.parallel_config == ParallelConfig()
        text = out.getvalue()
        assert "4 workers" in text and "backend" not in text
        assert "scheduling" not in text
        assert "usage: .parallel" in text
        assert "unknown command .placement" in text
        assert "unknown command .executor" in text
    finally:
        shell.db.close()
