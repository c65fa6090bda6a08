"""Scheduler mechanics: affinity, hand-off, row identity, knobs.

Covers the sticky/work-stealing :class:`AffinityDispatcher`, the
incremental :class:`PartitionHandoff` (byte-identity against the
barrier merges, incremental publication order, error propagation), row
identity of barrier and pipelined scheduled runs against the serial
walk, and the ``ParallelConfig`` / ``set_parallel`` / shell plumbing.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import random
import threading

import pytest

from repro.api import Database
from repro.cli import Shell
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.parallel.executor import PartitionHandoff
from repro.parallel.merge import (
    merge_fine_partition_runs,
    merge_partition_runs,
)
from repro.parallel.morsel import AffinityDispatcher
from repro.parallel.stats import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from tests.conftest import SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

#: Thresholds low enough that small test tables genuinely fan out.
_PARALLEL = dict(workers=3, morsel_pages=1, min_pages=1, min_rows=8)

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


# -- incremental partition hand-off -----------------------------------------------------


def _fine_partials(rng: random.Random) -> list[dict]:
    keys = list(range(12))
    partials = []
    for run in range(5):
        rng.shuffle(keys)
        partials.append(
            {
                key: [(key, run, i) for i in range(rng.randrange(1, 4))]
                for key in keys[: rng.randrange(3, 10)]
            }
        )
    return partials


def test_fine_handoff_matches_barrier_merge():
    rng = random.Random(23)
    partials = _fine_partials(rng)
    expected = merge_fine_partition_runs(copy.deepcopy(partials))
    handoff = PartitionHandoff(copy.deepcopy(partials), fine=True)
    handoff.start()
    got = handoff.result()
    # Identical contents *and* identical key insertion order — the
    # serial directory's first-seen-across-runs order.
    assert got == expected
    assert list(got) == list(expected)
    assert handoff.keys == list(expected)
    assert handoff.result() is got  # cached


def test_coarse_handoff_matches_barrier_merge():
    rng = random.Random(29)
    partials = [
        [
            [(bucket, run, i) for i in range(rng.randrange(0, 4))]
            for bucket in range(6)
        ]
        for run in range(4)
    ]
    expected = merge_partition_runs(copy.deepcopy(partials))
    handoff = PartitionHandoff(copy.deepcopy(partials), fine=False)
    handoff.start()
    assert handoff.result() == expected
    assert handoff.keys == list(range(6))


def test_handoff_publishes_buckets_incrementally():
    partials = [
        {"a": [1], "b": [2], "c": [3]},
        {"a": [4], "c": [5]},
    ]
    release = {key: threading.Event() for key in ("a", "b", "c")}
    handoff = PartitionHandoff(
        copy.deepcopy(partials),
        fine=True,
        pace=lambda key: release[key].wait(timeout=5),
    )
    handoff.start()
    # "a" publishes before its pace gate; "b" is still unmerged.
    assert handoff.bucket("a") == [1, 4]
    assert handoff.merged_count() == 1

    got_b: list = []
    waiter = threading.Thread(
        target=lambda: got_b.append(handoff.bucket("b")), daemon=True
    )
    waiter.start()
    waiter.join(timeout=0.2)
    assert waiter.is_alive()  # bucket("b") genuinely blocks
    release["a"].set()
    waiter.join(timeout=5)
    assert not waiter.is_alive() and got_b == [[2]]
    for event in release.values():
        event.set()
    assert handoff.result() == merge_fine_partition_runs(partials)


def test_handoff_without_start_merges_inline():
    partials = [{"k": [1, 2]}, {"k": [3]}]
    handoff = PartitionHandoff(copy.deepcopy(partials), fine=True)
    assert handoff.result() == {"k": [1, 2, 3]}
    assert handoff.total_rows() == 3


def test_handoff_merge_errors_reach_consumers():
    # A poisoned first run: the adopted bucket is a tuple, so merging
    # the second run into it raises on the merge thread — and both
    # consumer entry points must see that error, not hang.
    handoff = PartitionHandoff([{"k": (1,)}, {"k": [2]}], fine=True)
    handoff.start()
    with pytest.raises(AttributeError):
        handoff.bucket("k")
    with pytest.raises(AttributeError):
        handoff.result()


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
    catalog.analyze()
    return catalog


QUERIES = [
    "SELECT c AS c, count(*) AS n, sum(x) AS s FROM t "
    "WHERE x < 120 GROUP BY c ORDER BY c",
    "SELECT t.x AS x, u.w AS w FROM t, u WHERE t.x = u.x "
    "ORDER BY x DESC, w LIMIT 200",
    "SELECT t.c AS c, count(*) AS n, min(u.w) AS lo FROM t, u "
    "WHERE t.x = u.x GROUP BY t.c ORDER BY c",
]


@pytest.mark.parametrize("pipeline", [False, True])
def test_scheduled_rows_identical_to_serial(catalog, pipeline):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=pipeline, **_PARALLEL)
    )
    try:
        for sql in QUERIES:
            assert engine.execute(sql) == serial.execute(sql), sql
            stats = engine.last_exec_stats
            assert stats is not None and stats.scheduled, sql
        assert stats.parallel
        assert stats.describe().startswith("parallel: ")
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
def test_pipelined_partition_joins_hand_off(catalog, config):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(
        catalog,
        parallel=ParallelConfig(pipeline=True, **_PARALLEL),
    )
    sql = QUERIES[1]
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel and stats.pipelined
        assert any(
            "incremental partition hand-off" in note
            for note in stats.notes
        ), stats.notes
    finally:
        serial.close()
        engine.close()


def test_self_join_hands_off_both_bindings(catalog):
    """``FROM t t1, t t2`` stages each binding separately, so *both*
    stagings may hand off — and rows must still match the serial run."""
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(
        catalog,
        parallel=ParallelConfig(pipeline=True, **_PARALLEL),
    )
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
        assert any(
            "hand-off on 2 staging node(s)" in note
            for note in stats.notes
        ), stats.notes
    finally:
        serial.close()
        engine.close()


def test_non_join_consumers_never_hand_off(catalog):
    """The gate admits only partition stagings feeding one pairwise
    join: an aggregation consumer needs the whole directory at once."""
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(
        catalog,
        parallel=ParallelConfig(pipeline=True, **_PARALLEL),
    )
    config = PlannerConfig(force_agg="hybrid", force_partitions=8)
    sql = (
        "SELECT c AS c, count(*) AS n FROM t GROUP BY c ORDER BY c"
    )
    try:
        want = serial.execute(sql, planner_config=config)
        assert engine.execute(sql, planner_config=config) == want
        stats = engine.last_exec_stats
        assert stats is not None
        assert not any(
            "incremental partition hand-off" in note
            for note in stats.notes
        ), stats.notes
    finally:
        serial.close()
        engine.close()


def test_barrier_runs_never_hand_off(catalog):
    engine = HiqueEngine(
        catalog,
        parallel=ParallelConfig(pipeline=False, **_PARALLEL),
    )
    try:
        engine.execute(QUERIES[1], planner_config=PlannerConfig(
            force_join="hash"
        ))
        stats = engine.last_exec_stats
        assert stats is not None
        assert not any(
            "incremental partition hand-off" in note
            for note in stats.notes
        ), stats.notes
    finally:
        engine.close()


# -- knob plumbing ----------------------------------------------------------------------


def test_parallel_config_has_seven_fields():
    assert [f.name for f in dataclasses.fields(ParallelConfig)] == [
        "workers",
        "morsel_pages",
        "pipeline",
        "task_timeout",
        "min_pages",
        "min_rows",
        "allow_float_reorder",
    ]


def test_removed_knobs_are_rejected(catalog):
    """``workers=1`` pins the serial walk; threads are the only task
    backend, and generated modules never touch a work directory."""
    with pytest.raises(TypeError):
        Database(catalog=catalog, parallel=False)
    with pytest.raises(TypeError):
        Database(catalog=catalog, placement="auto")
    with pytest.raises(TypeError):
        Database(catalog=catalog, executor="thread")
    with Database(catalog=catalog) as db:
        with pytest.raises(TypeError):
            db.set_parallel(enabled=False)
        with pytest.raises(TypeError):
            db.set_parallel(placement="auto")
        with pytest.raises(TypeError):
            db.set_parallel(executor="thread")
    with pytest.raises(TypeError):
        HiqueEngine(catalog, workdir="generated")


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


def test_shell_parallel_only_shows_the_config(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
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
        assert "barrier scheduling" in text
        assert "usage: .parallel" in text
        assert "unknown command .placement" in text
        assert "unknown command .executor" in text
    finally:
        shell.db.close()
