"""Cost-aware adaptive scheduler: placement, affinity, hand-off.

Covers the compute-per-byte :class:`CostModel` (seed routing, the ship
floor, tie-breaks, cold-pool penalties, online refinement from measured
latencies and from cross-query profiles), the sticky/work-stealing
:class:`AffinityDispatcher`, the incremental
:class:`PartitionHandoff` (byte-identity against the barrier merges,
incremental publication order, error propagation), row identity across
every executor × scheduling mode, the mid-query process-pool-retired
fallback, and the ``executor="auto"`` plumbing (``Database`` /
``set_parallel`` / shell ``.executor`` / ``REPRO_EXECUTOR``) plus the
observability surfaces (stats describe, explain annotations,
per-backend digest splits).
"""

from __future__ import annotations

import copy
import dataclasses
import io
import random
import threading
from types import SimpleNamespace

import pytest

from repro.api import Database
from repro.cli import Shell
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.obs.insights import DigestStore
from repro.parallel.backend import BackendRetired, ProcessBackend
from repro.parallel.cost import (
    CostModel,
    batch_payload_bytes,
    cost_kind,
)
from repro.parallel.executor import PartitionHandoff
from repro.parallel.merge import (
    merge_fine_partition_runs,
    merge_partition_runs,
)
from repro.parallel.morsel import AffinityDispatcher
from repro.parallel.proc import ScanTask, shipped_bytes
from repro.parallel.stats import (
    EXECUTOR_AUTO,
    EXECUTOR_MIXED,
    EXECUTOR_PROCESS,
    EXECUTOR_THREAD,
    ExecutionStats,
    ParallelConfig,
    PhaseStats,
)
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from tests.conftest import SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

#: Thresholds low enough that small test tables genuinely fan out.
_PARALLEL = dict(workers=3, morsel_pages=1, min_pages=1, min_rows=8)

BIG = 4 * 1024 * 1024  # comfortably above the ship floor


# -- cost model -------------------------------------------------------------------------


def test_seeds_route_stage_to_threads_and_join_to_processes():
    model = CostModel()
    stage = model.choose("stage", BIG, tasks=8)
    assert stage.backend == EXECUTOR_THREAD
    assert "est thread" in stage.reason
    join = model.choose("join", BIG, tasks=8)
    assert join.backend == EXECUTOR_PROCESS
    assert join.thread_seconds > join.process_seconds
    for kind in ("aggregate", "sort", "restage", "call"):
        assert model.choose(kind, BIG, tasks=8).backend == EXECUTOR_PROCESS


def test_small_batches_never_ship():
    model = CostModel()
    decision = model.choose("join", 4 * 1024, tasks=2)
    assert decision.backend == EXECUTOR_THREAD
    assert "ship floor" in decision.reason


def test_threads_win_ties():
    model = CostModel()
    # Force identical rates on both backends; the remaining difference
    # is pure per-task overhead, which favors threads — and even with
    # zero tasks the tie itself must fall to the thread backend.
    model._rates[("join", EXECUTOR_THREAD)] = 1e-8
    model._rates[("join", EXECUTOR_PROCESS)] = 1e-8
    assert model.choose("join", BIG, tasks=1).backend == EXECUTOR_THREAD
    assert model.choose("join", BIG, tasks=0).backend == EXECUTOR_THREAD


def test_cold_pool_spinup_flips_marginal_wins():
    model = CostModel()
    payload = 1024 * 1024  # process saves ~24ms warm, loses cold
    assert (
        model.choose("join", payload, tasks=1, warm=True).backend
        == EXECUTOR_PROCESS
    )
    cold = model.choose("join", payload, tasks=1, warm=False)
    assert cold.backend == EXECUTOR_THREAD
    assert cold.process_seconds > model.POOL_SPINUP_SECONDS


def test_first_observation_replaces_seed_then_ema():
    model = CostModel()
    seeded = model.rate("join", EXECUTOR_THREAD)
    model.observe("join", EXECUTOR_THREAD, BIG, tasks=1, seconds=0.42)
    first = model.rate("join", EXECUTOR_THREAD)
    expected = (0.42 - model.THREAD_TASK_SECONDS) / BIG
    assert first == pytest.approx(expected)
    assert first != seeded
    assert model.samples("join", EXECUTOR_THREAD) == 1
    model.observe("join", EXECUTOR_THREAD, BIG, tasks=1, seconds=0.84)
    second = model.rate("join", EXECUTOR_THREAD)
    # EMA: strictly between the two observations, weighted by ALPHA.
    assert first < second < (0.84 - model.THREAD_TASK_SECONDS) / BIG
    assert model.samples("join", EXECUTOR_THREAD) == 2
    # Degenerate measurements never poison the model.
    model.observe("join", EXECUTOR_THREAD, 0, tasks=1, seconds=1.0)
    model.observe("join", EXECUTOR_THREAD, BIG, tasks=1, seconds=0.0)
    assert model.samples("join", EXECUTOR_THREAD) == 2


def test_observed_latencies_flip_routing():
    model = CostModel()
    assert model.choose("join", BIG, tasks=1).backend == EXECUTOR_PROCESS
    # This host's processes turn out to be slow, its threads fast
    # (say: 1 CPU, so shipping buys nothing and pays serialization).
    model.observe("join", EXECUTOR_PROCESS, BIG, tasks=1, seconds=2.0)
    model.observe("join", EXECUTOR_THREAD, BIG, tasks=1, seconds=0.02)
    assert model.choose("join", BIG, tasks=1).backend == EXECUTOR_THREAD


def test_profile_refinement_fills_only_unobserved_thread_rates():
    model = CostModel()
    totals = [
        SimpleNamespace(
            kind="ScanStage", rows=0, self_seconds=2.0,
            pages_hit=400, pages_missed=100,
        ),
        SimpleNamespace(
            kind="Join", rows=10_000, self_seconds=1.0,
            pages_hit=0, pages_missed=0,
        ),
        SimpleNamespace(  # unknown kinds are ignored
            kind="Limit", rows=5, self_seconds=9.9,
            pages_hit=0, pages_missed=0,
        ),
    ]
    model.observe("join", EXECUTOR_THREAD, BIG, tasks=1, seconds=0.1)
    observed_join = model.rate("join", EXECUTOR_THREAD)
    model.refine_from_profile(totals)
    # Scan rate re-seeded from the profile (pages × page bytes)...
    assert model.rate("stage", EXECUTOR_THREAD) == pytest.approx(
        2.0 / (500 * 4096)
    )
    # ...but the directly measured join rate always wins.
    assert model.rate("join", EXECUTOR_THREAD) == observed_join
    # Process rates are never profile-seeded (profiles don't attribute
    # time per backend).
    assert model.rate("join", EXECUTOR_PROCESS) == CostModel.SEEDS["join"][1]


def test_cost_kind_and_batch_payload():
    assert cost_kind("stage:o1") == "stage"
    assert cost_kind("join:o3") == "join"
    assert cost_kind("join-team:o5") == "join"
    assert cost_kind("weird:o7") == "call"
    assert cost_kind(None) == "call"
    materialized = ScanTask(
        "f", "t", 0, 2, pages=(b"x" * 100, b"y" * 50)
    )
    unread = ScanTask("f", "t", 4, 7)  # pages read at submission time
    call = SimpleNamespace(args=[[1] * 10, {"k": [1, 2, 3]}])
    assert batch_payload_bytes([materialized]) == 150
    assert batch_payload_bytes([unread]) == 3 * 4096
    assert batch_payload_bytes([call]) == shipped_bytes(call)
    assert batch_payload_bytes([]) == 0


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


# -- placement × scheduling row identity ------------------------------------------------


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
def test_rows_identical_under_every_executor(catalog, pipeline):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engines = {
        executor: HiqueEngine(
            catalog,
            parallel=ParallelConfig(
                executor=executor, pipeline=pipeline, **_PARALLEL
            ),
        )
        for executor in ("thread", "process", "auto")
    }
    try:
        for sql in QUERIES:
            want = serial.execute(sql)
            for executor, engine in engines.items():
                assert engine.execute(sql) == want, (executor, sql)
                stats = engine.last_exec_stats
                assert stats is not None, (executor, sql)
                if stats.parallel:
                    assert stats.placement == executor, (executor, sql)
        stats = engines["auto"].last_exec_stats
        assert stats is not None and stats.parallel
        assert "adaptive" in stats.describe()
        # The chooser recorded where every batch went.
        assert any(
            note.startswith("adaptive placement routed")
            for note in stats.notes
        ), stats.notes
    finally:
        serial.close()
        for engine in engines.values():
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
        # Hand-off needs the thread backend, whatever REPRO_EXECUTOR says.
        parallel=ParallelConfig(
            pipeline=True, executor="thread", **_PARALLEL
        ),
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
        # Hand-off needs the thread backend, whatever REPRO_EXECUTOR says.
        parallel=ParallelConfig(
            pipeline=True, executor="thread", **_PARALLEL
        ),
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
        # Hand-off needs the thread backend, whatever REPRO_EXECUTOR says.
        parallel=ParallelConfig(
            pipeline=True, executor="thread", **_PARALLEL
        ),
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
        parallel=ParallelConfig(
            pipeline=False, executor="thread", **_PARALLEL
        ),
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


def test_retired_process_pool_falls_back_to_threads(
    catalog, monkeypatch
):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    engine = HiqueEngine(
        catalog,
        parallel=ParallelConfig(executor="process", **_PARALLEL),
    )

    def retired(self, *args, **kwargs):
        raise BackendRetired("process pool was retired by a reconfigure")

    monkeypatch.setattr(ProcessBackend, "run_batch", retired)
    try:
        want = serial.execute(QUERIES[2])
        assert engine.execute(QUERIES[2]) == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert stats.backend == EXECUTOR_THREAD, stats
        assert any(
            "process pool retired mid-query" in note
            for note in stats.notes
        ), stats.notes
    finally:
        serial.close()
        engine.close()


# -- knob plumbing ----------------------------------------------------------------------


def test_auto_executor_knob(catalog, monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    with Database(catalog=catalog, executor="auto") as db:
        assert db.parallel_config.executor == EXECUTOR_AUTO
        config = db.set_parallel(executor="thread")
        assert config.executor == EXECUTOR_THREAD
        # Other knobs survive an executor change and vice versa.
        config = db.set_parallel(workers=2)
        assert config.executor == EXECUTOR_THREAD and config.workers == 2
        config = db.set_parallel(executor="auto")
        assert config.executor == EXECUTOR_AUTO and config.workers == 2
        rows = db.execute(
            "SELECT x AS x, count(*) AS n FROM t GROUP BY x ORDER BY x"
        )
        assert rows
        with pytest.raises(ReproError):
            db.set_parallel(executor="sideways")
    with pytest.raises(ReproError):
        Database(catalog=catalog, executor="bogus")
    monkeypatch.setenv("REPRO_EXECUTOR", "auto")
    assert ParallelConfig().executor == EXECUTOR_AUTO
    with Database(catalog=catalog) as db:
        assert db.parallel_config.executor == EXECUTOR_AUTO
    engine = HiqueEngine(catalog)
    try:
        assert engine.parallel.config.executor == EXECUTOR_AUTO
    finally:
        engine.close()
    monkeypatch.setenv("REPRO_EXECUTOR", "sideways")
    with pytest.raises(ReproError):
        Database(catalog=catalog)


def test_shell_executor_command(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".executor")
        shell.handle(".executor auto")
        assert shell.db.parallel_config.executor == EXECUTOR_AUTO
        shell.handle(".executor thread")
        assert shell.db.parallel_config.executor == EXECUTOR_THREAD
        shell.handle(".executor sideways")
        assert shell.db.parallel_config.executor == EXECUTOR_THREAD
        text = out.getvalue()
        assert "task backend: thread" in text
        assert "task backend set to auto" in text
        assert "usage: .executor [thread|process|auto]" in text
    finally:
        shell.db.close()


def test_parallel_config_has_eight_fields():
    assert [f.name for f in dataclasses.fields(ParallelConfig)] == [
        "workers",
        "morsel_pages",
        "executor",
        "pipeline",
        "task_timeout",
        "min_pages",
        "min_rows",
        "allow_float_reorder",
    ]


def test_removed_knobs_are_rejected(catalog):
    """``workers=1`` pins the serial walk; ``executor`` names the backend."""
    with pytest.raises(TypeError):
        Database(catalog=catalog, parallel=False)
    with pytest.raises(TypeError):
        Database(catalog=catalog, placement="auto")
    with Database(catalog=catalog) as db:
        with pytest.raises(TypeError):
            db.set_parallel(enabled=False)
        with pytest.raises(TypeError):
            db.set_parallel(placement="auto")


def test_set_parallel_rejects_bad_values_and_keeps_the_config(catalog):
    with Database(catalog=catalog, workers=3) as db:
        before = db.parallel_config
        for bad in (
            dict(workers=0),
            dict(morsel_pages=0),
            dict(min_rows=0),
            dict(executor="sideways"),
        ):
            with pytest.raises(ReproError):
                db.set_parallel(**bad)
            assert db.parallel_config == before, bad


def test_shell_parallel_only_shows_the_config(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".parallel")
        shell.handle(".parallel off")
        shell.handle(".placement auto")
        assert shell.db.parallel_config == ParallelConfig()
        text = out.getvalue()
        assert "4 workers" in text and "thread backend" in text
        assert "barrier scheduling" in text
        assert "usage: .parallel" in text
        assert "unknown command .placement" in text
    finally:
        shell.db.close()


# -- observability ----------------------------------------------------------------------


def test_stats_describe_mixed_and_adaptive():
    stats = ExecutionStats(
        parallel=True,
        backend=EXECUTOR_MIXED,
        placement=EXECUTOR_AUTO,
        workers=4,
    )
    assert "(mixed, adaptive)" in stats.describe()
    assert PhaseStats("join", backend=EXECUTOR_MIXED).describe().endswith(
        "1wm"
    )
    assert PhaseStats("join", backend=EXECUTOR_PROCESS).describe().endswith(
        "1wp"
    )


def test_explain_analyze_shows_placement_decisions(catalog):
    with Database(catalog=catalog, executor="auto") as db:
        db.set_parallel(**_PARALLEL)
        text = db.explain_analyze(QUERIES[2])
    assert "placement=" in text
    # Every decision carries its reason (floor or estimate comparison).
    assert "ship floor" in text or "est thread" in text


def test_digest_records_per_backend_split():
    store = DigestStore()
    for backend in ("thread", "thread", "process", "mixed"):
        digest = store.record(
            "hique", "SELECT 1", seconds=0.01, rows=1, backend=backend
        )
    assert digest.backend_split() == "t2/p1/m1"
    payload = digest.to_dict()
    assert payload["backends"]["thread"]["calls"] == 2
    assert payload["backends"]["mixed"]["calls"] == 1
    single = DigestStore().record(
        "hique", "SELECT 2", seconds=0.01, backend="thread"
    )
    assert single.backend_split() == "thread"
    serial_only = DigestStore().record("hique", "SELECT 3", seconds=0.01)
    assert serial_only.backend_split() == "-"


def test_insights_render_per_backend_split(catalog):
    """One statement run under both backends shows its split in the
    ``.insights`` digest table."""
    with Database(catalog=catalog) as db:
        db.set_parallel(**_PARALLEL)
        sql = QUERIES[2]
        db.set_parallel(executor="thread")
        db.execute(sql)
        db.set_parallel(executor="process")
        db.execute(sql)
        text = db.insights_text()
    assert "t1/p1" in text
