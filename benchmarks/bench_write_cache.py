"""Version-keyed intermediate reuse: warm repeated queries skip staging.

HIQUE's Table III shows staging — decoding heap pages into contiguous
sort/partition buffers — dominating per-query cost for join plans.  The
``IntermediateCache`` banks that work: staged scan output is keyed by
``(table, version, staging signature)``, so a warm repeat of the same
plan against unmutated tables copies the staged buffers instead of
re-decoding and re-sorting both join inputs.  DML bumps the mutated
table's version epoch, which drops exactly that table's entries and
leaves the other input's staging banked.

The measured query is a sort-staged merge join + grouped aggregation —
the regime where re-staging is O(n log n) per input and reuse is a flat
copy.  Both modes run the identical plan on the identical parallel
configuration; the "uncached" mode simply detaches the intermediate
cache from the executor.  Rows are asserted identical across cached,
uncached and post-DML executions before any timing counts.

The run writes ``BENCH_write_cache.json`` (a CI artifact) with raw
seconds and ``staging_speedup``.  The
acceptance gate is ≥2×: the warm cached run must cost at most half the
warm uncached run.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    RESULTS_DIR,
    save_bench_json,
    save_result,
)
from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.plan.optimizer import PlannerConfig
from repro.storage import Column, INT

WORKERS = 4
ROUNDS = 5
#: Timed executions per mode per round; the per-mode minimum survives.
REPEATS = 3

ROWS = {"tiny": 10_000, "small": 40_000, "medium": 120_000}.get(
    BENCH_SCALE, 40_000
)

#: Sort-staged merge join feeding grouped aggregation: both inputs are
#: staged (decoded + sorted on the join key) before the join runs, so a
#: warm repeat with the cache attached reuses both sorted runs.
SQL = (
    "SELECT t.b AS g, count(u.v) AS n, sum(u.v) AS s FROM t, u "
    "WHERE t.a = u.k GROUP BY t.b ORDER BY g"
)


@pytest.fixture(scope="module")
def write_cache_db():
    db = Database(
        workers=WORKERS,
        planner_config=PlannerConfig(force_join="merge"),
    )
    db.create_table("t", [Column("a", INT), Column("b", INT)])
    db.load_rows(
        "t", [((i * 7919) % 100_000, i % 16) for i in range(ROWS)]
    )
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows(
        "u", [((i * 104_729) % 100_000, i % 9) for i in range(ROWS)]
    )
    db.analyze()
    yield db
    db.close()


def _best(statement) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        statement.execute()
        best = min(best, time.perf_counter() - started)
    return best


def _measure(db: Database) -> tuple[float, float]:
    """One round: (warm cached s, warm uncached s), rows verified."""
    statement = db.prepare(SQL)
    db.intermediates.clear()
    cold_rows = statement.execute()  # cold: stages both inputs
    statement.execute()  # a staging is banked from its second miss
    cached_seconds = _best(statement)
    cached_rows = statement.execute()
    # The warm runs genuinely reused staged output — otherwise the
    # timing below compares nothing.
    assert db.intermediates.stats().hits >= 2

    executor = db.engine("hique").parallel
    saved = executor.intermediates
    executor.intermediates = None
    try:
        statement.execute()  # warm plan/pools without the cache
        uncached_seconds = _best(statement)
        uncached_rows = statement.execute()
    finally:
        executor.intermediates = saved

    assert cold_rows == cached_rows == uncached_rows
    return cached_seconds, uncached_seconds


@pytest.fixture(scope="module")
def write_cache_report(write_cache_db):
    db = write_cache_db
    rounds = [_measure(db) for _ in range(ROUNDS)]
    cached = min(r[0] for r in rounds)
    uncached = min(r[1] for r in rounds)

    # Fine-grained invalidation: DML on u drops only u's banked
    # staging; the warm re-run re-stages u but still reuses t's.
    reference = db.execute(SQL)
    hits_before = db.intermediates.stats().hits
    db.execute("INSERT INTO u VALUES (0, 1)")  # key 0 matches t's i=0 row
    after_dml = db.execute(SQL)
    partial_hits = db.intermediates.stats().hits - hits_before
    assert partial_hits >= 1  # t's staging survived the write to u
    assert after_dml != reference  # the write is visible

    best = {
        "cached_seconds": cached,
        "uncached_seconds": uncached,
        "staging_speedup": uncached / cached,
        "partial_reuse_hits_after_dml": partial_hits,
        "rows_per_table": ROWS,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "scale": BENCH_SCALE,
    }

    result = ExperimentResult(
        name="Write path intermediate cache: warm staged merge join, "
        f"reuse vs re-stage ({ROWS} rows/input, {WORKERS} workers)",
        headers=["mode", "cached s", "uncached s", "speedup"],
    )
    result.add(
        "sort-staged merge join + grouped aggregation",
        best["cached_seconds"],
        best["uncached_seconds"],
        best["staging_speedup"],
    )
    result.note(
        f"Both join inputs sort-staged; cached mode reuses the banked "
        f"sorted runs keyed by (table, version, staging signature), "
        f"uncached mode re-decodes and re-sorts per execution. Best of "
        f"{ROUNDS} rounds x {REPEATS} repeats; rows identical across "
        f"modes; after an INSERT into one input the warm re-run still "
        f"reused the other input's staging ({partial_hits} hit(s))."
    )
    save_result(result)

    save_bench_json("BENCH_write_cache.json", best)
    return best


def test_report_written(write_cache_report):
    path = os.path.join(RESULTS_DIR, "BENCH_write_cache.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["staging_speedup"] > 0
    assert payload["rows_per_table"] == ROWS


def test_staging_reuse_meets_speedup_gate(write_cache_report):
    """Acceptance: warm repeats with banked staging run ≥2× faster."""
    assert write_cache_report["staging_speedup"] >= 2.0, write_cache_report
