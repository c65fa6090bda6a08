"""Version-keyed intermediate reuse: warm repeated queries skip staging.

HIQUE's Table III shows staging — decoding heap pages into contiguous
sort/partition buffers — dominating per-query cost for join plans.  The
``IntermediateCache`` banks that work: staged scan output is keyed by
``(table, version, staging signature)``, so a warm run of the same plan
against unmutated tables copies the staged buffers instead of
re-decoding and re-sorting both join inputs.  Above the stagings it
keeps the statement's answer, keyed by ``(prepared query, parameters,
versions of the scanned tables)``, so a warm repeat of the same
statement runs nothing.  DML bumps the mutated table's version epoch,
which stales the answer and drops exactly that table's entries: the
re-run under the stale answer reuses the other input's staging and
re-stages only the written one.

The measured query is a sort-staged merge join + grouped aggregation —
the regime where re-staging is O(n log n) per input and reuse is a flat
copy.  Stagings are banked only under a stale answer, so each round
stales the answer twice to bank both sorted runs, then times fresh
preparations (whose answer is a first sighting) that read them.  All
modes run the identical plan on the identical executor;
the "uncached" mode simply detaches the intermediate cache from the
executor.  Rows are asserted identical across staged, recycled,
uncached and post-DML executions before any timing counts.

The run writes ``BENCH_write_cache.json`` (a CI artifact) with raw
seconds, ``staging_speedup`` and ``answer_speedup``.  The acceptance
gates: a warm run over banked stagings must cost at most half the warm
uncached run (≥2×), and a recycled answer at most a tenth (≥10×).
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
    db = Database(planner_config=PlannerConfig(force_join="merge"))
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


def _best(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _bank_stagings(db: Database, statement) -> None:
    """Bank both inputs' sorted runs at the current table versions.

    Only a run under a stale answer sights and banks stagings.  The
    answer banks on its second run; each identity write to ``u`` (no
    ``t.a`` is negative, so the rows stay the same) then stales it,
    and the two stale runs sight, then bank, both stagings.
    """
    statement.execute()
    statement.execute()
    db.execute("INSERT INTO u VALUES (-1, 1)")
    statement.execute()
    db.execute("DELETE FROM u WHERE k = -1")
    statement.execute()


def _measure(db: Database) -> tuple[float, float, float]:
    """One round: (staging-reuse s, recycled-answer s, uncached s),
    rows verified."""
    engine = db.engine("hique")
    executor = engine.parallel
    statement = db.prepare(SQL)
    db.intermediates.clear()
    cold_rows = statement.execute()  # cold: stages both inputs
    _bank_stagings(db, statement)

    # Staging reuse: a fresh preparation's answer is a first sighting,
    # so it runs the join and aggregate over both banked sorted runs.
    fresh = [
        engine.prepare(SQL) for _ in range(REPEATS + 1)
    ]
    hits = db.intermediates.stats().hits
    staged_seconds = _best(lambda: engine.execute_prepared(fresh.pop()))
    staged_rows = engine.execute_prepared(fresh.pop())
    # Each fresh run genuinely reused both staged inputs — otherwise
    # the timing compares nothing.
    assert db.intermediates.stats().hits - hits == 2 * (REPEATS + 1)

    # Recycled answers: the warm statement runs nothing.
    answers = db.intermediates.stats().answers
    recycled_seconds = _best(statement.execute)
    recycled_rows = statement.execute()
    assert db.intermediates.stats().answers - answers == REPEATS + 1

    saved = executor.intermediates
    executor.intermediates = None
    try:
        statement.execute()  # warm plan/pools without the cache
        uncached_seconds = _best(statement.execute)
        uncached_rows = statement.execute()
    finally:
        executor.intermediates = saved

    assert cold_rows == staged_rows == recycled_rows == uncached_rows
    return staged_seconds, recycled_seconds, uncached_seconds


@pytest.fixture(scope="module")
def write_cache_report(write_cache_db):
    db = write_cache_db
    rounds = [_measure(db) for _ in range(ROUNDS)]
    staged = min(r[0] for r in rounds)
    recycled = min(r[1] for r in rounds)
    uncached = min(r[2] for r in rounds)

    # Fine-grained invalidation: DML on u stales the answer and drops
    # only u's entries; the re-run under the stale answer re-stages u
    # but reuses t's staging, banked by the last round.
    reference = db.execute(SQL)
    hits_before = db.intermediates.stats().hits
    db.execute("INSERT INTO u VALUES (0, 1)")  # key 0 matches t's i=0 row
    after_dml = db.execute(SQL)
    partial_hits = db.intermediates.stats().hits - hits_before
    assert partial_hits >= 1  # t's staging survived the write to u
    assert after_dml != reference  # the write is visible

    best = {
        "cached_seconds": staged,
        "recycled_seconds": recycled,
        "uncached_seconds": uncached,
        "staging_speedup": uncached / staged,
        "answer_speedup": uncached / recycled,
        "partial_reuse_hits_after_dml": partial_hits,
        "rows_per_table": ROWS,
        "cpu_count": os.cpu_count(),
        "scale": BENCH_SCALE,
    }

    result = ExperimentResult(
        name="Write path intermediate cache: warm staged merge join, "
        f"reuse vs re-stage ({ROWS} rows/input)",
        headers=["mode", "cached s", "uncached s", "speedup"],
    )
    result.add(
        "staging reuse (sorted runs banked)",
        best["cached_seconds"],
        best["uncached_seconds"],
        best["staging_speedup"],
    )
    result.add(
        "recycled answer",
        best["recycled_seconds"],
        best["uncached_seconds"],
        best["answer_speedup"],
    )
    result.note(
        f"Both join inputs sort-staged. Staging reuse: a fresh "
        f"preparation (its answer a first sighting) reads the banked "
        f"sorted runs keyed by (table, version, staging signature) and "
        f"only joins and aggregates. Recycled answer: the warm statement "
        f"copies its banked rows keyed by (prepared query, parameters, "
        f"table versions). Uncached mode re-decodes, re-sorts and "
        f"re-joins per execution. Best of {ROUNDS} rounds x {REPEATS} "
        f"repeats; rows identical across modes; after an INSERT into one "
        f"input the re-run under the stale answer reused the other "
        f"input's staging ({partial_hits} hit(s))."
    )
    save_result(result)

    save_bench_json("BENCH_write_cache.json", best)
    return best


def test_report_written(write_cache_report):
    path = os.path.join(RESULTS_DIR, "BENCH_write_cache.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["staging_speedup"] > 0
    assert payload["answer_speedup"] > 0
    assert payload["rows_per_table"] == ROWS


def test_staging_reuse_meets_speedup_gate(write_cache_report):
    """Acceptance: warm runs over banked stagings run ≥2× faster."""
    assert write_cache_report["staging_speedup"] >= 2.0, write_cache_report


def test_recycled_answer_meets_speedup_gate(write_cache_report):
    """Acceptance: a recycled answer costs at most a tenth of a run."""
    assert write_cache_report["answer_speedup"] >= 10.0, write_cache_report
