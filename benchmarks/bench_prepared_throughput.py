"""Prepared-statement throughput: cold preparation vs warm plan cache.

Extends the Table III story: the paper measures what preparation (parse
+ optimize + generate + compile) costs per query and argues systems
amortize it by caching prepared statements.  Preparation is a
per-statement constant of a few milliseconds, so it dominates exactly
where production systems feel it — repeated *point* queries whose
execution touches little data.  This benchmark drives parameterized
point selections, a filtered aggregate and a point join over an
OLTP-style schema, comparing cold (cache bypassed: every execution pays
full preparation) against warm (one preparation, then ``params``-only
executions through the query service), reporting queries/sec and the
preparation time the cache saved.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import save_result
from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.storage import Column, DOUBLE, INT, char

NUM_ACCOUNTS = 256
NUM_REGIONS = 16
REPEATS = 50

#: Parameterized statements driven with varying point values.
WORKLOADS = [
    (
        "point filter",
        "SELECT id, balance FROM accounts WHERE id = ?",
        lambda rng: (rng.randrange(NUM_ACCOUNTS),),
    ),
    (
        "filtered aggregate",
        "SELECT region, sum(balance) AS s, count(*) AS n FROM accounts "
        "WHERE balance > ? GROUP BY region",
        lambda rng: (float(rng.randrange(1000)),),
    ),
    (
        "point join",
        "SELECT a.id, a.balance, r.tag FROM accounts a, regions r "
        "WHERE a.region = r.region AND a.id = ?",
        lambda rng: (rng.randrange(NUM_ACCOUNTS),),
    ),
]


@pytest.fixture(scope="module")
def oltp_database():
    rng = random.Random(7)
    db = Database()
    db.create_table(
        "accounts",
        [
            Column("id", INT),
            Column("balance", DOUBLE),
            Column("region", INT),
        ],
    )
    db.load_rows(
        "accounts",
        [
            (i, float(rng.randrange(100_000)) / 100, i % NUM_REGIONS)
            for i in range(NUM_ACCOUNTS)
        ],
    )
    db.create_table(
        "regions", [Column("region", INT), Column("tag", char(8))]
    )
    db.load_rows(
        "regions", [(r, f"r{r}") for r in range(NUM_REGIONS)]
    )
    db.analyze()
    yield db
    db.close()


def _run_cold(db: Database, sql: str, param_sets) -> float:
    """Every execution pays full preparation (cache bypassed)."""
    engine = db.engine("hique")
    started = time.perf_counter()
    for params in param_sets:
        prepared = engine.prepare(sql)
        engine.execute_prepared(prepared, params=params)
    return time.perf_counter() - started


def _run_warm(db: Database, sql: str, param_sets) -> float:
    """One preparation through the service, then cached executions."""
    statement = db.prepare(sql)
    statement.execute(param_sets[0])  # ensure the plan is hot
    started = time.perf_counter()
    for params in param_sets:
        statement.execute(params)
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def throughput_report(oltp_database):
    db = oltp_database
    result = ExperimentResult(
        name="Prepared-statement throughput: cold preparation vs warm "
        "plan cache",
        headers=[
            "workload",
            "cold q/s",
            "warm q/s",
            "speedup",
            "cold ms/q",
            "warm ms/q",
            "prep saved ms",
        ],
    )
    for label, sql, make_params in WORKLOADS:
        rng = random.Random(42)
        param_sets = [make_params(rng) for _ in range(REPEATS)]
        cold = _run_cold(db, sql, param_sets)
        warm = _run_warm(db, sql, param_sets)
        saved = db.service.stats().cache.seconds_saved
        result.add(
            label,
            REPEATS / cold,
            REPEATS / warm,
            cold / warm,
            cold / REPEATS * 1000,
            warm / REPEATS * 1000,
            saved * 1000,
        )
    result.note(
        f"{REPEATS} executions per workload over {NUM_ACCOUNTS} accounts; "
        f"cold pays full parse/optimize/generate/compile per query "
        f"(Table III's cost), warm reuses one cached compiled plan with "
        f"fresh parameters."
    )
    save_result(result)
    return result


def test_report(throughput_report):
    assert len(throughput_report.rows) == len(WORKLOADS)


def test_warm_cache_beats_cold_preparation_5x(throughput_report):
    """Acceptance: ≥5× latency reduction vs cold preparation."""
    for row in throughput_report.rows:
        label, _cold_qps, _warm_qps, speedup = row[:4]
        assert speedup >= 5.0, (label, speedup)


def test_preparation_time_saved_accumulates(throughput_report):
    saved = throughput_report.column("prep saved ms")
    assert all(s > 0 for s in saved)
    assert saved == sorted(saved)  # monotone across workloads


def test_point_query_warm(benchmark, oltp_database):
    statement = oltp_database.prepare(
        "SELECT id, balance FROM accounts WHERE id = ?"
    )
    statement.execute((1,))
    benchmark(statement.execute, (1,))


def test_point_query_cold(benchmark, oltp_database):
    engine = oltp_database.engine("hique")
    sql = "SELECT id, balance FROM accounts WHERE id = ?"

    def cold():
        prepared = engine.prepare(sql)
        engine.execute_prepared(prepared, params=(1,))

    benchmark.pedantic(cold, rounds=10)
