"""Observability overhead: the disabled tracing path must be near-free.

The instrumentation contract is that a database that never turns
tracing on pays only the disabled-gate checks (one module-level int
read per hook).  This benchmark drives the prepared-statement
throughput workload — warm point queries, where per-query fixed costs
dominate — in three configurations:

* **suppressed** — ``suppress_overhead_probe()`` makes every hook
  behave as if the instrumentation were absent: the no-hook control.
* **disabled** — tracing off, hooks live (the shipping default).
* **enabled** — full span recording, reported for context.

The gate asserts disabled-vs-suppressed overhead below 3% (min of
interleaved rounds on both sides, so scheduler noise cancels).  The
run also exports a sample Chrome ``trace_event`` file from an enabled
execution and the rendered insights view, which CI uploads as
artifacts.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, save_bench_json, save_result
from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.obs import suppress_overhead_probe
from repro.storage import Column, DOUBLE, INT, char

NUM_ACCOUNTS = 256
NUM_REGIONS = 16
EXECUTIONS_PER_ROUND = 300
ROUNDS = 7
OVERHEAD_GATE = 0.03

POINT_SQL = "SELECT id, balance FROM accounts WHERE id = ?"
JOIN_AGG_SQL = (
    "SELECT r.tag, sum(a.balance) AS s, count(*) AS n "
    "FROM accounts a, regions r WHERE a.region = r.region "
    "GROUP BY r.tag ORDER BY r.tag"
)


@pytest.fixture(scope="module")
def obs_database():
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
    db.load_rows("regions", [(r, f"r{r}") for r in range(NUM_REGIONS)])
    db.analyze()
    yield db
    db.close()


def _round_seconds(statement, param_sets) -> float:
    started = time.perf_counter()
    for params in param_sets:
        statement.execute(params)
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def overhead_report(obs_database):
    db = obs_database
    rng = random.Random(42)
    statement = db.prepare(POINT_SQL)
    param_sets = [
        (rng.randrange(NUM_ACCOUNTS),) for _ in range(EXECUTIONS_PER_ROUND)
    ]
    statement.execute(param_sets[0])  # warm the plan cache

    suppressed: list[float] = []
    disabled: list[float] = []
    enabled: list[float] = []
    # Interleave the configurations within each round so clock drift
    # and scheduler noise hit all three alike.
    for _ in range(ROUNDS):
        with suppress_overhead_probe():
            suppressed.append(_round_seconds(statement, param_sets))
        db.set_trace(False)
        disabled.append(_round_seconds(statement, param_sets))
        db.set_trace(True)
        enabled.append(_round_seconds(statement, param_sets))
        db.set_trace(False)

    base = min(suppressed)
    # Per-round ratios: each round interleaves the configurations, so
    # ambient load inflates numerator and denominator together; taking
    # the cleanest round's ratio (not the ratio of global minima, which
    # may come from different rounds) cancels machine noise.
    overhead_disabled = min(
        d / s for d, s in zip(disabled, suppressed)
    ) - 1.0
    overhead_enabled = min(
        e / s for e, s in zip(enabled, suppressed)
    ) - 1.0
    payload = {
        "executions_per_round": EXECUTIONS_PER_ROUND,
        "rounds": ROUNDS,
        "suppressed_seconds": base,
        "disabled_seconds": min(disabled),
        "enabled_seconds": min(enabled),
        "disabled_overhead": overhead_disabled,
        "enabled_overhead": overhead_enabled,
        "gate": OVERHEAD_GATE,
    }

    result = ExperimentResult(
        name="Observability overhead: disabled tracing vs no-hook control",
        headers=["configuration", "best round s", "q/s", "overhead %"],
    )
    for label, seconds in (
        ("no hooks (control)", base),
        ("tracing disabled", min(disabled)),
        ("tracing enabled", min(enabled)),
    ):
        result.add(
            label,
            seconds,
            EXECUTIONS_PER_ROUND / seconds,
            (seconds / base - 1.0) * 100.0,
        )
    result.note(
        f"{EXECUTIONS_PER_ROUND} warm point queries per round, best of "
        f"{ROUNDS} interleaved rounds per configuration; the disabled "
        f"path must stay within {OVERHEAD_GATE * 100:.0f}% of the "
        f"no-hook control."
    )
    save_result(result)
    save_bench_json("BENCH_observability.json", payload)
    return payload


@pytest.fixture(scope="module")
def insights_artifact_path(obs_database, overhead_report):
    """The rendered workload-insights view, exported for CI."""
    db = obs_database
    db.execute(JOIN_AGG_SQL)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "insights_observability.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(db.insights_text(top=10) + "\n")
    return path


@pytest.fixture(scope="module")
def sample_trace_path(obs_database):
    """An enabled-run Chrome trace, exported for the CI artifact."""
    db = obs_database
    db.set_trace(True)
    try:
        db.execute(JOIN_AGG_SQL)
        trace = db.last_trace()
    finally:
        db.set_trace(False)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "trace_observability_sample.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace.to_chrome_trace())
    return path


def test_report_written(overhead_report):
    import json

    path = os.path.join(RESULTS_DIR, "BENCH_observability.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["rounds"] == ROUNDS
    assert payload["suppressed_seconds"] > 0


def test_disabled_overhead_under_gate(overhead_report):
    """Acceptance: tracing-disabled overhead <3% on the prepared-
    throughput workload."""
    assert overhead_report["disabled_overhead"] < OVERHEAD_GATE, (
        overhead_report
    )


def test_insights_artifact_exported(insights_artifact_path):
    with open(insights_artifact_path, encoding="utf-8") as handle:
        text = handle.read()
    assert "workload insights" in text
    assert "slow-query log" in text


def test_sample_trace_exported(sample_trace_path):
    import json

    with open(sample_trace_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert events
    names = {event["name"] for event in events}
    assert "query" in names or "explain_analyze" in names
