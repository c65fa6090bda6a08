"""Index access paths: the same table with and without a B+-tree.

The OLTP shapes of ``benchmarks/e2e``'s ``oltp_wire`` workload, run
in process against two databases holding identical ``accounts`` rows —
one with an index on ``id`` (``Database.create_index``), one without:

* a point read (``WHERE id = ?``): generated index probe + one page
  fetch, against a full staged scan;
* a point UPDATE (``SET balance = ? WHERE id = ?``): locate through the
  index, overwrite the tuple in place, patch no index entry (the key is
  unchanged), against a scan of every page plus a page rewrite — and,
  so that the comparison isolates the access path, the unindexed table
  has no tree to rebuild either.

Both sides run the identical prepared statements through the identical
service path; rows are asserted equal before any timing counts, and the
indexed table's index↔heap check runs after the writes.

The run writes ``BENCH_index.json`` (a CI artifact).  Acceptance
gates: ``point_speedup`` ≥ 10× and
``update_speedup`` ≥ 50× — the measured headroom is several times that
(both grow with the table: one side is O(log n), the other O(n)).
"""

from __future__ import annotations

import json
import os
import random
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
from repro.storage import Column, DOUBLE, INT, char

ROWS = {"tiny": 5_000, "small": 20_000, "medium": 80_000}.get(
    BENCH_SCALE, 20_000
)
ROUNDS = 5
#: Statements per timed batch; the fastest batch per side survives.
POINTS = 200
UPDATES = 20

POINT = "SELECT id, branch, balance, status FROM accounts WHERE id = ?"
UPDATE = "UPDATE accounts SET balance = ? WHERE id = ?"


def _build(indexed: bool) -> Database:
    rng = random.Random(20100301)
    db = Database()
    db.create_table("accounts", [
        Column("id", INT), Column("branch", INT),
        Column("balance", DOUBLE), Column("status", char(8)),
    ])
    db.load_rows("accounts", [
        (i, rng.randrange(100), rng.randrange(400_000) / 4, "open")
        for i in range(ROWS)
    ])
    if indexed:
        db.create_index("accounts", "id")
    db.analyze()
    return db


@pytest.fixture(scope="module")
def pair():
    indexed, plain = _build(True), _build(False)
    yield indexed, plain
    indexed.close()
    plain.close()


def _batch(statement, params: list[tuple]) -> float:
    started = time.perf_counter()
    for values in params:
        statement.execute(values)
    return (time.perf_counter() - started) / len(params)


@pytest.fixture(scope="module")
def index_report(pair):
    indexed, plain = pair
    rng = random.Random(7)
    statements = {
        side: (db.prepare(POINT), db.prepare(UPDATE))
        for side, db in (("indexed", indexed), ("plain", plain))
    }
    # Same answers first; these executions also warm both plan caches.
    for _ in range(20):
        key = (rng.randrange(-5, ROWS + 5),)
        assert statements["indexed"][0].execute(key) == (
            statements["plain"][0].execute(key)
        )
    best = {"indexed": [float("inf")] * 2, "plain": [float("inf")] * 2}
    for _ in range(ROUNDS):
        points = [(rng.randrange(ROWS),) for _ in range(POINTS)]
        updates = [
            (rng.randrange(400_000) / 4, rng.randrange(ROWS))
            for _ in range(UPDATES)
        ]
        for side, (point, update) in statements.items():
            best[side][0] = min(best[side][0], _batch(point, points))
            best[side][1] = min(best[side][1], _batch(update, updates))
    # Both sides applied the same writes.
    assert sorted(indexed.table("accounts").scan_rows()) == sorted(
        plain.table("accounts").scan_rows()
    )
    indexed.table("accounts").check_indexes()
    assert "index: 1 rids" in "; ".join(indexed.last_exec_stats().notes)

    report = {
        "point_indexed_ms": best["indexed"][0] * 1e3,
        "point_scan_ms": best["plain"][0] * 1e3,
        "point_speedup": best["plain"][0] / best["indexed"][0],
        "update_indexed_ms": best["indexed"][1] * 1e3,
        "update_scan_ms": best["plain"][1] * 1e3,
        "update_speedup": best["plain"][1] / best["indexed"][1],
        "rows": ROWS,
        "cpu_count": os.cpu_count(),
        "scale": BENCH_SCALE,
    }
    result = ExperimentResult(
        name=f"Index access paths: {ROWS} accounts, B+-tree on id vs none",
        headers=["statement", "indexed ms", "scan ms", "speedup"],
    )
    result.add(
        "point read", report["point_indexed_ms"], report["point_scan_ms"],
        report["point_speedup"],
    )
    result.add(
        "point update", report["update_indexed_ms"],
        report["update_scan_ms"], report["update_speedup"],
    )
    result.note(
        f"Prepared statements through the query service, best of {ROUNDS} "
        f"rounds of {POINTS} reads / {UPDATES} updates; rows and final "
        f"table contents identical on both sides."
    )
    save_result(result)
    save_bench_json("BENCH_index.json", report)
    return report


def test_report_written(index_report):
    path = os.path.join(RESULTS_DIR, "BENCH_index.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["rows"] == ROWS
    assert payload["point_speedup"] > 0 and payload["update_speedup"] > 0


def test_index_paths_meet_speedup_gates(index_report):
    """Acceptance: point reads ≥10×, point updates ≥50× over the scan."""
    assert index_report["point_speedup"] >= 10.0, index_report
    assert index_report["update_speedup"] >= 50.0, index_report
