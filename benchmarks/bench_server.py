"""Load harness for the TCP query server.

Drives hundreds of concurrent client connections (thousands of
queries) against one in-process :class:`repro.server.QueryServer`
over loopback, with the mixed workload a real service sees:

* **hot** statements — every client prepares the same shape once and
  re-executes it with churning parameters, exercising the
  prepared-handle path and the process-wide plan cache;
* **cold** statements — a rotating pool of one-off query shapes whose
  select-list literals force fresh compilations mid-flight;
* **occasional errors** — deliberately broken SQL that must come back
  as a *typed* ``bind`` response without costing the connection.

Every successful row set is verified byte-identical to a direct
in-process :meth:`Database.execute` of the same statement before any
number is reported.  The run then saturates admission on purpose and
checks backpressure arrives as typed ``over_capacity`` responses.

The run writes ``BENCH_server.json`` (a CI artifact) with ``qps``,
``p50_ms`` and ``p99_ms``.

Scale via ``REPRO_BENCH_SCALE``: ``tiny`` = 100 clients (quick local
sanity), ``small`` = 600 (default; covers the >=500-connection
acceptance floor), ``medium`` = 2000.
"""

from __future__ import annotations

import asyncio
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
from repro.errors import AdmissionError, BindError
from repro.server import AsyncQueryClient
from repro.storage import Catalog, Column, DOUBLE, INT, Schema

#: scale → (concurrent clients, queries per client).
SCALES = {
    "tiny": (100, 12),
    "small": (600, 16),
    "medium": (2000, 20),
}
CLIENTS, QUERIES_PER_CLIENT = SCALES.get(BENCH_SCALE, SCALES["small"])

NUM_KEYS = 8
NUM_ROWS = 512
#: Distinct cold statement shapes (each is its own plan-cache entry).
COLD_SHAPES = 16
#: At most this many TCP connects in flight at once — the listen
#: backlog is finite; the fleet still ends fully connected.
CONNECT_RAMP = 64

HOT_SQL = "SELECT a, b FROM t WHERE k = ?"


def cold_sql(shape: int) -> str:
    # The select-list literal lands in the plan-cache key, so every
    # distinct shape compiles fresh on first use: a cold statement.
    return f"SELECT a + {shape} AS s, b FROM t WHERE k = ?"


@pytest.fixture(scope="module")
def server_db():
    catalog = Catalog()
    table = catalog.create_table(
        "t",
        Schema(
            [
                Column("a", INT),
                Column("b", DOUBLE),
                Column("k", INT),
            ]
        ),
    )
    table.load_rows(
        (i, (i * 7919 % 1000) / 7.0, i % NUM_KEYS)
        for i in range(NUM_ROWS)
    )
    catalog.analyze()
    db = Database(catalog=catalog, max_workers=8)
    # Throughput phase should measure latency, not admission refusals;
    # the overload phase tightens this knob back down deliberately.
    db.service.max_pending = 65536
    yield db
    db.close()


async def _run_fleet(handle, expected_hot, expected_cold):
    """All clients connect, rendezvous, then query concurrently.

    Returns (hot latencies, wall seconds, counters, peak connections).
    """
    barrier = asyncio.Barrier(CLIENTS + 1)
    ramp = asyncio.Semaphore(CONNECT_RAMP)
    hot_latencies: list[float] = []
    counters = {"ok": 0, "cold_ok": 0, "bind_errors": 0}

    async def one_client(i: int) -> None:
        async with ramp:
            client = await AsyncQueryClient.connect(*handle.address)
        try:
            statement = await client.prepare(HOT_SQL)
            await barrier.wait()  # everyone is connected before load
            for j in range(QUERIES_PER_CLIENT):
                key = (i * 31 + j) % NUM_KEYS
                if (i + j) % 11 == 3:
                    shape = (i * 7 + j) % COLD_SHAPES
                    rows = await client.query(
                        cold_sql(shape), params=[key]
                    )
                    assert rows == expected_cold[shape, key]
                    counters["cold_ok"] += 1
                elif (i + j) % 23 == 5:
                    try:
                        await client.query("SELECT nope FROM t")
                    except BindError:
                        counters["bind_errors"] += 1
                else:
                    started = time.perf_counter()
                    rows = await client.execute(statement, [key])
                    hot_latencies.append(
                        time.perf_counter() - started
                    )
                    assert rows == expected_hot[key]
                    counters["ok"] += 1
        finally:
            await client.close()

    tasks = [
        asyncio.create_task(one_client(i)) for i in range(CLIENTS)
    ]
    await barrier.wait()
    peak_connections = handle.stats().connections_active
    started = time.perf_counter()
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    return hot_latencies, wall, counters, peak_connections


async def _overload_probe(handle, attempts: int = 32) -> int:
    """Hammer a zero-capacity pool; count typed over_capacity answers."""
    rejected = 0

    async def one(i: int) -> None:
        nonlocal rejected
        async with await AsyncQueryClient.connect(
            *handle.address
        ) as client:
            try:
                await client.query(
                    HOT_SQL.replace("?", str(i % NUM_KEYS))
                )
            except AdmissionError:
                rejected += 1

    await asyncio.gather(*(one(i) for i in range(attempts)))
    return rejected


def _percentile(sorted_values: list[float], q: float) -> float:
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


@pytest.fixture(scope="module")
def server_report(server_db):
    expected_hot = {
        k: server_db.execute(HOT_SQL, params=(k,))
        for k in range(NUM_KEYS)
    }
    expected_cold = {
        (shape, k): server_db.execute(cold_sql(shape), params=(k,))
        for shape in range(COLD_SHAPES)
        for k in range(NUM_KEYS)
    }
    handle = server_db.serve()
    try:
        latencies, wall, counters, peak = asyncio.run(
            _run_fleet(handle, expected_hot, expected_cold)
        )
        total_ok = counters["ok"] + counters["cold_ok"]

        server_db.service.max_pending = 0
        try:
            rejected = asyncio.run(_overload_probe(handle))
        finally:
            server_db.service.max_pending = 65536
        server_stats = handle.stats()
    finally:
        handle.stop()

    latencies.sort()
    payload = {
        "clients": CLIENTS,
        "queries_per_client": QUERIES_PER_CLIENT,
        "peak_connections": peak,
        "queries_ok": total_ok,
        "hot_queries": counters["ok"],
        "cold_queries": counters["cold_ok"],
        "bind_errors": counters["bind_errors"],
        "over_capacity_rejections": rejected,
        "qps": total_ok / wall,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "wall_seconds": wall,
        "server_errors": server_stats.errors,
    }

    result = ExperimentResult(
        name="Query server under load: mixed hot/cold statements "
        f"({CLIENTS} concurrent connections)",
        headers=["metric", "value"],
    )
    result.add("concurrent connections (peak)", peak)
    result.add("queries completed", total_ok)
    result.add("QPS", payload["qps"])
    result.add("p50 latency (ms)", payload["p50_ms"])
    result.add("p99 latency (ms)", payload["p99_ms"])
    result.note(
        f"{CLIENTS} async clients x {QUERIES_PER_CLIENT} queries over "
        f"loopback NDJSON; every row set verified byte-identical to a "
        f"direct Database.execute before timing counts. Workload mixes "
        f"prepared-handle reuse ({counters['ok']} hot), fresh "
        f"compilations ({counters['cold_ok']} cold across "
        f"{COLD_SHAPES} shapes), and {counters['bind_errors']} "
        f"deliberate bind errors answered as typed responses."
    )
    save_result(result)

    save_bench_json("BENCH_server.json", payload)
    return payload


def test_report_written(server_report):
    path = os.path.join(RESULTS_DIR, "BENCH_server.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["clients"] == CLIENTS
    assert payload["qps"] > 0
    assert payload["p99_ms"] >= payload["p50_ms"]


def test_sustains_concurrent_connection_floor(server_report):
    """Acceptance: the harness holds every client connected at once
    (>= 500 concurrent at the default scale and above)."""
    assert server_report["peak_connections"] >= CLIENTS


def test_every_admitted_query_completed(server_report):
    expected_errors = (
        server_report["bind_errors"]
        + server_report["over_capacity_rejections"]
    )
    assert server_report["queries_ok"] > 0
    assert server_report["server_errors"] == expected_errors


def test_saturation_answers_typed_over_capacity(server_report):
    """A zero-capacity pool refuses loudly, it does not drop sockets."""
    assert server_report["over_capacity_rejections"] > 0
