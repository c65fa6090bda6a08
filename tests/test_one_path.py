"""One composing function runs every plan, traced or not.

The generated ``run_query(ctx, acc)`` is what the engine calls for an
untraced run and for a run the memory-hierarchy probe traces.  The two
differ only where the modules do: an untraced O2 module fuses a
scan→consumer pair into the consumer's page loop and probes an index
first, while a traced module keeps the paper's staged pair and scans.
So a traced run returns the untraced run's rows, and calls the same
generated functions in the same order once those two differences are
set aside.
"""

from __future__ import annotations

import sys

import pytest

from repro import Column, Database, DOUBLE, INT, char
from repro.bench.tpch import QUERIES
from repro.core.engine import HiqueEngine
from repro.memsim import Probe
from repro.plan.descriptors import ScanStage

OLTP = {
    "point": (
        "SELECT a.id AS id, a.branch AS branch, a.balance AS balance, "
        "a.status AS status FROM accounts a WHERE a.id = ?"
    ),
    "join": (
        "SELECT a.id AS id, a.balance AS balance, b.name AS name, "
        "b.region AS region FROM accounts a, branches b "
        "WHERE a.branch = b.bid AND a.id = ?"
    ),
}


@pytest.fixture(scope="module")
def oltp_db():
    db = Database()
    db.create_table("accounts", [
        Column("id", INT), Column("branch", INT),
        Column("balance", DOUBLE), Column("status", char(8)),
    ])
    db.create_table("branches", [
        Column("bid", INT), Column("region", INT), Column("name", char(16)),
    ])
    statuses = ("open", "hold", "vip")
    db.load_rows("accounts", [
        (i, (i * 7) % 40, (i * 37 % 4000) / 4, statuses[i % 3])
        for i in range(3000)
    ])
    db.load_rows("branches", [(b, b % 7, f"branch{b:03d}") for b in range(40)])
    db.table("accounts").create_index("id")
    db.analyze()
    yield db
    db.close()


def _calls(engine, prepared, **kwargs) -> tuple[list, list[str]]:
    """``(rows, names of the generated functions called, in order)``."""
    path = prepared.compiled.source_path
    names: list[str] = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename == path
            and not code.co_name.startswith("<")
        ):
            names.append(code.co_name)

    sys.setprofile(profile)
    try:
        rows = engine.execute_prepared(prepared, **kwargs)
    finally:
        sys.setprofile(None)
    return rows, names


def _assert_one_path(engine: HiqueEngine, sql: str, params=()) -> None:
    untraced = engine.prepare(sql)
    traced = engine.prepare(sql, traced=True)
    rows, called = _calls(engine, untraced, params=params)
    traced_rows, traced_called = _calls(
        engine, traced, probe=Probe(), params=params
    )
    assert repr(traced_rows) == repr(rows)
    assert called[0] == "run_query" == traced_called[0]
    # An index probe answers where the traced module scans.
    scanned = [
        name.removesuffix("_fetch")
        for name in called
        if not name.endswith("_probe")
    ]
    # A scan the untraced run fused into its consumer ran no staging
    # function of its own; the traced module stages it.
    plan = untraced.plan
    names = untraced.generated.function_names
    fused = {
        names[op.op_id]
        for op in plan.operators
        if isinstance(op, ScanStage)
        and plan.fusable_consumer(op) is not None
        and names[op.op_id] not in scanned
    }
    assert scanned == [name for name in traced_called if name not in fused]


@pytest.mark.parametrize("query", ["Q1", "Q3", "Q10"])
def test_tpch_traced_runs_take_the_untraced_path(tpch_db, query):
    engine = HiqueEngine(tpch_db.catalog)
    try:
        _assert_one_path(engine, QUERIES[query])
    finally:
        engine.close()


@pytest.mark.parametrize("template", sorted(OLTP))
@pytest.mark.parametrize("key", [7, 2999, -1])
def test_oltp_traced_runs_take_the_untraced_path(oltp_db, template, key):
    engine = HiqueEngine(oltp_db.catalog)
    try:
        _assert_one_path(engine, OLTP[template], params=(key,))
    finally:
        engine.close()


def test_the_untraced_run_fuses_and_probes_where_the_traced_one_stages(
    oltp_db, tpch_db
):
    """The normalisation above is not vacuous: Q1 fuses its scan, and
    the point read probes the index."""
    engine = HiqueEngine(tpch_db.catalog)
    prepared = engine.prepare(QUERIES["Q1"])
    _, called = _calls(engine, prepared)
    assert called == ["run_query", "aggregate_o1", "order_o2"]
    engine = HiqueEngine(oltp_db.catalog)
    prepared = engine.prepare(OLTP["point"])
    _, called = _calls(engine, prepared, params=(5,))
    assert called[:3] == ["run_query", "stage_o0_probe", "stage_o0_fetch"]


def test_a_traced_run_reports_its_phases_and_asks_no_cache(tpch_db):
    engine = HiqueEngine(tpch_db.catalog)
    prepared = engine.prepare(QUERIES["Q3"], traced=True)
    engine.execute_prepared(prepared, probe=Probe())
    stats = engine.last_exec_stats
    assert stats.reason.startswith("traced execution")
    assert stats.recycled == ""
    assert [phase.name for phase in stats.phases] == [
        "stage", "join", "aggregate", "final"
    ]
