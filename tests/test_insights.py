"""Workload insights: digests, slow-query log and profiles.

Covers digest normalization (different literals → one digest) and
exact count consistency under a multi-threaded session-pool hammer,
DDL resets, bounded retention with memory measured, reconciliation of
digest totals against per-query results, watchdog surfacing in both
``ServiceStats`` and the digest store, profile folding, the EXPLAIN
ANALYZE polish (buffer hit-rate %, serial-fallback flags), the shell
``.insights`` / ``.slow`` commands.
"""

import io
import random
import threading
import time

import pytest

from repro import Column, Database, DOUBLE, INT, char
from repro.cli import Shell
from repro.errors import ExecutionError, WatchdogTimeout
from repro.obs import Tracer
from repro.obs.insights import (
    SLOW_MS_ENV,
    DigestStore,
    SlowQueryLog,
    WorkloadInsights,
    default_slow_threshold_seconds,
)
from repro.obs.profile import ProfileAggregator
from repro.obs.trace import Trace
from repro.parallel.backend import ThreadBackend

POINT_SQL = "SELECT a, b FROM t WHERE a = ?"
AGG_SQL = "SELECT a, sum(b) AS s FROM t GROUP BY a ORDER BY a"


def _make_db(rows: int = 400, **kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table(
        "t", [Column("a", INT), Column("b", DOUBLE), Column("c", char(4))]
    )
    db.load_rows(
        "t", [(i % 40, i * 0.5, f"g{i % 3}") for i in range(rows)]
    )
    db.analyze()
    return db


# -- digest store (unit) ---------------------------------------------------------


class TestDigestStore:
    def test_lru_eviction_within_capacity(self):
        store = DigestStore(capacity=2)
        store.record("hique", "S1", 0.1)
        store.record("hique", "S2", 0.1)
        store.record("hique", "S1", 0.1)  # S1 now most recent
        store.record("hique", "S3", 0.1)  # evicts S2
        assert len(store) == 2
        assert store.evictions == 1
        assert store.get("hique", "S2") is None
        assert store.get("hique", "S1").calls == 2

    def test_engines_get_separate_digests(self):
        store = DigestStore()
        store.record("hique", "S", 0.1)
        store.record("volcano", "S", 0.2)
        assert len(store) == 2
        assert store.get("hique", "S").digest_id != (
            store.get("volcano", "S").digest_id
        )

    def test_aggregation_math(self):
        store = DigestStore()
        for seconds, rows in ((0.010, 5), (0.030, 7), (0.020, 1)):
            store.record(
                "hique", "S", seconds, rows=rows, cache_hit=seconds > 0.01
            )
        digest = store.get("hique", "S")
        assert digest.calls == 3
        assert digest.rows == 13
        assert digest.total_seconds == pytest.approx(0.060)
        assert digest.mean_seconds == pytest.approx(0.020)
        assert digest.min_seconds == pytest.approx(0.010)
        assert digest.max_seconds == pytest.approx(0.030)
        assert digest.cache_lookups == 3
        assert digest.cache_hits == 2
        assert 0.010 <= digest.p95_seconds <= 0.050
        payload = digest.to_dict()
        assert payload["calls"] == 3
        assert payload["statement"] == "S"

    def test_reset_clears_but_keeps_recorded_total(self):
        store = DigestStore()
        store.record("hique", "S", 0.1)
        store.reset()
        assert len(store) == 0
        assert store.resets == 1
        assert store.recorded == 1
        store.reset()  # resetting an empty store is not a reset event
        assert store.resets == 1


class TestSlowQueryLog:
    def test_threshold_filters_and_counts(self):
        log = SlowQueryLog(threshold_seconds=0.1, keep=4)
        assert not log.record(0.05, "hique", "FAST")
        assert log.record(0.2, "hique", "SLOW")
        assert log.observed == 1  # only over-threshold queries count
        assert len(log) == 1

    def test_keeps_exactly_the_slowest(self):
        rng = random.Random(7)
        values = [i / 1000.0 for i in range(1, 101)]
        rng.shuffle(values)
        log = SlowQueryLog(threshold_seconds=0.0, keep=5)
        for value in values:
            log.record(value, "hique", f"Q{value}")
        entries = log.entries()
        assert [e.seconds for e in entries] == pytest.approx(
            [0.100, 0.099, 0.098, 0.097, 0.096]
        )
        assert log.observed == 100

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv(SLOW_MS_ENV, "250")
        assert default_slow_threshold_seconds() == pytest.approx(0.25)
        monkeypatch.setenv(SLOW_MS_ENV, "not-a-number")
        assert default_slow_threshold_seconds() == pytest.approx(0.1)
        monkeypatch.delenv(SLOW_MS_ENV)
        assert default_slow_threshold_seconds() == pytest.approx(0.1)

    def test_render_lists_slowest_first(self):
        log = SlowQueryLog(threshold_seconds=0.0, keep=4)
        log.record(0.010, "hique", "Q1", rows=3)
        log.record(0.500, "volcano", "Q2", error="boom")
        text = log.render_text()
        lines = text.splitlines()
        assert "slow-query log" in lines[0]
        assert "Q2" in lines[1] and "error=boom" in lines[1]
        assert "Q1" in lines[2]


def test_bounded_retention_10k_queries_memory_measured():
    """A 10k-query run keeps ≤N slow traces and ≤capacity digests.

    Every query here has a distinct statement shape (worst case for
    the LRU) and carries a span tree into the slow log; traced memory
    growth must stay bounded by the caps, not the query count.
    """
    import tracemalloc

    store = DigestStore(capacity=64)
    log = SlowQueryLog(threshold_seconds=0.0, keep=8)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for i in range(10_000):
        key = f"SELECT a FROM t WHERE col_{i} = ?"
        seconds = (i % 100) / 1000.0
        store.record("hique", key, seconds, rows=i % 7)
        trace = Trace("query")
        trace.root.child("ScanStage o1", "node").finish()
        trace.finish()
        log.record(seconds + 1e-6, "hique", key, trace=trace)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(store) == 64
    assert store.evictions == 10_000 - 64
    assert store.recorded == 10_000
    assert len(log) == 8
    assert log.observed == 10_000
    retained_traces = sum(
        1 for entry in log.entries() if entry.trace is not None
    )
    assert retained_traces <= 8
    growth = after - before
    assert growth < 4 * 1024 * 1024, f"retention leaked {growth} bytes"


# -- end-to-end through the service ----------------------------------------------


class TestServiceIntegration:
    def test_different_literals_share_one_digest(self):
        db = _make_db()
        try:
            db.execute("SELECT a, b FROM t WHERE a = 1")
            db.execute("SELECT a, b FROM t WHERE a = 2")
            db.execute("SELECT a, b FROM t WHERE a = 3")
            digests = db.insights().digests.top()
            assert len(digests) == 1
            digest = digests[0]
            assert digest.calls == 3
            assert "?" in digest.key
            # warm repeats hit the plan cache; the first call missed
            assert digest.cache_lookups == 3
            assert digest.cache_hits == 2
        finally:
            db.close()

    def test_totals_reconcile_with_per_query_results(self):
        db = _make_db()
        try:
            statement = db.prepare(AGG_SQL)
            total_rows = 0
            for _ in range(5):
                rows = statement.execute()
                stats = db.last_exec_stats("hique")
                assert stats is not None and stats.rows == len(rows)
                total_rows += len(rows)
            digest = db.insights().digests.get("hique", statement.key)
            assert digest is not None
            assert digest.calls == 5
            assert digest.rows == total_rows
            assert digest.backend in ("serial", "thread", "process")
            text = db.insights_text()
            assert digest.digest_id in text
            assert f"{digest.calls:>6}" in text
        finally:
            db.close()

    def test_ddl_resets_digests(self):
        db = _make_db()
        try:
            db.execute(AGG_SQL)
            insights = db.insights()
            assert len(insights.digests) == 1
            db.create_table("z", [Column("x", INT)])
            assert len(insights.digests) == 0
            assert insights.digests.resets >= 1
            # and the store keeps working after the reset
            db.execute(AGG_SQL)
            assert len(insights.digests) == 1
        finally:
            db.close()

    def test_errors_counted_per_digest(self):
        db = _make_db()
        try:
            sql = "SELECT a FROM t WHERE c = ?"
            statement = db.prepare(sql)
            statement.execute(("g0",))
            with pytest.raises(Exception):
                statement.execute((123,))  # wrong type for a CHAR param
            digest = db.insights().digests.get("hique", statement.key)
            assert digest.calls == 2
            assert digest.errors == 1
        finally:
            db.close()

    def test_session_pool_hammer_counts_exactly_consistent(self):
        db = _make_db(max_workers=4)
        try:
            statement = db.prepare(POINT_SQL)
            total = 0
            rows_expected = 0
            for _ in range(8):
                futures = [
                    db.service.submit(POINT_SQL, (i % 40,))
                    for i in range(25)
                ]
                for future in futures:
                    rows_expected += len(future.result())
                total += len(futures)
            digest = db.insights().digests.get("hique", statement.key)
            assert digest is not None
            assert digest.calls == total
            assert digest.rows == rows_expected
            assert digest.errors == 0
            assert db.insights().digests.recorded == total
        finally:
            db.close()

    def test_insights_disabled_records_nothing(self):
        db = _make_db(insights=False)
        try:
            db.execute(AGG_SQL)
            assert len(db.insights().digests) == 0
            assert "no executions recorded" in db.insights_text()
            db.set_insights(True)
            db.execute(AGG_SQL)
            assert len(db.insights().digests) == 1
        finally:
            db.close()

    def test_slow_log_retains_trace_through_service(self):
        db = _make_db()
        try:
            db.insights().slow.threshold_seconds = 0.0
            db.set_trace(True)
            db.execute(AGG_SQL)
            db.set_trace(False)
            entries = db.insights().slow.entries()
            assert entries
            assert entries[0].trace is not None
            assert entries[0].trace.root.find("execute") is not None
        finally:
            db.close()

    def test_metrics_expose_digests_and_watchdog_counter(self):
        db = _make_db()
        try:
            db.execute(AGG_SQL)
            text = db.metrics_text()
            assert "repro_digest_store_size 1" in text
            assert "repro_digest_calls_total" in text
            assert "repro_service_watchdog_abandonments_total 0" in text
        finally:
            db.close()

    def test_close_unregisters_insights(self):
        db = _make_db()
        registry = db.obs.registry
        db.execute(AGG_SQL)
        db.close()
        assert "repro_digest_store_size" not in registry.render_text()


def test_end_to_end_retention_stays_bounded():
    """2k real queries: slow log and profile stay within their caps."""
    db = _make_db(rows=80)
    try:
        insights = db.insights()
        insights.slow.threshold_seconds = 0.0
        statement = db.prepare(POINT_SQL)
        for i in range(2000):
            statement.execute((i % 40,))
        assert insights.slow.observed == 2000
        assert len(insights.slow) <= insights.slow.keep
        assert len(insights.digests) == 1
        digest = insights.digests.get("hique", statement.key)
        assert digest.calls == 2000
    finally:
        db.close()


# -- watchdog surfacing -----------------------------------------------------------


def test_thread_backend_timeout_is_watchdog_timeout():
    stall = threading.Event()
    backend = ThreadBackend(workers=2, task_timeout=0.3)
    try:
        with pytest.raises(WatchdogTimeout, match="task_timeout"):
            backend.run_thunks([lambda: stall.wait(30)], workers=2)
    finally:
        stall.set()
        backend.close()


def test_watchdog_surfaces_in_digest_and_service_stats():
    db = _make_db()
    try:
        statement = db.prepare(POINT_SQL)
        statement.execute((1,))
        engine = db.engine("hique")
        original = engine.execute_prepared

        def wedged(*args, **kwargs):
            raise WatchdogTimeout(
                "parallel task exceeded task_timeout=0.1s (simulated)"
            )

        engine.execute_prepared = wedged
        try:
            with pytest.raises(ExecutionError, match="task_timeout"):
                statement.execute((2,))
        finally:
            engine.execute_prepared = original
        stats = db.service.stats()
        assert stats.watchdog_abandonments == 1
        digest = db.insights().digests.get("hique", statement.key)
        assert digest.calls == 2
        assert digest.errors == 1
        assert digest.watchdog_timeouts == 1
        assert "repro_service_watchdog_abandonments_total 1" in (
            db.metrics_text()
        )
    finally:
        db.close()


# -- operator profiles ------------------------------------------------------------


class TestProfileAggregator:
    def test_folds_op_ids_and_queue_wait(self):
        tracer = Tracer(enabled=True)
        aggregator = ProfileAggregator()
        tracer.add_trace_listener(aggregator.add_trace)
        try:
            with tracer.span("query", "service"):
                with tracer.span(
                    "ScanStage o1+Aggregate o2", "node", rows=10
                ) as node:
                    for index, wait in ((1, 0.5), (2, 0.25)):
                        task = node.child(
                            f"task {index}", "task", queue_seconds=wait
                        )
                        task.finish()
            with tracer.span("query", "service"):
                with tracer.span("ScanStage o7+Aggregate o9", "node"):
                    pass
        finally:
            tracer.enabled = False
        assert aggregator.traces == 2
        kinds = {t.kind: t for t in aggregator.kind_totals()}
        assert kinds["ScanStage+Aggregate"].spans == 2
        assert kinds["ScanStage+Aggregate"].tasks == 2
        assert kinds["queue-wait"].seconds == pytest.approx(0.75)
        assert kinds["task"].spans == 2
        text = aggregator.render_text()
        assert "ScanStage+Aggregate" in text
        assert "2 trace(s) folded" in text

    def test_child_fanout_is_bounded(self):
        aggregator = ProfileAggregator()
        for i in range(100):
            trace = Trace("query")
            trace.root.child(f"weird-{i}-name", "node").finish()
            trace.finish()
            aggregator.add_trace(trace)
        query_node = aggregator.root.children["query"]
        # MAX_CHILDREN distinct names plus the <other> overflow bucket
        assert len(query_node.children) <= query_node.MAX_CHILDREN + 1
        assert "<other>" in query_node.children
        folded = query_node.children["<other>"]
        assert folded.count == 100 - query_node.MAX_CHILDREN

    def test_reset(self):
        aggregator = ProfileAggregator()
        trace = Trace("query")
        trace.finish()
        aggregator.add_trace(trace)
        aggregator.reset()
        assert aggregator.traces == 0
        assert "no traces folded" in aggregator.render_text()

    def test_database_profile_fed_by_tracing(self):
        db = _make_db()
        try:
            db.explain_analyze(AGG_SQL)
            profile = db.insights().profile
            assert profile.traces >= 1
            kinds = {t.kind for t in profile.kind_totals()}
            assert "prepare:compile" in kinds or "execute" in kinds
        finally:
            db.close()


def test_trace_listener_errors_are_swallowed():
    tracer = Tracer(enabled=True)

    def bad_listener(trace):
        raise RuntimeError("listener boom")

    tracer.add_trace_listener(bad_listener)
    try:
        with tracer.span("query", "service"):
            pass
        assert tracer.listener_errors == 1
        tracer.remove_trace_listener(bad_listener)
        with tracer.span("query", "service"):
            pass
        assert tracer.listener_errors == 1
    finally:
        tracer.enabled = False


# -- EXPLAIN ANALYZE polish --------------------------------------------------------


def test_explain_analyze_hit_rate_and_serial_fallback_flags(scheduled):
    db = _make_db(rows=100)  # tiny table: every operator stays serial
    try:
        text = db.explain_analyze(AGG_SQL)
        assert "% hit)" in text
        assert "serial-fallback[" in text
        assert "buffer=" in text
    finally:
        db.close()


# -- shell commands ----------------------------------------------------------------


def _make_shell() -> Shell:
    shell = Shell(stdout=io.StringIO())
    shell.db.create_table("t", [Column("a", INT), Column("b", DOUBLE)])
    shell.db.load_rows("t", [(i % 10, float(i)) for i in range(100)])
    shell.db.analyze()
    return shell


class TestShellCommands:
    def test_insights_renders_digest_table(self):
        shell = _make_shell()
        try:
            shell.handle("SELECT a, sum(b) AS s FROM t GROUP BY a")
            shell.handle(".insights")
            output = shell.stdout.getvalue()
            assert "workload insights" in output
            assert "slow-query log" in output
            shell.handle(".insights not-a-number")
            assert "usage: .insights" in shell.stdout.getvalue()
        finally:
            shell.db.close()

    def test_insights_reset(self):
        shell = _make_shell()
        try:
            shell.handle("SELECT a FROM t WHERE a = 1")
            shell.handle(".insights reset")
            assert "workload insights reset" in shell.stdout.getvalue()
            assert len(shell.db.insights().digests) == 0
        finally:
            shell.db.close()

    def test_slow_log_command(self):
        shell = _make_shell()
        try:
            shell.db.insights().slow.threshold_seconds = 0.0
            shell.handle("SELECT a FROM t WHERE a = 2")
            shell.handle(".slow")
            output = shell.stdout.getvalue()
            assert "slow-query log" in output
            shell.handle(".slow clear")
            assert "slow-query log cleared" in shell.stdout.getvalue()
            assert len(shell.db.insights().slow) == 0
        finally:
            shell.db.close()

    def test_help_mentions_new_commands(self):
        shell = _make_shell()
        try:
            shell.handle(".help")
            output = shell.stdout.getvalue()
            assert ".insights" in output
            assert ".slow" in output
        finally:
            shell.db.close()


# -- insight record overhead guard -------------------------------------------------


def test_insights_record_path_is_cheap():
    """Sanity bound: one digest record stays in the microsecond range."""
    store = DigestStore()
    started = time.perf_counter()
    count = 20_000
    for i in range(count):
        store.record(
            "hique", "S", 0.0001, rows=1, cache_hit=True, backend="serial"
        )
    per_record = (time.perf_counter() - started) / count
    assert per_record < 50e-6, f"record path too slow: {per_record:.2e}s"
