"""Observability: metrics registry, span tracing, EXPLAIN ANALYZE.

Covers the histogram percentile math against an exact reference, span
nesting of a run's operator nodes, result invariance with tracing
on, Chrome trace export validity, and the Prometheus text rendering.
"""

import json
import math
import random
import time

import pytest

from repro import Column, Database, INT, DOUBLE, char
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)

ALL_ENGINES = (
    "hique", "hique-o0", "volcano", "volcano-generic",
    "systemx", "vectorized",
)

JOIN_AGG_SQL = (
    "SELECT t.a, sum(u.c) AS s FROM t, u WHERE t.a = u.a "
    "GROUP BY t.a ORDER BY t.a"
)


def _make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table(
        "t", [Column("a", INT), Column("b", DOUBLE), Column("c", char(4))]
    )
    db.create_table("u", [Column("a", INT), Column("c", DOUBLE)])
    db.load_rows(
        "t", [(i % 40, i * 0.5, f"g{i % 3}") for i in range(4000)]
    )
    db.load_rows("u", [(i % 40, float(i)) for i in range(1000)])
    db.analyze()
    return db


# -- histograms -----------------------------------------------------------------


class TestHistogram:
    def test_buckets_are_increasing(self):
        buckets = list(default_latency_buckets())
        assert buckets == sorted(buckets)
        assert len(buckets) == len(set(buckets))

    def test_percentiles_against_reference(self):
        """Interpolated percentiles land within one bucket of exact.

        The buckets step by 2–2.5x, so the guarantee is bucket
        resolution, not tight relative error: the estimate must fall
        between the exact value's bucket bounds.
        """
        rng = random.Random(1234)
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds")
        samples = [rng.lognormvariate(-7.0, 1.5) for _ in range(5000)]
        for value in samples:
            hist.observe(value)
        samples.sort()
        buckets = default_latency_buckets()
        for q in (0.5, 0.95, 0.99):
            exact = samples[min(int(q * len(samples)), len(samples) - 1)]
            estimate = hist.percentile(q)
            lower = max(
                [b for b in buckets if b <= exact], default=0.0
            )
            upper = min(
                [b for b in buckets if b > exact],
                default=float("inf"),
            )
            # One bucket of slack either side covers boundary samples.
            idx_low = max(buckets.index(lower) - 1, 0) if lower else 0
            floor = buckets[idx_low - 1] if idx_low > 0 else 0.0
            assert floor <= estimate, (q, exact, estimate)
            if upper != float("inf"):
                above = [b for b in buckets if b > upper]
                ceil = above[0] if above else float("inf")
                assert estimate <= ceil, (q, exact, estimate)

    def test_histogram_tracks_extremes_and_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.007)
        assert hist._min == pytest.approx(0.001)
        assert hist._max == pytest.approx(0.004)
        assert hist.percentile(0.0) >= 0.0
        assert hist.percentile(1.0) == pytest.approx(0.004)

    def test_bucket_index_matches_the_bisection_loop(self):
        """``bisect_left`` picks the bucket the hand-written bisection
        picked, NaN (the +Inf bucket) included."""

        def loop_index(bounds, value):
            lo, hi = 0, len(bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        hist = Histogram("repro_test_seconds", ())
        bounds = default_latency_buckets()
        values = [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        for value in values:
            assert hist._bucket_index(value) == loop_index(bounds, value), (
                value
            )
        assert hist._bucket_index(math.nan) == len(bounds)
        assert hist._bucket_index(bounds[0]) == 0
        assert hist._bucket_index(math.nextafter(bounds[0], 1.0)) == 1

    def test_render_text_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", statement='SELECT "x"\nFROM t\\'
        ).inc()
        text = registry.render_text()
        assert '\\"x\\"' in text
        assert "\\n" in text
        assert "\\\\" in text


# -- span nesting under a run -------------------------------------------------------


class TestSpanNesting:
    def test_nodes_nest_under_query(self):
        db = _make_db(workers=2, trace=True)
        try:
            db.execute(JOIN_AGG_SQL)
            trace = db.last_trace()
            assert trace is not None
            root = trace.root
            query = root if root.category == "query" else root.find("query")
            assert query is not None
            execute = root.find("execute")
            assert execute is not None
            nodes = root.find_all(category="node")
            assert nodes, "no operator node spans recorded"
            # Every node span sits beneath the execute span.
            execute_spans = set(id(s) for s in execute.walk())
            for node in nodes:
                assert id(node) in execute_spans
                assert node.end is not None and node.end >= node.start
        finally:
            db.close()

    def test_serial_database_still_traces_engine_spans(self):
        db = _make_db(workers=1, trace=True)
        try:
            db.execute(JOIN_AGG_SQL)
            trace = db.last_trace()
            execute = trace.root.find("execute")
            assert execute is not None
            assert execute.attrs.get("rows") == 40
        finally:
            db.close()


# -- result invariance ----------------------------------------------------------


class TestTracingInvariance:
    def test_rows_identical_with_tracing_on(self):
        """Tracing must observe, never perturb: every engine returns
        byte-identical rows with spans on and off."""
        plain = _make_db(workers=2, trace=False)
        traced = _make_db(workers=2, trace=True)
        try:
            for engine in ALL_ENGINES:
                base = plain.execute(JOIN_AGG_SQL, engine=engine)
                seen = traced.execute(JOIN_AGG_SQL, engine=engine)
                assert base == seen, engine
                assert repr(base) == repr(seen), engine
        finally:
            plain.close()
            traced.close()

    def test_each_engine_records_an_execute_span(self):
        db = _make_db(workers=2, trace=True)
        try:
            for engine in ALL_ENGINES:
                db.execute(JOIN_AGG_SQL, engine=engine)
                trace = db.last_trace()
                execute = trace.root.find("execute")
                assert execute is not None, engine
                assert execute.attrs.get("engine") == engine
        finally:
            db.close()


# -- exports --------------------------------------------------------------------


class TestExports:
    def test_chrome_trace_is_valid_and_ordered(self):
        db = _make_db(workers=2, trace=True)
        try:
            db.execute(JOIN_AGG_SQL)
            trace = db.last_trace()
            payload = json.loads(trace.to_chrome_trace())
            events = payload["traceEvents"]
            assert events
            stamps = [event["ts"] for event in events]
            assert stamps == sorted(stamps)
            for event in events:
                assert event["ph"] == "X"
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert isinstance(event["pid"], int)
                assert isinstance(event["tid"], int)
        finally:
            db.close()

    def test_trace_json_roundtrips(self):
        db = _make_db(trace=True)
        try:
            db.execute("SELECT a FROM t WHERE a = 1")
            trace = db.last_trace()
            decoded = json.loads(trace.to_json())
            assert decoded["root"]["name"] == trace.root.name
            assert decoded["dropped_spans"] == 0
        finally:
            db.close()

    def test_metrics_text_covers_all_sources(self):
        db = _make_db(workers=2)
        try:
            db.execute(JOIN_AGG_SQL)
            db.execute(JOIN_AGG_SQL)
            text = db.metrics_text()
            assert "repro_query_seconds" in text
            assert "repro_plan_cache_hits_total 1" in text
            assert "repro_buffer_hits_total" in text
            assert "repro_service_queries_total 2" in text
            assert "repro_plan_cache_entry_hits" in text
        finally:
            db.close()

    def test_registries_are_per_database(self):
        one = _make_db()
        two = _make_db()
        try:
            two.service  # build it, so its collector is registered
            one.execute("SELECT a FROM t WHERE a = 1")
            assert "repro_service_queries_total 1" in one.metrics_text()
            assert "repro_service_queries_total 0" in two.metrics_text()
        finally:
            one.close()
            two.close()


# -- EXPLAIN ANALYZE ------------------------------------------------------------


class TestExplainAnalyze:
    def test_annotates_every_operator(self):
        db = _make_db(workers=2)
        try:
            text = db.explain_analyze(JOIN_AGG_SQL)
            assert "EXPLAIN ANALYZE" in text
            assert "ScanStage" in text
            assert "Aggregate" in text
            assert "rows=40" in text
            assert "execution:" in text
            assert "preparation:" in text
        finally:
            db.close()

    def test_operator_times_within_wall_clock(self):
        db = _make_db(workers=2, trace=True)
        try:
            started = time.perf_counter()
            db.explain_analyze(JOIN_AGG_SQL)
            wall = time.perf_counter() - started
            trace = db.last_trace()
            execute = trace.root.find("execute")
            assert execute.duration <= wall
            for node in trace.root.find_all(category="node"):
                assert node.duration <= execute.duration * 1.05
        finally:
            db.close()

    def test_execute_intercepts_explain_analyze(self):
        db = _make_db(workers=2)
        try:
            rows = db.execute("EXPLAIN ANALYZE " + JOIN_AGG_SQL)
            assert rows and all(len(row) == 1 for row in rows)
            assert rows[0][0].startswith("EXPLAIN ANALYZE")
        finally:
            db.close()

    def test_tracing_stays_off_after_explain_analyze(self):
        db = _make_db(workers=2, trace=False)
        try:
            db.explain_analyze(JOIN_AGG_SQL)
            assert db.trace_enabled is False
            db.execute(JOIN_AGG_SQL)
            # The EXPLAIN ANALYZE trace is still the last one recorded.
            assert db.last_trace().root.name == "explain_analyze"
        finally:
            db.close()
