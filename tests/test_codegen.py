"""Tests for the code generator, compiler, and generated-code behaviour."""

import os

import pytest

from repro.core.compiler import QueryCompiler
from repro.core.emitter import Emitter, GenContext, OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.core.generator import CodeGenerator
from repro.errors import CodegenError
from repro.plan.optimizer import Optimizer, PlannerConfig
from repro.sql.binder import Binder
from repro.sql.parser import parse


def generate(catalog, sql, opt_level=OPT_O2, traced=False, **config):
    bound = Binder(catalog).bind(parse(sql))
    plan = Optimizer(catalog, PlannerConfig(**config)).plan(bound)
    return CodeGenerator().generate(
        plan, name="test", opt_level=opt_level, traced=traced
    ), plan


class TestEmitter:
    def test_indentation_blocks(self):
        em = Emitter()
        with em.block("def f():"):
            em.emit("x = 1")
            with em.block("if x:"):
                em.emit("return x")
        source = em.source()
        assert "def f():\n    x = 1\n    if x:\n        return x" in source

    def test_unpacker_registry_dedupes(self):
        gen = GenContext()
        first = gen.unpacker("q")
        second = gen.unpacker("q")
        assert first == second
        assert len(gen.preamble_lines()) == 1

    def test_field_decode_string_strips(self):
        gen = GenContext()
        from repro.storage.types import char

        source = gen.field_decode(char(8), "data", "off + 4")
        assert "rstrip(_SP)" in source

    def test_bad_opt_level_rejected(self):
        with pytest.raises(CodegenError):
            GenContext(opt_level="O3")


class TestGeneratedSource:
    def test_source_compiles(self, simple_catalog):
        generated, _ = generate(
            simple_catalog, "SELECT a, b FROM t WHERE a < 10"
        )
        compile(generated.source, "<gen>", "exec")  # should not raise

    def test_function_per_operator(self, simple_catalog):
        generated, plan = generate(
            simple_catalog,
            "SELECT t.c, sum(u.d) AS s FROM t, u WHERE t.k = u.k "
            "GROUP BY t.c ORDER BY s",
        )
        for op_id, name in generated.function_names.items():
            assert f"def {name}(" in generated.source
        assert "def run_query(ctx, acc):" in generated.source

    def test_o2_inlines_predicates(self, simple_catalog):
        generated, _ = generate(
            simple_catalog, "SELECT a FROM t WHERE a < 10 AND k = 3"
        )
        # Inline comparisons over decoded field variables, no runtime
        # predicate call.
        assert "ctx.predicates" not in generated.source
        assert "< 10" in generated.source

    def test_o0_delegates_to_runtime(self, simple_catalog):
        generated, _ = generate(
            simple_catalog, "SELECT a FROM t WHERE a < 10", opt_level=OPT_O0
        )
        assert "_rt.scan_filter_project" in generated.source
        assert "ctx.predicates" in generated.source

    def test_traced_source_references_probe(self, simple_catalog):
        generated, _ = generate(
            simple_catalog, "SELECT a FROM t WHERE a < 10", traced=True
        )
        assert "_probe.load" in generated.source
        assert "_probe.instr" in generated.source

    def test_untraced_source_has_no_probe(self, simple_catalog):
        generated, _ = generate(simple_catalog, "SELECT a FROM t")
        assert "_probe" not in generated.source

    def test_map_aggregation_uses_offset_formula(self, simple_catalog):
        generated, _ = generate(
            simple_catalog,
            "SELECT c, k, count(*) AS n FROM t GROUP BY c, k",
            force_agg="map",
        )
        # Two directories and a scalar offset combination (Fig. 4).
        assert "dir0" in generated.source
        assert "dir1" in generated.source
        assert "_g = i0 *" in generated.source

    def test_join_team_emits_nested_loops(self):
        from repro.storage import Catalog, Column, INT, Schema

        catalog = Catalog()
        for name in ("r", "s", "w"):
            table = catalog.create_table(
                name, Schema([Column("k", INT), Column("v", INT)])
            )
            table.load_rows((i % 5, i) for i in range(50))
        catalog.analyze()
        generated, _ = generate(
            catalog,
            "SELECT r.v, s.v, w.v FROM r, s, w WHERE r.k = s.k "
            "AND s.k = w.k",
        )
        assert "def team_join_o" in generated.source
        # One loop level per input inside the group product.
        assert "for a0 in range(i0, e0):" in generated.source
        assert "for a2 in range(i2, e2):" in generated.source

    def test_plan_embedded_in_docstring(self, simple_catalog):
        generated, plan = generate(simple_catalog, "SELECT a FROM t")
        assert "ScanStage" in generated.source.split('"""')[1]

    def test_source_size_counts_bytes(self, simple_catalog):
        generated, _ = generate(simple_catalog, "SELECT a FROM t")
        assert generated.source_size == len(
            generated.source.encode("utf-8")
        )


class TestCompiler:
    def test_compile_produces_entry(self, simple_catalog):
        generated, plan = generate(simple_catalog, "SELECT a, b FROM t")
        compiled = QueryCompiler().compile(generated)
        assert callable(compiled.namespace["run_query"])
        assert compiled.compile_seconds > 0
        assert compiled.compiled_bytes > 0

    def test_source_served_from_memory(self, simple_catalog):
        generated, _ = generate(
            simple_catalog, "SELECT c, count(*) AS n FROM t GROUP BY c",
            force_agg="map",
        )
        compiled = QueryCompiler().compile(generated)
        assert not os.path.exists(compiled.source_path)
        loader = compiled.namespace["__loader__"]
        assert loader.get_source(compiled.namespace["__name__"]) == (
            generated.source
        )

    def test_bad_source_raises_codegen_error(self):
        from repro.core.generator import GeneratedQuery

        broken = GeneratedQuery(
            name="broken",
            source="def run_query(ctx:\n    pass\n",
            opt_level=OPT_O2,
            traced=False,
        )
        with pytest.raises(CodegenError):
            QueryCompiler().compile(broken)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("opt_level", [OPT_O2, OPT_O0])
    def test_every_module_composes_as_run_query(
        self, simple_catalog, opt_level, traced
    ):
        """The entry the executor calls is always ``run_query(ctx,
        acc)``, the module's last function."""
        for sql in (
            "SELECT a, b FROM t",
            "SELECT c, count(*) AS n FROM t GROUP BY c ORDER BY n",
        ):
            generated, _ = generate(
                simple_catalog, sql, opt_level=opt_level, traced=traced
            )
            tail = generated.source.rsplit("\ndef ", 1)[1]
            assert tail.startswith("run_query(ctx, acc):")


class TestEngineFacade:
    def test_prepare_reports_timings_and_sizes(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        prepared = engine.prepare("SELECT a FROM t WHERE a < 5")
        timings = prepared.timings
        assert timings.parse_seconds > 0
        assert timings.optimize_seconds > 0
        assert timings.generate_seconds > 0
        assert timings.compile_seconds > 0
        assert timings.total_seconds < 1.0  # preparation is milliseconds
        assert prepared.compiled.source_bytes > 0

    def test_cache_distinguishes_opt_levels(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        o2 = engine.prepare("SELECT a FROM t", opt_level=OPT_O2)
        o0 = engine.prepare("SELECT a FROM t", opt_level=OPT_O0)
        assert o2 is not o0

    def test_generate_source_inspection(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        source = engine.generate_source("SELECT a FROM t")
        assert "def run_query" in source

    def test_explain(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        assert "ScanStage" in engine.explain("SELECT a FROM t")

    def test_output_names(self, simple_catalog):
        engine = HiqueEngine(simple_catalog)
        prepared = engine.prepare(
            "SELECT c, sum(b) AS total FROM t GROUP BY c"
        )
        assert prepared.output_names == ["c", "total"]

    def test_traced_execution_requires_probe(self, simple_catalog):
        from repro.errors import ExecutionError

        engine = HiqueEngine(simple_catalog)
        prepared = engine.prepare("SELECT a FROM t", traced=True)
        with pytest.raises(ExecutionError):
            engine.execute_prepared(prepared)

    def test_map_overflow_falls_back(self, simple_catalog):
        # Corrupt the statistics so the map directories are undersized.
        simple_catalog.stats("t").columns["c"].distinct = 1
        engine = HiqueEngine(simple_catalog)
        rows = engine.execute(
            "SELECT c, count(*) AS n FROM t GROUP BY c",
            planner_config=PlannerConfig(force_agg="map"),
        )
        assert len(rows) == 3  # all three groups despite the bad estimate
