"""Tests for the CLI shell, the executor internals, and the reference
evaluator's own behaviour."""

import io

import pytest

from repro.cli import Shell
from repro.core.executor import (
    build_agg_helpers,
    build_context,
)
from repro.plan.layout import ColumnLayout, ColumnSlot
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.types import DOUBLE, INT


class TestShell:
    def _shell(self):
        return Shell(stdout=io.StringIO())

    def _output(self, shell):
        return shell.stdout.getvalue()

    def test_create_and_query_via_tpch(self):
        shell = self._shell()
        assert shell.handle(".tpch 0.0005")
        assert shell.handle("SELECT count(*) AS n FROM nation")
        out = self._output(shell)
        assert "TPC-H" in out
        assert "25" in out

    def test_tables_listing(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        shell.handle(".tables")
        assert "lineitem" in self._output(shell)

    def test_engine_switch(self):
        shell = self._shell()
        shell.handle(".engine vectorized")
        assert shell.engine_kind == "vectorized"
        shell.handle(".engine nonsense")
        assert shell.engine_kind == "vectorized"
        assert "engines:" in self._output(shell)

    def test_explain_and_source(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        shell.handle(".explain SELECT count(*) AS n FROM nation")
        shell.handle(".source SELECT count(*) AS n FROM nation")
        out = self._output(shell)
        assert "ScanStage" in out
        assert "def run_query" in out

    def test_sql_error_reported_not_raised(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        assert shell.handle("SELECT nope FROM nation")
        assert "error:" in self._output(shell)

    def test_timing_toggle(self):
        shell = self._shell()
        shell.handle(".timing off")
        assert shell.timing is False

    def test_prepare_exec_and_cache_meta_commands(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        assert shell.handle(
            ".prepare SELECT o_orderkey, o_totalprice FROM orders "
            "WHERE o_orderkey = ?"
        )
        assert "1 parameter(s)" in self._output(shell)
        assert shell.handle(".exec 1")
        assert "o_totalprice" in self._output(shell)
        assert shell.handle(".exec 2")
        assert shell.handle(".cache")
        out = self._output(shell)
        assert "plan cache:" in out
        assert "WHERE o_orderkey = ?" in out
        assert shell.handle(".cache clear")
        assert "plan cache cleared" in self._output(shell)

    def test_index_command_and_cache_row_count_deps(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        shell.handle(".index orders o_orderkey")
        assert "index on orders(o_orderkey)" in self._output(shell)
        shell.handle(".index orders")
        assert "usage: .index" in self._output(shell)
        shell.handle(".index orders nope")
        assert "error:" in self._output(shell)
        shell.handle(
            ".explain SELECT o_totalprice FROM orders WHERE o_orderkey = 3"
        )
        assert "via index(o_orderkey) [= 3]" in self._output(shell)
        shell.handle("SELECT o_totalprice FROM orders WHERE o_orderkey = 3")
        shell.handle(".cache")
        rows = shell.db.table("orders").num_rows
        assert f"deps: orders~{rows:,} rows" in self._output(shell)

    def test_exec_errors_are_reported_not_raised(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        assert shell.handle(".exec 1")  # nothing prepared yet
        assert "no prepared statement" in self._output(shell)
        shell.handle(".prepare SELECT o_orderkey FROM orders WHERE o_orderkey = ?")
        assert shell.handle(".exec")
        assert "expects 1 parameter(s)" in self._output(shell)
        assert shell.handle(".exec not-a-value")
        assert "cannot parse parameter" in self._output(shell)

    def test_literal_queries_share_cached_plan(self):
        shell = self._shell()
        shell.handle(".tpch 0.0005")
        shell.handle("SELECT count(*) AS n FROM orders WHERE o_orderkey < 5")
        shell.handle("SELECT count(*) AS n FROM orders WHERE o_orderkey < 9")
        stats = shell.db.service.stats()
        assert stats.cache.hits >= 1

    def test_quit_returns_false(self):
        assert self._shell().handle(".quit") is False

    def test_unknown_meta_command(self):
        shell = self._shell()
        shell.handle(".bogus")
        assert "unknown command" in self._output(shell)

    def test_empty_line_is_noop(self):
        assert self._shell().handle("   ") is True


class TestExecutorContext:
    def _plan(self, simple_catalog, sql, opt_level="O0"):
        from repro.plan.optimizer import Optimizer

        bound = Binder(simple_catalog).bind(parse(sql))
        return Optimizer(simple_catalog).plan(bound)

    def test_context_resolves_tables(self, simple_catalog):
        plan = self._plan(
            simple_catalog, "SELECT t.a, u.d FROM t, u WHERE t.k = u.k"
        )
        ctx = build_context(plan)
        assert set(ctx.tables) == {"t", "u"}

    def test_o2_context_has_no_closures(self, simple_catalog):
        plan = self._plan(simple_catalog, "SELECT a FROM t WHERE a < 5")
        ctx = build_context(plan, opt_level="O2")
        assert not ctx.predicates
        assert not ctx.projectors

    def test_o0_context_builds_closures(self, simple_catalog):
        plan = self._plan(simple_catalog, "SELECT a FROM t WHERE a < 5")
        ctx = build_context(plan, opt_level="O0")
        scan_id = plan.operators[0].op_id
        assert callable(ctx.predicates[scan_id])
        assert ctx.projectors[scan_id]((7, 1.0, "x", 3)) == (7,)

    def test_single_column_projector_returns_tuple(self, simple_catalog):
        plan = self._plan(simple_catalog, "SELECT b FROM t")
        ctx = build_context(plan, opt_level="O0")
        scan_id = plan.operators[0].op_id
        result = ctx.projectors[scan_id]((1, 2.5, "x", 3))
        assert result == (2.5,)

    def test_agg_helpers_avg_empty_group_is_none(self):
        from repro.plan.descriptors import Aggregate
        from repro.sql.bound import BoundAggregate, BoundColumn, BoundOutput

        layout = ColumnLayout([ColumnSlot("t", "v", INT)])
        value = BoundColumn("t", "v", INT)
        op = Aggregate(
            op_id=1,
            output_layout=layout,
            input_op=0,
            group_positions=(),
            outputs=(
                BoundOutput(
                    "m", BoundAggregate("avg", value, DOUBLE), DOUBLE,
                    "aggregate",
                ),
            ),
        )
        helpers = build_agg_helpers(op, layout)
        assert helpers.finalize((), helpers.init()) == (None,)

    def test_agg_helpers_arithmetic_over_aggregates(self):
        from repro.plan.descriptors import Aggregate
        from repro.sql.bound import (
            BoundAggregate,
            BoundArithmetic,
            BoundColumn,
            BoundOutput,
        )

        layout = ColumnLayout([ColumnSlot("t", "v", INT)])
        value = BoundColumn("t", "v", INT)
        ratio = BoundArithmetic(
            "/",
            BoundAggregate("sum", value, INT),
            BoundAggregate("count", None, INT),
            DOUBLE,
        )
        op = Aggregate(
            op_id=1,
            output_layout=layout,
            input_op=0,
            group_positions=(),
            outputs=(BoundOutput("m", ratio, DOUBLE, "aggregate"),),
        )
        helpers = build_agg_helpers(op, layout)
        state = helpers.init()
        helpers.update(state, (4,))
        helpers.update(state, (8,))
        assert helpers.finalize((), state) == (6.0,)


class TestReferenceEvaluator:
    def _bound(self, simple_catalog, sql):
        return Binder(simple_catalog).bind(parse(sql))

    def test_hand_computed_aggregation(self, simple_catalog):
        bound = self._bound(
            simple_catalog, "SELECT sum(a) AS s, count(*) AS n FROM t"
        )
        assert reference_evaluate(bound) == [(sum(range(200)), 200)]

    def test_hand_computed_filter(self, simple_catalog):
        bound = self._bound(simple_catalog, "SELECT a FROM t WHERE a < 3")
        assert sorted(reference_evaluate(bound)) == [(0,), (1,), (2,)]

    def test_join_cardinality(self, simple_catalog):
        bound = self._bound(
            simple_catalog, "SELECT t.a, u.d FROM t, u WHERE t.k = u.k"
        )
        # Each of the 200 t rows matches exactly 4 of the 40 u rows.
        assert len(reference_evaluate(bound)) == 800

    def test_cartesian_product(self, simple_catalog):
        bound = self._bound(simple_catalog, "SELECT t.a, u.d FROM t, u")
        assert len(reference_evaluate(bound)) == 200 * 40

    def test_limit_and_order(self, simple_catalog):
        bound = self._bound(
            simple_catalog, "SELECT a FROM t ORDER BY a DESC LIMIT 2"
        )
        assert reference_evaluate(bound) == [(199,), (198,)]


class TestDiskBackedExecution:
    def test_hique_over_disk_file(self, tmp_path):
        """End to end over a real on-disk heap file with a small pool."""
        from repro.core.engine import HiqueEngine
        from repro.storage import (
            BufferManager,
            Catalog,
            Column,
            DiskFile,
            INT,
            Schema,
            Table,
        )

        buffer = BufferManager(capacity=4)  # force evictions
        catalog = Catalog(buffer)
        schema = Schema([Column("k", INT), Column("v", INT)])
        file = DiskFile(str(tmp_path / "t.dat"))
        table = Table("t", schema, file=file, buffer=buffer)
        table.load_rows((i % 10, i) for i in range(2_000))
        catalog.register(table)
        catalog.analyze()

        engine = HiqueEngine(catalog)
        rows = engine.execute(
            "SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY k"
        )
        expected = [
            (g, sum(i for i in range(2_000) if i % 10 == g))
            for g in range(10)
        ]
        assert rows == expected
        assert buffer.stats.evictions > 0  # the pool actually cycled
        file.close()
