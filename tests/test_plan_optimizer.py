"""Tests for layouts, expression compilation, and the optimizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError, UnsupportedSqlError
from repro.plan.descriptors import (
    AGG_HYBRID,
    AGG_MAP,
    AGG_SORT,
    Aggregate,
    JOIN_HASH,
    Join,
    Limit,
    MultiwayJoin,
    PREP_NONE,
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Project,
    ScanStage,
    Sort,
)
from repro.plan.expressions import (
    conjunction_source,
    expr_source,
    make_conjunction,
    make_evaluator,
)
from repro.plan.layout import ColumnLayout, ColumnSlot
from repro.plan.optimizer import Optimizer, PlannerConfig
from repro.sql.binder import Binder
from repro.sql.bound import (
    BoundArithmetic,
    BoundColumn,
    BoundComparison,
    BoundLiteral,
)
from repro.sql.parser import parse
from repro.storage.types import DOUBLE, INT


def plan_for(catalog, sql, **config_kwargs):
    bound = Binder(catalog).bind(parse(sql))
    return Optimizer(catalog, PlannerConfig(**config_kwargs)).plan(bound)


class TestLayout:
    def test_positions(self):
        layout = ColumnLayout(
            [ColumnSlot("t", "a", INT), ColumnSlot("t", "b", DOUBLE)]
        )
        assert layout.position(BoundColumn("t", "b", DOUBLE)) == 1

    def test_missing_column_raises(self):
        layout = ColumnLayout([ColumnSlot("t", "a", INT)])
        with pytest.raises(PlanError):
            layout.position(BoundColumn("t", "z", INT))

    def test_duplicate_slot_rejected(self):
        with pytest.raises(PlanError):
            ColumnLayout(
                [ColumnSlot("t", "a", INT), ColumnSlot("t", "a", INT)]
            )

    def test_concat(self):
        left = ColumnLayout([ColumnSlot("l", "a", INT)])
        right = ColumnLayout([ColumnSlot("r", "b", INT)])
        combined = left.concat(right)
        assert combined.position(BoundColumn("r", "b", INT)) == 1


class TestExpressionCompilation:
    def _layout(self):
        return ColumnLayout(
            [ColumnSlot("t", "a", INT), ColumnSlot("t", "b", DOUBLE)]
        )

    def test_evaluator_matches_source(self):
        layout = self._layout()
        expr = BoundArithmetic(
            "*",
            BoundColumn("t", "a", INT),
            BoundArithmetic(
                "-",
                BoundLiteral(1, INT),
                BoundColumn("t", "b", DOUBLE),
                DOUBLE,
            ),
            DOUBLE,
        )
        evaluator = make_evaluator(expr, layout)
        source = expr_source(expr, layout, "row")
        row = (4, 0.25)
        assert evaluator(row) == eval(source)  # noqa: S307 - test only

    @given(
        st.integers(-100, 100),
        st.floats(-100, 100, allow_nan=False),
        st.sampled_from(["+", "-", "*"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_closure_source_equivalence_property(self, a, b, op):
        layout = self._layout()
        expr = BoundArithmetic(
            op,
            BoundColumn("t", "a", INT),
            BoundColumn("t", "b", DOUBLE),
            DOUBLE,
        )
        row = (a, b)
        evaluator = make_evaluator(expr, layout)
        source = expr_source(expr, layout, "row")
        assert evaluator(row) == eval(source)  # noqa: S307 - test only

    def test_conjunction_closure_and_source(self):
        layout = self._layout()
        comparisons = [
            BoundComparison(
                "<", BoundColumn("t", "a", INT), BoundLiteral(10, INT)
            ),
            BoundComparison(
                ">=", BoundColumn("t", "b", DOUBLE), BoundLiteral(0.5, DOUBLE)
            ),
        ]
        predicate = make_conjunction(comparisons, layout)
        source = conjunction_source(comparisons, layout, "row")
        for row in [(5, 1.0), (5, 0.1), (20, 1.0)]:
            assert predicate(row) == eval(source)  # noqa: S307 - test only

    def test_empty_conjunction_is_true(self):
        layout = self._layout()
        assert make_conjunction([], layout)((1, 2.0)) is True
        assert conjunction_source([], layout, "row") == "True"


class TestScanPlanning:
    def test_single_table_identity_projection_skipped(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT a, b FROM t")
        kinds = [type(op).__name__ for op in plan.operators]
        assert kinds == ["ScanStage"]

    def test_projection_pushdown(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT a FROM t WHERE b < 10")
        scan = plan.operators[0]
        assert isinstance(scan, ScanStage)
        # b is filter-only: not staged.
        assert [s.column for s in scan.output_layout.slots] == ["a"]
        assert len(scan.filters) == 1

    def test_count_star_stages_one_column(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT count(*) AS n FROM t")
        scan = plan.operators[0]
        assert len(scan.output_layout) == 1

    def test_expression_projection_emitted(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT a + 1 AS x FROM t")
        assert isinstance(plan.root, Project)


class TestJoinPlanning:
    def test_equi_join_builds_the_smaller_input(self, simple_catalog):
        """u (40 rows) is staged as fine partitions; t (200 rows) is
        scanned unprepared, right before the join it probes."""
        plan = plan_for(simple_catalog, "SELECT t.a, u.d FROM t, u "
                        "WHERE t.k = u.k")
        build, probe, join = plan.operators[:3]
        assert isinstance(join, Join) and join.algorithm == JOIN_HASH
        assert (build.binding, probe.binding) == ("u", "t")
        assert build.prep.kind == PREP_PARTITION and build.prep.fine
        assert probe.prep.kind == PREP_NONE
        assert (join.build_op, join.probe_op) == (build.op_id, probe.op_id)
        assert join.inputs == (build.op_id, probe.op_id)
        # The layout stays left ++ right whichever side builds.
        assert (join.left_op, join.right_op) == (probe.op_id, build.op_id)
        assert join.output_order == ()
        assert plan.fusable_consumer(probe) is join

    @pytest.mark.parametrize(
        "force_join, prep", [("merge", PREP_SORT), ("hybrid", PREP_PARTITION)]
    )
    def test_forced_join_stages_both_inputs(
        self, simple_catalog, force_join, prep
    ):
        plan = plan_for(
            simple_catalog,
            "SELECT t.a, u.d FROM t, u WHERE t.k = u.k",
            force_join=force_join,
        )
        joins = [op for op in plan.operators if isinstance(op, Join)]
        assert joins[0].algorithm == force_join
        assert joins[0].build_op is None
        scans = [op for op in plan.operators if isinstance(op, ScanStage)]
        assert all(s.prep.kind == prep for s in scans)

    def test_merge_join_output_order_propagates(self, simple_catalog):
        plan = plan_for(
            simple_catalog,
            "SELECT t.k, u.d FROM t, u WHERE t.k = u.k",
            force_join="merge",
        )
        join = next(op for op in plan.operators if isinstance(op, Join))
        assert join.output_order == (join.left_key,)

    def test_disconnected_join_graph_rejected(self):
        from repro.storage import Catalog, Column, INT, Schema

        catalog = Catalog()
        for name in ("r", "s", "w"):
            table = catalog.create_table(
                name, Schema([Column("k", INT), Column("v", INT)])
            )
            table.load_rows((i % 5, i) for i in range(20))
        catalog.analyze()
        # r–s are joined; w has join predicates to neither.
        with pytest.raises(UnsupportedSqlError):
            plan_for(
                catalog,
                "SELECT r.v, w.v FROM r, s, w WHERE r.k = s.k",
            )

    def test_pure_cartesian_uses_nested(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT t.a, u.d FROM t, u")
        join = next(op for op in plan.operators if isinstance(op, Join))
        assert join.algorithm == "nested"

    def test_plan_is_topologically_valid(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT t.a, u.d FROM t, u "
                        "WHERE t.k = u.k")
        plan.validate()


class TestJoinTeams:
    def _team_catalog(self):
        from repro.storage import Catalog, Column, INT, Schema

        catalog = Catalog()
        for name in ("r", "s", "w"):
            table = catalog.create_table(
                name, Schema([Column("k", INT), Column("v", INT)])
            )
            table.load_rows((i % 5, i) for i in range(50))
        catalog.analyze()
        return catalog

    def test_team_detected(self):
        catalog = self._team_catalog()
        plan = plan_for(
            catalog,
            "SELECT r.v, s.v, w.v FROM r, s, w WHERE r.k = s.k "
            "AND s.k = w.k",
        )
        teams = [
            op for op in plan.operators if isinstance(op, MultiwayJoin)
        ]
        assert len(teams) == 1
        assert len(teams[0].input_ops) == 3

    def test_team_disabled_by_config(self):
        catalog = self._team_catalog()
        plan = plan_for(
            catalog,
            "SELECT r.v, s.v, w.v FROM r, s, w WHERE r.k = s.k "
            "AND s.k = w.k",
            enable_join_teams=False,
        )
        assert not any(
            isinstance(op, MultiwayJoin) for op in plan.operators
        )
        assert sum(isinstance(op, Join) for op in plan.operators) == 2

    def test_two_key_classes_not_a_team(self, simple_catalog):
        # t–u join on k plus a second unrelated equivalence class would
        # be needed; with two tables there is never a team.
        plan = plan_for(
            simple_catalog, "SELECT t.a, u.d FROM t, u WHERE t.k = u.k"
        )
        assert not any(
            isinstance(op, MultiwayJoin) for op in plan.operators
        )


class TestAggregationPlanning:
    def test_few_groups_use_map(self, simple_catalog):
        plan = plan_for(
            simple_catalog, "SELECT c, count(*) AS n FROM t GROUP BY c"
        )
        aggregate = next(
            op for op in plan.operators if isinstance(op, Aggregate)
        )
        assert aggregate.algorithm == AGG_MAP
        assert aggregate.directory_sizes == (3,)

    def test_many_groups_use_hybrid(self, simple_catalog):
        plan = plan_for(
            simple_catalog,
            "SELECT a, count(*) AS n FROM t GROUP BY a",
            map_agg_l2_fraction=0.000001,
        )
        aggregate = next(
            op for op in plan.operators if isinstance(op, Aggregate)
        )
        assert aggregate.algorithm == AGG_HYBRID
        scan = plan.operators[0]
        assert scan.prep.kind == PREP_PARTITION_SORT

    def test_sorted_input_uses_sort_agg(self, simple_catalog):
        # Join on k produces k-ordered output; grouping on k reuses it.
        plan = plan_for(
            simple_catalog,
            "SELECT t.k, count(*) AS n FROM t, u WHERE t.k = u.k "
            "GROUP BY t.k",
            force_join="merge",
            map_agg_l2_fraction=0.000001,
        )
        aggregate = next(
            op for op in plan.operators if isinstance(op, Aggregate)
        )
        assert aggregate.algorithm == AGG_SORT

    def test_global_aggregate_is_single_pass(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT sum(a) AS s FROM t")
        aggregate = next(
            op for op in plan.operators if isinstance(op, Aggregate)
        )
        assert aggregate.group_positions == ()

    def test_forced_algorithm_respected(self, simple_catalog):
        for algorithm in (AGG_SORT, AGG_HYBRID, AGG_MAP):
            plan = plan_for(
                simple_catalog,
                "SELECT c, count(*) AS n FROM t GROUP BY c",
                force_agg=algorithm,
            )
            aggregate = next(
                op for op in plan.operators if isinstance(op, Aggregate)
            )
            assert aggregate.algorithm == algorithm


class TestOrderLimitPlanning:
    def test_order_by_adds_sort(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT a, b FROM t ORDER BY b")
        assert isinstance(plan.root, Sort)

    def test_limit_op(self, simple_catalog):
        plan = plan_for(simple_catalog, "SELECT a, b FROM t LIMIT 3")
        assert isinstance(plan.root, Limit)
        assert plan.root.count == 3

    def test_sort_agg_order_reused(self, simple_catalog):
        plan = plan_for(
            simple_catalog,
            "SELECT c, count(*) AS n FROM t GROUP BY c ORDER BY c",
            force_agg=AGG_SORT,
        )
        # Sort aggregation leaves output ordered on c: no Sort operator.
        assert not isinstance(plan.root, Sort)

    def test_explain_mentions_operators(self, simple_catalog):
        plan = plan_for(
            simple_catalog,
            "SELECT c, count(*) AS n FROM t GROUP BY c ORDER BY n",
        )
        text = plan.explain()
        assert "ScanStage" in text
        assert "Aggregate" in text
        assert "Sort" in text
