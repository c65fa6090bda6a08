"""Operator-level tests for the Volcano iterator engine."""

import pytest

from repro.core.executor import build_agg_helpers
from repro.engines.volcano.aggregates import (
    HashAggregate,
    HybridAggregate,
    SortAggregate,
)
from repro.engines.volcano.base import drain, iterate
from repro.engines.volcano.joins import (
    FineHashJoin,
    HybridJoin,
    MergeJoin,
    NestedLoopsJoin,
)
from repro.engines.volcano.operators import (
    Buffer,
    Filter,
    FunctionScan,
    Identity,
    LimitOperator,
    Materialize,
    OrderBy,
    Project,
    SortOperator,
    TableScan,
)
from repro.memsim.probe import Probe
from repro.storage import Column, INT, Schema, table_from_rows


def scan_of(rows):
    return FunctionScan(list(rows))


class TestScanFilterProject:
    def test_table_scan_generic_and_optimized(self, simple_catalog):
        table = simple_catalog.table("t")
        for generic in (True, False):
            rows = drain(TableScan(table, generic=generic))
            assert len(rows) == 200
            assert rows[0] == (0, 0.0, "x0", rows[0][3])

    def test_filter_fused(self):
        node = Filter(scan_of([(i,) for i in range(10)]), [],
                      fused=lambda r: r[0] % 2 == 0)
        assert drain(node) == [(i,) for i in range(0, 10, 2)]

    def test_filter_conjunct_list(self):
        node = Filter(
            scan_of([(i,) for i in range(10)]),
            [lambda r: r[0] > 2, lambda r: r[0] < 7],
        )
        assert drain(node) == [(i,) for i in range(3, 7)]

    def test_project(self):
        node = Project(scan_of([(1, 2), (3, 4)]), lambda r: (r[1],))
        assert drain(node) == [(2,), (4,)]

    def test_iterate_generator(self):
        got = list(iterate(scan_of([(1,), (2,)])))
        assert got == [(1,), (2,)]


class TestBlockingOperators:
    def test_materialize_replays(self):
        node = Materialize(scan_of([(1,), (2,)]))
        node.open()
        assert node.next() == (1,)
        assert node.next() == (2,)
        assert node.next() is None

    def test_sort_operator(self):
        node = SortOperator(scan_of([(3,), (1,), (2,)]), (0,))
        assert drain(node) == [(1,), (2,), (3,)]

    def test_order_by_mixed(self):
        node = OrderBy(
            scan_of([(1, "b"), (2, "a"), (1, "a")]),
            [(1, True), (0, False)],
        )
        assert drain(node) == [(2, "a"), (1, "a"), (1, "b")]

    def test_limit(self):
        node = LimitOperator(scan_of([(i,) for i in range(10)]), 3)
        assert drain(node) == [(0,), (1,), (2,)]

    def test_buffer_preserves_stream(self):
        node = Buffer(scan_of([(i,) for i in range(100)]), block_size=7)
        assert drain(node) == [(i,) for i in range(100)]

    def test_identity_passthrough(self):
        node = Identity(scan_of([(1,), (2,)]))
        assert drain(node) == [(1,), (2,)]


class TestJoinOperators:
    def test_merge_join_duplicates(self):
        left = scan_of([(1, "a"), (1, "b"), (2, "c")])
        right = scan_of([(1, "x"), (1, "y"), (3, "z")])
        rows = drain(MergeJoin(left, right, 0, 0))
        assert sorted(rows) == sorted(
            [
                (1, "a", 1, "x"), (1, "a", 1, "y"),
                (1, "b", 1, "x"), (1, "b", 1, "y"),
            ]
        )

    def test_merge_join_empty_side(self):
        assert drain(MergeJoin(scan_of([]), scan_of([(1, 1)]), 0, 0)) == []

    def test_hybrid_join(self):
        left = scan_of([(i % 3, i) for i in range(30)])
        right = scan_of([(i % 3, i * 10) for i in range(15)])
        rows = drain(HybridJoin(left, right, 0, 0, num_partitions=4))
        assert len(rows) == sum(
            1 for i in range(30) for j in range(15) if i % 3 == j % 3
        )

    def test_fine_hash_join(self):
        left = scan_of([(1, "a"), (2, "b")])
        right = scan_of([(2, "x"), (2, "y")])
        rows = drain(FineHashJoin(left, right, 0, 0))
        assert sorted(rows) == [(2, "b", 2, "x"), (2, "b", 2, "y")]

    def test_nested_loops_cartesian(self):
        rows = drain(
            NestedLoopsJoin(scan_of([(1,), (2,)]), scan_of([(9,)]))
        )
        assert rows == [(1, 9), (2, 9)]


class TestAggregateOperators:
    def _helpers(self, group_positions=(0,)):
        from repro.plan.descriptors import Aggregate
        from repro.plan.layout import ColumnLayout, ColumnSlot
        from repro.sql.bound import BoundAggregate, BoundColumn, BoundOutput
        from repro.storage.types import INT

        layout = ColumnLayout(
            [ColumnSlot("t", "g", INT), ColumnSlot("t", "v", INT)]
        )
        value = BoundColumn("t", "v", INT)
        group = BoundColumn("t", "g", INT)
        outputs = []
        if group_positions:
            outputs.append(BoundOutput("g", group, INT, "group"))
        outputs.append(
            BoundOutput(
                "s", BoundAggregate("sum", value, INT), INT, "aggregate"
            )
        )
        op = Aggregate(
            op_id=1,
            output_layout=layout,
            input_op=0,
            group_positions=group_positions,
            outputs=tuple(outputs),
        )
        return op, build_agg_helpers(op, layout)

    def test_sort_aggregate(self):
        op, helpers = self._helpers()
        rows = sorted((i % 3, i) for i in range(30))
        node = SortAggregate(scan_of(rows), (0,), helpers)
        got = dict(drain(node))
        assert got == {
            g: sum(i for i in range(30) if i % 3 == g) for g in range(3)
        }

    def test_hash_aggregate(self):
        op, helpers = self._helpers()
        rows = [(i % 3, i) for i in range(30)]
        got = dict(drain(HashAggregate(scan_of(rows), helpers)))
        assert got == {
            g: sum(i for i in range(30) if i % 3 == g) for g in range(3)
        }

    def test_hybrid_aggregate(self):
        op, helpers = self._helpers()
        rows = [(i % 5, i) for i in range(50)]
        node = HybridAggregate(scan_of(rows), (0,), helpers,
                               num_partitions=4)
        got = dict(drain(node))
        assert got == {
            g: sum(i for i in range(50) if i % 5 == g) for g in range(5)
        }

    def test_global_aggregate_empty_input(self):
        op, helpers = self._helpers(group_positions=())
        got = drain(SortAggregate(scan_of([]), (), helpers))
        assert got == [(0,)]  # SUM over empty input


class TestProbeAccounting:
    def test_iterator_calls_counted(self, simple_catalog):
        from repro.engines.volcano import VolcanoEngine

        probe = Probe()
        engine = VolcanoEngine(simple_catalog, generic=True)
        engine.execute("SELECT a FROM t WHERE a < 50", probe=probe)
        # At least two calls per scanned tuple plus per-field accessors.
        assert probe.function_calls > 200 * 2
        assert probe.data_accesses > 0
        assert probe.instructions > probe.function_calls

    def test_generic_costs_more_calls_than_optimized(self, simple_catalog):
        from repro.engines.volcano import VolcanoEngine

        sql = "SELECT a FROM t WHERE a < 50"
        generic_probe = Probe()
        VolcanoEngine(simple_catalog, generic=True).execute(
            sql, probe=generic_probe
        )
        optimized_probe = Probe()
        VolcanoEngine(simple_catalog).execute(sql, probe=optimized_probe)
        assert generic_probe.function_calls > optimized_probe.function_calls

    def test_buffering_reduces_calls(self, simple_catalog):
        from repro.engines.volcano import VolcanoEngine

        sql = "SELECT a FROM t"
        plain = Probe()
        VolcanoEngine(simple_catalog).execute(sql, probe=plain)
        buffered = Probe()
        VolcanoEngine(simple_catalog, buffered=True).execute(
            sql, probe=buffered
        )
        assert buffered.function_calls < plain.function_calls

    def test_hique_nearly_call_free(self, simple_catalog):
        from repro.core.engine import HiqueEngine
        from repro.engines.volcano import VolcanoEngine

        sql = "SELECT a FROM t WHERE a < 50"
        iterator_probe = Probe()
        VolcanoEngine(simple_catalog, generic=True).execute(
            sql, probe=iterator_probe
        )
        hique_probe = Probe()
        engine = HiqueEngine(simple_catalog)
        prepared = engine.prepare(sql, traced=True)
        engine.execute_prepared(prepared, probe=hique_probe)
        assert hique_probe.function_calls < (
            iterator_probe.function_calls * 0.05
        )
