"""Tests for the fractal B+-tree index and the DSM column store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.btree import (
    BPlusTree,
    INTERNAL_FANOUT,
    LEAF_CAPACITY,
    NODES_PER_PAGE,
    NodeAllocator,
    build_index,
)
from repro.storage.dsm import from_rows, from_table
from repro.storage.schema import Column, Schema
from repro.storage.table import table_from_rows
from repro.storage.types import DOUBLE, INT, char


class TestNodeAllocator:
    def test_four_nodes_per_page(self):
        allocator = NodeAllocator()
        ids = [allocator.allocate() for _ in range(9)]
        assert [NodeAllocator.page_of(i) for i in ids] == [
            0, 0, 0, 0, 1, 1, 1, 1, 2,
        ]
        assert allocator.num_pages == 3

    def test_quarters(self):
        assert NodeAllocator.quarter_of(5) == 1
        assert NodeAllocator.quarter_of(8) == 0

    def test_geometry_from_byte_budget(self):
        # 1024-byte nodes with 8-byte keys/pointers and a 16-byte header.
        assert INTERNAL_FANOUT == 63
        assert LEAF_CAPACITY == 63
        assert NODES_PER_PAGE == 4


class TestBPlusTree:
    def test_insert_and_search(self):
        tree = BPlusTree()
        tree.insert(5, (0, 1))
        tree.insert(3, (0, 2))
        assert tree.search(5) == [(0, 1)]
        assert tree.search(99) == []

    def test_duplicates_accumulate(self):
        tree = BPlusTree()
        tree.insert(7, (0, 0))
        tree.insert(7, (1, 1))
        assert tree.search(7) == [(0, 0), (1, 1)]
        assert len(tree) == 2
        assert tree.num_keys == 1

    def test_splits_preserve_order(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        keys = list(range(100))
        import random

        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, (0, key))
        assert [k for k, _ in tree.items()] == list(range(100))
        assert tree.height > 1
        tree.check_invariants()

    def test_range_scan_bounds(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        for key in range(50):
            tree.insert(key, (0, key))
        got = [k for k, _ in tree.range_scan(10, 20)]
        assert got == list(range(10, 21))

    def test_range_scan_open_ends(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        for key in range(20):
            tree.insert(key, (0, key))
        assert len(list(tree.range_scan(None, 5))) == 6
        assert len(list(tree.range_scan(15, None))) == 5

    def test_fractal_page_accounting(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        for key in range(200):
            tree.insert(key, (0, key))
        assert tree.num_pages == -(-tree.allocator.num_nodes // 4)

    def test_degenerate_geometry_rejected(self):
        import repro.errors as errors

        with pytest.raises(errors.StorageError):
            BPlusTree(leaf_capacity=1)

    @given(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_property(self, keys):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=5)
        for slot, key in enumerate(keys):
            tree.insert(key, (0, slot))
        tree.check_invariants()
        assert len(tree) == len(keys)
        assert tree.num_keys == len(set(keys))
        # Every inserted rid is findable under its key.
        for slot, key in enumerate(keys):
            assert (0, slot) in tree.search(key)
        # Ordered iteration: keys non-decreasing, one entry per rid,
        # distinct keys match the input's.
        iterated = [k for k, _ in tree.items()]
        assert iterated == sorted(iterated)
        assert len(iterated) == len(keys)
        assert sorted(set(iterated)) == sorted(set(keys))

    def test_range_scan_exclusive_bounds_and_limit(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        for key in range(30):
            tree.insert(key, (0, key))
            tree.insert(key, (1, key))  # every key twice
        keys = lambda **kw: [k for k, _ in tree.range_scan(**kw)]
        assert keys(low=10, high=12) == [10, 10, 11, 11, 12, 12]
        assert keys(low=10, high=12, low_inclusive=False) == [11, 11, 12, 12]
        assert keys(low=10, high=12, high_inclusive=False) == [10, 10, 11, 11]
        assert keys(
            low=10, high=11, low_inclusive=False, high_inclusive=False
        ) == []
        # Bounds that are not stored keys behave the same either way.
        assert keys(low=9.5, high=11.5, low_inclusive=False) == [
            10, 10, 11, 11,
        ]
        assert keys(low=25, high_inclusive=False) == [
            k for k in range(25, 30) for _ in range(2)
        ]
        assert keys(low=12, high=10) == []
        # The limit stops mid-key: it counts rids, not keys.
        assert keys(low=5, limit=3) == [5, 5, 6]
        assert keys(limit=0) == []

    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(min_value=-40, max_value=40)
            ),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from([(3, 3), (4, 5), (63, 63)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_delete_matches_model_property(self, steps, geometry):
        """Random insert/delete mixes against a dict-of-lists model."""
        tree = BPlusTree(*geometry)
        model: dict[int, list[tuple[int, int]]] = {}
        for serial, (is_delete, key) in enumerate(steps):
            if is_delete and model.get(key):
                # Not always the newest rid: lists shrink from any end.
                rid = model[key].pop(serial % len(model[key]))
                if not model[key]:
                    del model[key]
                tree.delete(key, rid)
            else:
                rid = (serial // 7, serial % 7)
                model.setdefault(key, []).append(rid)
                tree.insert(key, rid)
        tree.check_invariants()
        assert len(tree) == sum(len(v) for v in model.values())
        assert tree.num_keys == len(model)
        for key in range(-41, 42):
            assert sorted(tree.search(key)) == sorted(model.get(key, []))
        assert [k for k, _ in tree.items()] == [
            k for k in sorted(model) for _ in model[k]
        ]
        low, high = sorted((steps[0][1], steps[-1][1]))
        assert sorted(tree.range_scan(low, high, low_inclusive=False)) == sorted(
            (k, rid)
            for k, rids in model.items()
            if low < k <= high
            for rid in rids
        )

    def test_delete_leaves_empty_leaves_usable(self):
        tree = BPlusTree(leaf_capacity=4, internal_fanout=4)
        for key in range(64):
            tree.insert(key, (0, key))
        height = tree.height
        for key in range(8, 56):  # empties whole leaves in the middle
            tree.delete(key, (0, key))
        tree.check_invariants()
        assert tree.height == height  # lazy: nothing merged
        assert [k for k, _ in tree.items()] == [*range(8), *range(56, 64)]
        assert [k for k, _ in tree.range_scan(5, 58)] == [5, 6, 7, 56, 57, 58]
        tree.insert(30, (1, 30))  # lands in a leaf that was emptied
        assert tree.search(30) == [(1, 30)]
        tree.check_invariants()

    def test_delete_of_missing_entry_raises(self):
        import repro.errors as errors

        tree = BPlusTree()
        tree.insert(1, (0, 0))
        with pytest.raises(errors.StorageError):
            tree.delete(1, (0, 1))
        with pytest.raises(errors.StorageError):
            tree.delete(2, (0, 0))
        assert len(tree) == 1

    @given(
        st.lists(
            st.integers(min_value=-300, max_value=300), max_size=500
        ),
        st.sampled_from([(3, 3), (4, 5), (63, 63)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_inserts_property(self, keys, geometry):
        pairs = [(key, (slot // 5, slot % 5)) for slot, key in enumerate(keys)]
        bulk = BPlusTree(*geometry)
        bulk.bulk_load(pairs)
        bulk.check_invariants()
        single = BPlusTree(*geometry)
        for key, rid in pairs:
            single.insert(key, rid)
        assert list(bulk.items()) == list(single.items())
        assert (len(bulk), bulk.num_keys) == (len(single), single.num_keys)
        assert bulk.height <= single.height
        # A bulk-built tree keeps working as an ordinary one.
        bulk.insert(1000, (9, 9))
        if pairs:
            bulk.delete(*pairs[0])
        bulk.check_invariants()
        assert bulk.search(1000) == [(9, 9)]

    def test_bulk_load_requires_an_empty_tree(self):
        import repro.errors as errors

        tree = BPlusTree()
        tree.insert(1, (0, 0))
        with pytest.raises(errors.StorageError):
            tree.bulk_load([(2, (0, 1))])

    def test_build_index_over_table(self):
        schema = Schema([Column("k", INT), Column("v", INT)])
        table = table_from_rows(
            "t", schema, [(i % 7, i) for i in range(700)]
        )
        tree = build_index(table, "k")
        rids = tree.search(3)
        assert len(rids) == 100
        for page_no, slot in rids:
            assert table.row_at(page_no, slot)[0] == 3


class TestDsm:
    def test_from_table_roundtrip(self):
        schema = Schema(
            [Column("a", INT), Column("b", DOUBLE), Column("c", char(6))]
        )
        rows = [(i, i * 0.5, f"s{i % 4}") for i in range(50)]
        table = table_from_rows("t", schema, rows)
        columnar = from_table(table)
        assert columnar.num_rows == 50
        assert columnar.column("a").dtype == np.int64
        assert columnar.column("b").dtype == np.float64
        assert columnar.column("c").dtype == np.dtype("S6")
        for i in (0, 13, 49):
            assert columnar.row(i) == rows[i]

    def test_from_rows(self):
        schema = Schema([Column("x", INT)])
        columnar = from_rows("t", schema, [(1,), (2,), (3,)])
        assert columnar.column("x").tolist() == [1, 2, 3]

    def test_qualified_column_access(self):
        schema = Schema([Column("a", INT)]).qualify("t")
        columnar = from_rows("t", schema, [(9,)])
        assert columnar.column("t.a").tolist() == [9]

    def test_gather_order(self):
        schema = Schema([Column("a", INT), Column("b", INT)])
        columnar = from_rows("t", schema, [(1, 2)])
        b_col, a_col = columnar.gather(["b", "a"])
        assert b_col.tolist() == [2]
        assert a_col.tolist() == [1]
