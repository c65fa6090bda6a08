"""Fractal B+-tree index.

The paper uses "memory-efficient indexes, in the form of fractal
B+-trees, with each physical page divided in four tree nodes of 1024
bytes each" (Section IV, citing Chen et al., SIGMOD 2002).  The fractal
layout packs several small nodes into one disk page so that a page fetch
brings a whole subtree slice into cache.

This implementation keeps that node-size discipline:

* nodes have a byte budget of ``NODE_SIZE`` (1024) bytes and their
  fan-out is derived from it exactly as it would be on disk;
* nodes are allocated in groups of ``NODES_PER_PAGE`` (4) through a
  :class:`NodeAllocator`, so node ids map onto (page, quarter) slots and
  siblings tend to be co-located — the fractal property;
* keys are Python-comparable scalars; values are record ids
  ``(page_no, slot)``.

The benchmark queries in the paper are scan driven, but the OLTP path is
not: the optimizer annotates sargable scans with an index access, the
staging template probes the tree from generated code, and indexed
UPDATE/DELETE locate their rows here and patch single entries through
:meth:`BPlusTree.insert` / :meth:`BPlusTree.delete` instead of
rebuilding.  Deletion is *lazy*: entries are removed from their leaf
and the leaf is left in place, possibly empty — no merging or
redistribution — which keeps every rid-patch O(log n) and every
structural invariant except minimum occupancy (never promised here).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple

from repro.errors import StorageError
from repro.storage.page import HEADER_SIZE

#: Byte budget of a tree node (quarter of a physical 4096-byte page).
NODE_SIZE = 1024

#: Nodes co-located per physical page.
NODES_PER_PAGE = 4

#: Assumed encoded widths used to derive fan-out from the byte budget:
#: 8-byte keys, 8-byte child pointers, 8-byte rids, 16-byte node header.
_KEY_BYTES = 8
_PTR_BYTES = 8
_HEADER_BYTES = 16

#: Max children of an internal node: header + n*ptr + (n-1)*key <= NODE_SIZE.
INTERNAL_FANOUT = (NODE_SIZE - _HEADER_BYTES + _KEY_BYTES) // (
    _KEY_BYTES + _PTR_BYTES
)

#: Max entries of a leaf node: header + n*(key + rid) <= NODE_SIZE.
LEAF_CAPACITY = (NODE_SIZE - _HEADER_BYTES) // (_KEY_BYTES + _PTR_BYTES)


class KeyRange(NamedTuple):
    """Run-time bounds of one index access: ``low``/``high`` are key
    values (``None`` = open), the flags say whether each is included."""

    column: str
    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True


class NodeAllocator:
    """Allocates node ids grouped four-to-a-page (the fractal layout)."""

    def __init__(self) -> None:
        self._next_id = 0

    def allocate(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    @property
    def num_nodes(self) -> int:
        return self._next_id

    @property
    def num_pages(self) -> int:
        """Physical pages consumed by the allocated nodes."""
        return -(-self._next_id // NODES_PER_PAGE)

    @staticmethod
    def page_of(node_id: int) -> int:
        return node_id // NODES_PER_PAGE

    @staticmethod
    def quarter_of(node_id: int) -> int:
        return node_id % NODES_PER_PAGE


class _Node:
    __slots__ = ("node_id", "keys", "is_leaf")

    def __init__(self, node_id: int, is_leaf: bool):
        self.node_id = node_id
        self.keys: list[Any] = []
        self.is_leaf = is_leaf


class _Leaf(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self, node_id: int):
        super().__init__(node_id, is_leaf=True)
        self.values: list[list[tuple[int, int]]] = []
        self.next_leaf: "_Leaf | None" = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, node_id: int):
        super().__init__(node_id, is_leaf=False)
        self.children: list[_Node] = []


class BPlusTree:
    """A B+-tree over comparable keys mapping to record ids.

    Duplicate keys are allowed (secondary-index semantics): each leaf
    entry holds the list of rids sharing the key.
    """

    def __init__(
        self,
        leaf_capacity: int = LEAF_CAPACITY,
        internal_fanout: int = INTERNAL_FANOUT,
    ):
        if leaf_capacity < 2 or internal_fanout < 3:
            raise StorageError("degenerate B+-tree geometry")
        self.leaf_capacity = leaf_capacity
        self.internal_fanout = internal_fanout
        self.allocator = NodeAllocator()
        self._root: _Node = _Leaf(self.allocator.allocate())
        self._first_leaf: _Leaf = self._root  # type: ignore[assignment]
        self._num_keys = 0
        self._num_entries = 0
        self.height = 1

    # -- queries ---------------------------------------------------------------
    def search(self, key: Any) -> list[tuple[int, int]]:
        """All rids stored under ``key`` (empty list when absent)."""
        leaf = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.values[idx])
        return []

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        limit: int | None = None,
    ) -> Iterator[tuple[Any, tuple[int, int]]]:
        """Yield ``(key, rid)`` pairs between the bounds, in key order.

        ``None`` bounds are open; the ``*_inclusive`` flags turn a bound
        strict.  ``limit`` stops after that many pairs, so a caller that
        only needs to know whether a range is "too wide" never walks
        the whole of it.
        """
        if limit is not None and limit <= 0:
            return
        leaf: _Leaf | None
        if low is None:
            leaf = self._first_leaf
            idx = 0
        else:
            leaf = self._descend(low)
            find = bisect.bisect_left if low_inclusive else bisect.bisect_right
            idx = find(leaf.keys, low)
        emitted = 0
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None and (
                    key > high or (key == high and not high_inclusive)
                ):
                    return
                for rid in leaf.values[idx]:
                    yield key, rid
                    emitted += 1
                    if emitted == limit:
                        return
                idx += 1
            leaf = leaf.next_leaf
            idx = 0

    def items(self) -> Iterator[tuple[Any, tuple[int, int]]]:
        """Full ordered iteration."""
        return self.range_scan()

    def __len__(self) -> int:
        """Number of (key, rid) entries."""
        return self._num_entries

    @property
    def num_keys(self) -> int:
        """Number of distinct keys."""
        return self._num_keys

    @property
    def num_pages(self) -> int:
        """Physical index pages under the fractal 4-nodes-per-page layout."""
        return self.allocator.num_pages

    # -- updates ---------------------------------------------------------------
    def insert(self, key: Any, rid: tuple[int, int]) -> None:
        """Insert one entry; duplicates append to the key's rid list."""
        split = self._insert(self._root, key, rid)
        if split is not None:
            sep_key, right = split
            new_root = _Internal(self.allocator.allocate())
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root
            self.height += 1
        self._num_entries += 1

    def delete(self, key: Any, rid: tuple[int, int]) -> None:
        """Remove one ``(key, rid)`` entry, lazily.

        The entry leaves its leaf; a key whose last rid goes leaves too,
        and a leaf may end up empty — it stays linked and reusable, and
        no separator is touched (separators only route, they need not
        be present keys).  Raises when the entry is absent: an index
        that disagrees with its heap must not fail silently.
        """
        leaf = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            rids = leaf.values[idx]
            if rid in rids:
                rids.remove(rid)
                if not rids:
                    del leaf.keys[idx]
                    del leaf.values[idx]
                    self._num_keys -= 1
                self._num_entries -= 1
                return
        raise StorageError(f"index has no entry {key!r} -> {rid}")

    def bulk_load(self, items: Iterable[tuple[Any, tuple[int, int]]]) -> None:
        """Build an *empty* tree bottom-up from ``(key, rid)`` pairs.

        The pairs need not be sorted; equal keys keep their input order.
        Leaves are packed level by level from the sorted run — entries
        spread evenly so no node is left nearly empty — instead of one
        root-to-leaf insert per pair.
        """
        if self._num_entries or not self._root.is_leaf:
            raise StorageError("bulk_load requires an empty tree")
        pairs = sorted(items, key=itemgetter(0))
        if not pairs:
            return
        keys: list[Any] = []
        values: list[list[tuple[int, int]]] = []
        for key, rid in pairs:
            if keys and keys[-1] == key:
                values[-1].append(rid)
            else:
                keys.append(key)
                values.append([rid])
        self._num_keys = len(keys)
        self._num_entries = len(pairs)

        # Reuse the pre-allocated root as the first leaf so node ids
        # stay dense under the four-to-a-page layout.
        level: list[_Node] = []
        lows: list[Any] = []  # smallest key under each node of ``level``
        leaf: _Leaf = self._root  # type: ignore[assignment]
        for start, stop in _even_chunks(len(keys), self.leaf_capacity):
            if level:
                fresh = _Leaf(self.allocator.allocate())
                leaf.next_leaf = fresh
                leaf = fresh
            leaf.keys = keys[start:stop]
            leaf.values = values[start:stop]
            level.append(leaf)
            lows.append(keys[start])
        self.height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            parent_lows: list[Any] = []
            for start, stop in _even_chunks(len(level), self.internal_fanout):
                node = _Internal(self.allocator.allocate())
                node.children = level[start:stop]
                node.keys = lows[start + 1:stop]
                parents.append(node)
                parent_lows.append(lows[start])
            level, lows = parents, parent_lows
            self.height += 1
        self._root = level[0]

    # -- internals ---------------------------------------------------------------
    def _descend(self, key: Any) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            internal: _Internal = node  # type: ignore[assignment]
            idx = bisect.bisect_right(internal.keys, key)
            node = internal.children[idx]
        return node  # type: ignore[return-value]

    def _insert(
        self, node: _Node, key: Any, rid: tuple[int, int]
    ) -> tuple[Any, _Node] | None:
        if node.is_leaf:
            return self._insert_leaf(node, key, rid)  # type: ignore[arg-type]
        internal: _Internal = node  # type: ignore[assignment]
        idx = bisect.bisect_right(internal.keys, key)
        split = self._insert(internal.children[idx], key, rid)
        if split is None:
            return None
        sep_key, right = split
        internal.keys.insert(idx, sep_key)
        internal.children.insert(idx + 1, right)
        if len(internal.children) <= self.internal_fanout:
            return None
        return self._split_internal(internal)

    def _insert_leaf(
        self, leaf: _Leaf, key: Any, rid: tuple[int, int]
    ) -> tuple[Any, _Node] | None:
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx].append(rid)
            return None
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, [rid])
        self._num_keys += 1
        if len(leaf.keys) <= self.leaf_capacity:
            return None
        return self._split_leaf(leaf)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Node]:
        mid = len(leaf.keys) // 2
        right = _Leaf(self.allocator.allocate())
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Node]:
        mid = len(node.children) // 2
        sep_key = node.keys[mid - 1]
        right = _Internal(self.allocator.allocate())
        right.keys = node.keys[mid:]
        right.children = node.children[mid:]
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        return sep_key, right

    # -- validation (tests) -------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise StorageError if any structural invariant is violated."""
        self._check_node(self._root, None, None, depth=1)
        # Leaf chain must be sorted and complete.
        seen = 0
        prev_key = None
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            for key in leaf.keys:
                if prev_key is not None and not prev_key < key:
                    raise StorageError("leaf chain keys out of order")
                prev_key = key
                seen += 1
            leaf = leaf.next_leaf
        if seen != self._num_keys:
            raise StorageError(
                f"leaf chain has {seen} keys, expected {self._num_keys}"
            )

    def _check_node(self, node: _Node, low: Any, high: Any, depth: int) -> int:
        for key in node.keys:
            if low is not None and key < low:
                raise StorageError("key below subtree lower bound")
            if high is not None and key >= high:
                raise StorageError("key above subtree upper bound")
        if sorted(node.keys) != node.keys:
            raise StorageError("node keys not sorted")
        if node.is_leaf:
            if len(node.keys) > self.leaf_capacity:
                raise StorageError("leaf over capacity")
            if depth != self.height:
                raise StorageError("leaves at different depths")
            return depth
        internal: _Internal = node  # type: ignore[assignment]
        if len(internal.children) != len(internal.keys) + 1:
            raise StorageError("internal child/key count mismatch")
        if len(internal.children) > self.internal_fanout:
            raise StorageError("internal node over fan-out")
        bounds = [low, *internal.keys, high]
        for i, child in enumerate(internal.children):
            self._check_node(child, bounds[i], bounds[i + 1], depth + 1)
        return depth


def _even_chunks(count: int, capacity: int) -> Iterator[tuple[int, int]]:
    """Split ``range(count)`` into the fewest runs of at most
    ``capacity``, sized within one of each other."""
    chunks = -(-count // capacity)
    base, extra = divmod(count, chunks)
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        yield start, stop
        start = stop


def build_index(table, column: str) -> BPlusTree:
    """Index ``table`` on ``column``: key → rid for every stored row."""
    tree = BPlusTree()
    schema = table.schema
    idx = schema.index_of(column)
    unpack = schema.field_codec(idx).unpack_from
    from_storage = schema[idx].dtype.from_storage
    first = HEADER_SIZE + schema.offset_of(idx)
    size = schema.tuple_size
    pairs = []
    for page_no in range(table.num_pages):
        page = table.read_page(page_no)
        data = page.data
        pairs.extend(
            (from_storage(unpack(data, first + slot * size)[0]), (page_no, slot))
            for slot in range(page.num_tuples)
        )
    tree.bulk_load(pairs)
    return tree
