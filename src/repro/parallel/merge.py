"""Stable k-way merge, for extending sorted stagings.

:func:`~repro.parallel.stage.extend_staged` merges a banked sorted
staging with the staging of the rows appended after it.  Runs are
merged in heap order and key ties go to the earlier run, so the result
equals one stable sort of the concatenated runs — what the generated
staging function's ``list.sort`` computes over the whole heap.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Sequence


def run_key(positions: Sequence[int]) -> Callable:
    """Ascending key extractor over slot positions (staging sorts)."""
    return itemgetter(*positions)


def kway_merge(runs: Sequence[list], key: Callable) -> list:
    """Merge sorted runs into one list, stable across run order.

    Heap entries are ``(key(row), run_index, row_index)``: equal keys
    fall back to the run index, so ties always drain the earlier run
    first — the property that makes the merge equivalent to one stable
    sort of the concatenated runs.  Empty runs are skipped; a single
    run is returned as-is.  (``heapq.merge`` behaves the same way on
    CPython, but its cross-iterable tie order is an implementation
    detail; the explicit tuple makes the stability this subsystem's
    byte-identical guarantee rests on hold by construction.)
    """
    live = [run for run in runs if run]
    if not live:
        return []
    if len(live) == 1:
        return live[0]
    heap = [(key(run[0]), index, 0) for index, run in enumerate(live)]
    heapq.heapify(heap)
    out: list = []
    append = out.append
    while heap:
        _, run_index, row_index = heap[0]
        run = live[run_index]
        append(run[row_index])
        row_index += 1
        if row_index < len(run):
            heapq.heapreplace(
                heap, (key(run[row_index]), run_index, row_index)
            )
        else:
            heapq.heappop(heap)
    return out
