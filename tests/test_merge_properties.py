"""Property tests for the stable k-way merge and staging extension.

:func:`~repro.parallel.stage.extend_staged` merges a banked sorted
staging with the staging of the rows appended after it, and the result
must equal what the generated staging code's one stable sort over the
whole heap produces.  These tests check :func:`kway_merge` against that
reference on randomized inputs — random run counts and sizes, heavy
duplication — and :func:`extend_staged` for every prep that orders or
groups rows: a staging extended append by append must equal the
staging of all the rows, directory key order and bucket order included.

Rows carry a trailing *provenance* field ``(run_index, row_index)``
that never participates in keys, so the assertions distinguish a merge
that is merely key-ordered from one that is *stable across run order*
(ties must drain earlier runs first).
"""

from __future__ import annotations

import random

import pytest

from repro.core.runtime import fine_partition_rows, partition_rows
from repro.parallel.merge import kway_merge, run_key
from repro.parallel.stage import extend_staged, staged_rows
from repro.plan.descriptors import (
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Prep,
)

SEEDS = range(24)


def _random_rows(rng: random.Random, count: int) -> list[tuple]:
    """Rows of (small-domain int, float, short string) — heavy on ties."""
    return [
        (
            rng.randrange(8),
            float(rng.randrange(30)) / 2,
            f"s{rng.randrange(4)}",
        )
        for _ in range(count)
    ]


def _tag(runs: list[list[tuple]]) -> list[list[tuple]]:
    """Append provenance ``(run, index)`` so stability is observable."""
    return [
        [row + ((r, i),) for i, row in enumerate(run)]
        for r, run in enumerate(runs)
    ]


def _random_runs(rng: random.Random) -> list[list[tuple]]:
    return [
        _random_rows(rng, rng.randrange(0, 40))
        for _ in range(rng.randrange(0, 7))
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_kway_merge_equals_stable_sort_of_concatenation(seed):
    rng = random.Random(seed)
    positions = rng.sample([0, 1, 2], rng.randrange(1, 4))
    key = run_key(positions)
    runs = _tag(_random_runs(rng))
    for run in runs:
        run.sort(key=key)  # each run arrives sorted
    # The reference: one stable sort over runs concatenated in run
    # (heap) order — provenance breaks no ties, list.sort is stable.
    reference = sorted([row for run in runs for row in run], key=key)
    assert kway_merge(runs, key) == reference


def test_kway_merge_tie_break_drains_earlier_run_first():
    """Explicit witness: equal keys, distinguishable only by provenance."""
    runs = [
        [(1, "a"), (1, "b")],
        [(1, "c")],
        [(0, "d"), (1, "e")],
    ]
    got = kway_merge([list(run) for run in runs], run_key([0]))
    assert got == [(0, "d"), (1, "a"), (1, "b"), (1, "c"), (1, "e")]


def test_kway_merge_degenerate_shapes():
    key = run_key([0])
    assert kway_merge([], key) == []
    assert kway_merge([[], []], key) == []
    only = [(2,), (3,)]
    assert kway_merge([[], only, []], key) == only


# -- extending a staging with appended rows -------------------------------------------

#: name → (prep kind, fine directory?).
PREPS = {
    "sort": (PREP_SORT, False),
    "partition": (PREP_PARTITION, False),
    "fine-partition": (PREP_PARTITION, True),
    "partition-sort": (PREP_PARTITION_SORT, False),
    "fine-partition-sort": (PREP_PARTITION_SORT, True),
}


def _stage(prep: Prep, rows: list[tuple]):
    """The reference staging of ``rows`` in heap order: what the
    generated staging function builds for ``prep``."""
    rows = list(rows)
    if prep.kind == PREP_SORT:
        return sorted(rows, key=run_key(prep.keys))
    if prep.fine:
        parts = fine_partition_rows(rows, prep.keys[0])
    else:
        parts = partition_rows(rows, prep.keys[0], prep.num_partitions)
    if prep.kind == PREP_PARTITION_SORT:
        key = run_key(prep.keys)
        for bucket in parts.values() if prep.fine else parts:
            bucket.sort(key=key)
    return parts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PREPS))
def test_extensions_equal_one_staging_of_every_row(name, seed):
    """A staging extended by one to four appends — some empty — equals
    the staging of the whole heap, and no input is mutated."""
    rng = random.Random(seed)
    kind, fine = PREPS[name]
    prep = Prep(
        kind,
        tuple(rng.sample([0, 1, 2], rng.randrange(1, 4))),
        rng.choice((1, 2, 3, 4, 8)),
        fine=fine,
    )
    # Provenance last: ties in every key stay distinguishable.
    heap = [
        row + (i,) for i, row in enumerate(_random_rows(rng, rng.randrange(80)))
    ]
    staged = _stage(prep, heap)
    for _ in range(rng.randrange(1, 5)):
        appended = _random_rows(rng, rng.randrange(0, 60))
        appended = [row + (len(heap) + i,) for i, row in enumerate(appended)]
        tail = _stage(prep, appended)
        snapshot = (repr(staged), repr(tail))
        extended = extend_staged(prep, staged, tail)
        assert (repr(staged), repr(tail)) == snapshot
        heap += appended
        assert repr(extended) == repr(_stage(prep, heap)), prep
        assert staged_rows(extended) == len(heap)
        staged = extended
