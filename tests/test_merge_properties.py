"""Property tests for extending a sorted staging with appended rows.

:func:`~repro.parallel.stage.extend_staged` merges a banked sorted
staging with the staging of the rows appended after it, and the result
must equal what the generated staging code's one stable sort over the
whole heap produces.  These tests check it against that reference on
randomized inputs — random run sizes, heavy duplication — for a sort
and a partition sort, and for every prep that orders or groups rows: a
staging extended append by append must equal the staging of all the
rows, directory key order and bucket order included.

Rows carry a trailing *provenance* field ``(run_index, row_index)``
that never participates in keys, so the assertions distinguish a merge
that is merely key-ordered from one that is *stable across run order*
(ties must drain the banked run first).
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro.core.runtime import fine_partition_rows, partition_rows
from repro.parallel.stage import extend_staged, staged_rows
from repro.plan.descriptors import (
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Prep,
)

SEEDS = range(24)

#: The sorted stagings: a coarse partition sort extends bucket by
#: bucket, a sort as one run.
SORTED_KINDS = (PREP_SORT, PREP_PARTITION_SORT)


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


def _buckets(kind: str, run: list) -> list:
    """Sorted ``run`` as ``kind`` stages it: one run, or (for a coarse
    partition sort) a list of two buckets, split by position so both
    stay sorted."""
    return run if kind == PREP_SORT else [run[::2], run[1::2]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", SORTED_KINDS)
def test_extension_equals_stable_sort_of_concatenation(kind, seed):
    rng = random.Random(seed)
    positions = tuple(rng.sample([0, 1, 2], rng.randrange(1, 4)))
    key = itemgetter(*positions)
    prep = Prep(kind, positions, 2)
    # Each run arrives sorted, and so does every bucket split from it.
    old, new = (
        _buckets(kind, sorted(run, key=key))
        for run in _tag(
            [_random_rows(rng, rng.randrange(0, 40)) for _ in range(2)]
        )
    )
    # The reference: one stable sort over the runs concatenated in heap
    # order — provenance breaks no ties, ``sorted`` is stable.
    if kind == PREP_SORT:
        reference = sorted(old + new, key=key)
    else:
        reference = [sorted(a + b, key=key) for a, b in zip(old, new)]
    assert extend_staged(prep, old, new) == reference


@pytest.mark.parametrize("kind", SORTED_KINDS)
def test_extension_ties_drain_the_banked_run_first(kind):
    """Explicit witness: equal keys, distinguishable only by provenance."""
    prep = Prep(kind, (0,), 2)
    old = [(0, "a"), (1, "b"), (1, "c")]
    new = [(0, "d"), (1, "e"), (2, "f")]
    want = [(0, "a"), (0, "d"), (1, "b"), (1, "c"), (1, "e"), (2, "f")]
    if kind == PREP_SORT:
        assert extend_staged(prep, old, new) == want
    else:
        assert extend_staged(prep, [old, []], [new, []]) == [want, []]


@pytest.mark.parametrize("kind", SORTED_KINDS)
def test_extension_of_empty_and_single_runs(kind):
    prep = Prep(kind, (0,), 2)
    only = [(2, "x"), (3, "y")]

    def extend(old, new):
        if kind == PREP_SORT:
            return extend_staged(prep, old, new)
        (merged, empty) = extend_staged(prep, [old, []], [new, []])
        assert empty == []
        return merged

    assert extend([], []) == []
    assert extend(only, []) == only
    assert extend([], only) == only


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
        return sorted(rows, key=itemgetter(*prep.keys))
    if prep.fine:
        parts = fine_partition_rows(rows, prep.keys[0])
    else:
        parts = partition_rows(rows, prep.keys[0], prep.num_partitions)
    if prep.kind == PREP_PARTITION_SORT:
        key = itemgetter(*prep.keys)
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
