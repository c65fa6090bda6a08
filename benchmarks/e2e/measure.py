"""The benchmark's own arithmetic: percentiles and spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)
#: A percentile is reported only with this many samples beyond it
#: (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``p``-th
    nearest-rank percentile."""
    return n - max(1, math.ceil(n * p / 100.0)) if n else 0


def highest_supported_percentile(n: int) -> int:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; 50 when none has."""
    supported = [
        p for p in PERCENTILES if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
    ]
    return supported[-1] if supported else PERCENTILES[0]


def spread(values: Sequence[float]) -> float:
    """How far repeated runs of one commit disagree, as a share of
    their median: the distance between the first and third quartile, as
    the builder's driver takes it — or, below four runs, where
    quartiles would be extrapolations, the whole range."""
    median = statistics.median(values)
    if not median:
        return math.inf
    if len(values) < 4:
        return (max(values) - min(values)) / median
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median
