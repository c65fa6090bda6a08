import statistics

import pytest

from benchmarks.e2e.calibrate import Calibration
from benchmarks.e2e.measure import (
    highest_supported_percentile,
    percentile,
    samples_beyond,
    spread,
)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 95) == 5.0
    assert percentile(samples, 20) == 1.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_strictly_above_the_rank():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(240, 95) == 12
    assert samples_beyond(0, 95) == 0


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, 50),
        (19, 50),  # 9 beyond the median: nothing is supported, report p50
        (20, 50),
        (40, 75),
        (100, 90),
        (199, 90),  # one short of ten samples beyond p95
        (200, 95),
        (240, 95),  # the issue's floor for a timed phase
        (999, 95),
        (1000, 99),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_spread_is_the_range_below_four_runs_and_interquartile_from_four():
    assert spread([10.0, 11.0]) == pytest.approx(1.0 / 10.5)
    assert spread([4.0, 4.0, 4.0]) == 0.0
    # One slow run in ten moves the range, not the quartiles.
    values = [100.0 + i for i in range(9)] + [160.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((third - first) / 104.5)
    assert spread(values) < 0.06 < (160.0 - 100.0) / 104.5


def test_slowdown_averages_the_samples_that_enclose_an_interval():
    calibration = Calibration()
    calibration.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    calibration.slowdowns = [1.0, 1.0, 1.6, 1.6, 1.0]
    # From the last sample at or before the start to the first at or
    # after the end.
    assert calibration.slowdown(0.2, 0.8) == pytest.approx(1.0)
    assert calibration.slowdown(1.2, 1.8) == pytest.approx(1.3)
    assert calibration.slowdown(2.1, 2.9) == pytest.approx(1.6)
    assert calibration.slowdown(1.5, 3.5) == pytest.approx(
        (1 + 1.6 + 1.6 + 1) / 4
    )
    # Outside the sampled span the nearest sample stands in.
    assert calibration.slowdown(-2.0, -1.0) == pytest.approx(1.0)
    assert calibration.slowdown(5.0, 6.0) == pytest.approx(1.0)
    assert calibration.scaled(2.1, 2.9) == pytest.approx(0.8 / 1.6)


def test_a_sample_times_the_kernel_against_the_reference():
    calibration = Calibration()
    calibration.sample()
    calibration.sample()
    assert len(calibration.times) == len(calibration.slowdowns) == 2
    assert calibration.times[0] < calibration.times[1]
    assert all(0.2 < s < 20 for s in calibration.slowdowns)
