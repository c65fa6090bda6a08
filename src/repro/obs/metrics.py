"""Thread-safe metrics: counters, gauges, latency histograms.

The registry is the single sink every layer reports through — service
admission counters, plan-cache hit rates, buffer-pool stats, disk
pread latency.  It renders in the Prometheus text
exposition format (``Database.metrics_text()``), so the numbers that
drive the shell's ``.cache``/``.metrics`` views and the benchmark gates
come from one source instead of three private structs.

Design notes:

* Metrics are keyed by ``(name, sorted label items)``; ``counter()`` /
  ``gauge()`` / ``histogram()`` are get-or-create and hand back child
  handles that are cheap to update (a lock-protected float/int).
* Histograms use a fixed, bounded bucket ladder (log-spaced by default,
  spanning 1 µs .. 10 s for latencies) and estimate percentiles by
  linear interpolation inside the winning bucket — the classic
  fixed-bucket estimator; exact enough for p50/p95/p99 gates and O(1)
  per observation.
* ``register_collector`` lets owners of live stats structs (buffer
  pool, plan cache, service) contribute point-in-time samples at render
  time instead of double-counting on every update.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_buckets",
]


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced latency buckets from 1 µs to 10 s (1/2.5/5 per decade)."""
    buckets: list[float] = []
    for exp in range(-6, 2):
        for mantissa in ("1", "2.5", "5"):
            buckets.append(float(f"{mantissa}e{exp}"))
    return tuple(buckets)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Prometheus text-format escaping for label values.
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class Counter:
    """A monotonically increasing counter (one labelset)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labelset)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    ``buckets`` are upper bounds (exclusive of +Inf, which is implicit).
    ``observe`` is O(log n) (bisection over ~24 bounds); memory is
    bounded regardless of observation count.
    """

    __slots__ = (
        "name",
        "labels",
        "_lock",
        "_bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: Iterable[float] | None = None,
    ):
        self.name = name
        self.labels = labels
        bounds = tuple(sorted(buckets)) if buckets else default_latency_buckets()
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        idx = self._bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]).

        Linear interpolation within the winning bucket; the +Inf bucket
        reports the observed maximum (we track it exactly).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            total = self._count
            if not total:
                return 0.0
            target = q * total
            seen = 0.0
            for idx, bucket_count in enumerate(self._counts):
                if not bucket_count:
                    continue
                if seen + bucket_count >= target:
                    if idx >= len(self._bounds):
                        return self._max
                    upper = self._bounds[idx]
                    lower = self._bounds[idx - 1] if idx else 0.0
                    lower = max(lower, min(self._min, upper))
                    upper = min(upper, max(self._max, lower))
                    fraction = (target - seen) / bucket_count
                    return lower + (upper - lower) * fraction
                seen += bucket_count
            return self._max

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """A named collection of metrics plus render-time collectors.

    Thread-safe: metric creation takes the registry lock; updates take
    only the per-metric lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[Any, Counter] = {}
        self._gauges: dict[Any, Gauge] = {}
        self._histograms: dict[Any, Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        # Collector output lives apart from instrument state so repeated
        # renders replace (not accumulate) point-in-time samples.
        self._samples: dict[Any, float] = {}

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1])
            return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, key[1])
            return metric

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    name, key[1], buckets
                )
            return metric

    # -- collectors and samples ----------------------------------------------
    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Add a render-time sampler.

        Collectors run at :meth:`render_text` / :meth:`collect` time and
        contribute via :meth:`sample`.  Use them for stats that already
        live in an authoritative struct (buffer pool, plan cache).
        """
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def sample(self, name: str, value: float, **labels: str) -> None:
        """Record a point-in-time sample (collector output)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._samples[key] = float(value)

    def collect(self) -> None:
        """Run registered collectors, refreshing sampled values."""
        with self._lock:
            collectors = list(self._collectors)
            self._samples.clear()
        for collector in collectors:
            collector(self)

    # -- rendering -----------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition of every metric and sample."""
        self.collect()
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            samples = sorted(self._samples.items())
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in counters:
            type_line(name, "counter")
            lines.append(
                f"{name}{_render_labels(labels)} {_format(counter.value)}"
            )
        for (name, labels), gauge in gauges:
            type_line(name, "gauge")
            lines.append(
                f"{name}{_render_labels(labels)} {_format(gauge.value)}"
            )
        for (name, labels), sample_value in samples:
            type_line(name, "gauge")
            lines.append(
                f"{name}{_render_labels(labels)} {_format(sample_value)}"
            )
        for (name, labels), hist in histograms:
            type_line(name, "histogram")
            with hist._lock:
                counts = list(hist._counts)
                bounds = hist._bounds
                total = hist._count
                total_sum = hist._sum
            cumulative = 0
            for idx, bound in enumerate(bounds):
                cumulative += counts[idx]
                le = 'le="%s"' % _format(bound)
                lines.append(
                    f"{name}_bucket{_render_labels(labels, le)} {cumulative}"
                )
            cumulative += counts[-1]
            inf = 'le="+Inf"'
            lines.append(
                f"{name}_bucket{_render_labels(labels, inf)} {cumulative}"
            )
            lines.append(
                f"{name}_sum{_render_labels(labels)} {_format(total_sum)}"
            )
            lines.append(f"{name}_count{_render_labels(labels)} {total}")
            for q in (0.50, 0.95, 0.99):
                quantile = 'quantile="%g"' % q
                lines.append(
                    f"{name}{_render_labels(labels, quantile)} "
                    f"{_format(hist.percentile(q))}"
                )
        return "\n".join(lines) + "\n" if lines else ""


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
