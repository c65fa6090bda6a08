"""Perf-regression reporting over ``BENCH_*.json`` run histories.

Every benchmark artifact written through
:func:`benchmarks.conftest.save_bench_json` carries a bounded
``history`` list of previous runs.  This module turns that trajectory
into a comparative report and a CI gate: for each **gated** metric the
current value is compared against the *median* of its history (median,
not last-run, so one noisy CI box does not whipsaw the gate), and a
shortfall beyond the threshold fails the build.

Usage (CI wires this as a step)::

    python -m repro.obs.regress --results-dir benchmarks/results \
        --threshold 0.25 --fail-on-regression \
        --report benchmarks/results/regression_report.txt

First runs pass trivially: a metric with fewer than ``--min-history``
prior samples is reported as ``baseline`` and never gates.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass

from repro.bench.reporting import render_table

__all__ = [
    "DEFAULT_THRESHOLD",
    "GATED_METRICS",
    "MetricCheck",
    "check_results_dir",
    "main",
    "render_report",
]

DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_HISTORY = 2

#: artifact file → ((metric key, higher_is_better, gated), ...).
#: Gated metrics fail CI on regression; ungated ones are informational
#: (overhead ratios hover near zero, where relative thresholds are
#: meaningless noise).
GATED_METRICS: dict[str, tuple[tuple[str, bool, bool], ...]] = {
    "BENCH_parallel.json": (
        ("inter_query_speedup", True, True),
        ("intra_query_speedup", True, True),
    ),
    "BENCH_parallel_join.json": (("speedup", True, True),),
    "BENCH_multiproc.json": (("speedup", True, True),),
    "BENCH_pipeline.json": (("speedup", True, True),),
    "BENCH_observability.json": (
        ("disabled_overhead", False, False),
        ("insights_overhead", False, False),
    ),
    "BENCH_scheduler.json": (("mixed_speedup", True, True),),
    "BENCH_server.json": (
        ("qps", True, True),
        ("p99_ms", False, True),
    ),
    "BENCH_write_cache.json": (("staging_speedup", True, True),),
    "BENCH_index.json": (
        ("point_speedup", True, True),
        ("update_speedup", True, True),
    ),
}


@dataclass
class MetricCheck:
    """One metric's current value against its history."""

    artifact: str
    metric: str
    higher_is_better: bool
    gated: bool
    current: float | None
    median: float | None
    samples: int
    #: Signed relative change vs the median, oriented so that a
    #: *negative* value is always a regression (speedup fell, or an
    #: overhead grew).
    change: float | None

    @property
    def regressed(self) -> bool:
        return (
            self.gated
            and self.change is not None
            and self.change < -DEFAULT_THRESHOLD
        )

    def regressed_beyond(self, threshold: float) -> bool:
        return (
            self.gated
            and self.change is not None
            and self.change < -threshold
        )

    @property
    def status(self) -> str:
        if self.current is None:
            return "missing"
        if self.change is None:
            return "baseline"
        return "ok"


def _comparable_host(entry: dict, current_host) -> bool:
    """Whether a history entry's host can be compared with this run's.

    Parallel speedups scale with core count, so comparing a run from a
    2-core box against an 8-core median manufactures regressions (or
    hides real ones).  An entry only gates when its recorded
    ``host.cpu_count`` matches the current run's; entries written
    before hosts were stamped (no ``host`` key) stay included, as does
    everything when the current run itself carries no fingerprint.
    """
    if not isinstance(current_host, dict):
        return True
    cpu_count = current_host.get("cpu_count")
    if cpu_count is None:
        return True
    host = entry.get("host")
    if not isinstance(host, dict):
        return True
    return host.get("cpu_count") in (None, cpu_count)


def _history_values(payload: dict, metric: str) -> list[float]:
    current_host = payload.get("host")
    values: list[float] = []
    for entry in payload.get("history", []):
        if not _comparable_host(entry, current_host):
            continue
        value = entry.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values.append(float(value))
    return values


def _relative_change(
    current: float, median: float, higher_is_better: bool
) -> float | None:
    """Signed change vs the median; negative always means "got worse"."""
    if median == 0:
        return None
    change = (current - median) / abs(median)
    return change if higher_is_better else -change


def check_results_dir(
    results_dir: str,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> list[MetricCheck]:
    """Evaluate every known artifact under ``results_dir``."""
    checks: list[MetricCheck] = []
    for artifact, metrics in sorted(GATED_METRICS.items()):
        path = os.path.join(results_dir, artifact)
        payload: dict | None = None
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    loaded = json.load(handle)
                if isinstance(loaded, dict):
                    payload = loaded
            except (OSError, json.JSONDecodeError):
                payload = None
        for metric, higher, gated in metrics:
            if payload is None:
                checks.append(
                    MetricCheck(
                        artifact, metric, higher, gated,
                        current=None, median=None, samples=0, change=None,
                    )
                )
                continue
            raw = payload.get(metric)
            current = (
                float(raw)
                if isinstance(raw, (int, float))
                and not isinstance(raw, bool)
                else None
            )
            history = _history_values(payload, metric)
            median = (
                statistics.median(history)
                if len(history) >= min_history
                else None
            )
            change = (
                _relative_change(current, median, higher)
                if current is not None and median is not None
                else None
            )
            checks.append(
                MetricCheck(
                    artifact, metric, higher, gated,
                    current=current,
                    median=median,
                    samples=len(history),
                    change=change,
                )
            )
    return checks


def render_report(
    checks: list[MetricCheck], threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Comparative table plus a verdict line (the CI artifact)."""
    rows = []
    for check in checks:
        verdict = check.status
        if check.change is not None:
            verdict = (
                "REGRESSED"
                if check.regressed_beyond(threshold)
                else "ok"
            )
        rows.append(
            (
                check.artifact.replace("BENCH_", "").replace(".json", ""),
                check.metric,
                "-" if check.current is None else f"{check.current:.4g}",
                "-" if check.median is None else f"{check.median:.4g}",
                check.samples,
                "-"
                if check.change is None
                else f"{check.change * 100:+.1f}%",
                "gate" if check.gated else "info",
                verdict,
            )
        )
    table = render_table(
        f"Perf regression report (median-of-history, "
        f"threshold {threshold * 100:.0f}%)",
        [
            "bench", "metric", "current", "median",
            "runs", "change", "mode", "verdict",
        ],
        rows,
        notes=[
            "change is oriented so negative always means worse; only "
            "'gate' rows can fail CI",
            "a metric needs history from at least "
            f"{DEFAULT_MIN_HISTORY} prior runs before it gates "
            "(first runs are baselines)",
        ],
    )
    regressed = [c for c in checks if c.regressed_beyond(threshold)]
    if regressed:
        names = ", ".join(f"{c.artifact}:{c.metric}" for c in regressed)
        return table + f"\nverdict: REGRESSED ({names})"
    return table + "\nverdict: ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description=(
            "Compare current BENCH_*.json metrics against the median "
            "of their run-over-run history."
        ),
    )
    parser.add_argument(
        "--results-dir",
        default=os.path.join("benchmarks", "results"),
        help="directory holding BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative regression that fails a gated metric "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=DEFAULT_MIN_HISTORY,
        help="prior runs required before a metric gates",
    )
    parser.add_argument(
        "--report",
        default="",
        help="also write the report to this path",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any gated metric regressed beyond the "
        "threshold",
    )
    args = parser.parse_args(argv)

    checks = check_results_dir(
        args.results_dir, min_history=args.min_history
    )
    report = render_report(checks, threshold=args.threshold)
    print(report)
    if args.report:
        os.makedirs(
            os.path.dirname(os.path.abspath(args.report)), exist_ok=True
        )
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    regressed = [
        c for c in checks if c.regressed_beyond(args.threshold)
    ]
    if regressed and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
