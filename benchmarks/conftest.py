"""Shared benchmark infrastructure.

Every benchmark module regenerates one of the paper's tables/figures:
the rendered text table is printed and saved under
``benchmarks/results/`` so a ``pytest benchmarks/ --benchmark-only`` run
leaves the full reproduction record behind, alongside pytest-benchmark's
own timing statistics.

Set ``REPRO_BENCH_SCALE`` to ``tiny`` / ``small`` / ``medium`` (default
``small``) to trade fidelity against wall time.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.reporting import ExperimentResult

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Workload scale for all benchmark modules.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def save_result(result: ExperimentResult) -> None:
    """Print a reproduced table and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = result.render()
    print()
    print(text)
    slug = "".join(
        ch if ch.isalnum() else "_" for ch in result.name.split(":")[0]
    ).strip("_").lower()
    path = os.path.join(RESULTS_DIR, f"{slug}.txt")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text + "\n\n")


def save_bench_json(filename: str, payload: dict) -> dict:
    """Persist a ``BENCH_*.json`` artifact holding the current run."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return payload


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for name in os.listdir(RESULTS_DIR):
        if name.endswith(".txt"):
            os.remove(os.path.join(RESULTS_DIR, name))
    yield
