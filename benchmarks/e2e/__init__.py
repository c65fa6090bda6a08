"""The repo's end-to-end benchmark: four named workloads, measured from
outside the program, with a per-layer trace.

``python -m benchmarks.e2e`` runs the whole suite for people;
``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0|1`` is the one-run form ``BENCHMARK.json`` names.  See
``README.md`` in this directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The checkout root (``benchmarks/e2e/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]
#: The program under test.  The benchmark builds nothing: it imports it.
SRC = ROOT / "src"
#: Trace files and suite reports land here.
RESULTS = Path(__file__).resolve().parent / "results"

#: Seed used when none is given.
DEFAULT_SEED = 20100301
#: Reserved for later PRs' claims: never used while a change is written
#: (choosing-metrics §6: "the claim must also hold on a seed not used
#: while the change was written").
HELD_OUT_SEED = 20100419

#: Workload names are fixed; later issues cite them.
WORKLOADS = ("adhoc_analytic", "dashboard_repeat", "shape_churn", "oltp_wire")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place that names every metric with its
    unit, direction and regression bound.  The code holds only how each
    value is obtained."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or exit when it is not there.

    A directory holding only the benchmark's files has no program to
    measure; that is an error, not a result.
    """
    if not (SRC / "repro").is_dir():
        sys.stderr.write(
            f"benchmarks.e2e: no program to measure ({SRC}/repro missing)\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
