"""The one-run entry point ``BENCHMARK.json`` names:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Runs from any directory; finds the checkout from its own location.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # A script's own directory leads sys.path; the package root must.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e import require_program

    require_program()
    from benchmarks.e2e.runner import main

    sys.exit(main())
