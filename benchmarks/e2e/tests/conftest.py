"""The benchmark's own tests: ``python -m pytest benchmarks/e2e/tests``.

Not part of tier-1 (``testpaths = ["tests"]`` in pyproject.toml).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import require_program  # noqa: E402

require_program()
