import subprocess
import sys
import time

from benchmarks.e2e import RESULTS, ROOT, WORKLOADS


def test_smoke_scale_runs_all_four_workloads_in_under_thirty_seconds():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 30, f"smoke suite took {elapsed:.1f} s"
    for workload in WORKLOADS:
        assert f"{workload} seed=" in proc.stdout
        assert (RESULTS / f"trace_{workload}.json").exists()
    assert "trace_overhead_ratio" in proc.stdout
