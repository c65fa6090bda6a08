"""BENCHMARK.json stays inside the builder's limits (a file outside them
is refused before a single run), and PREDICTIONS.json covers it."""

import json
import re
from fnmatch import fnmatchcase

from benchmarks.e2e import ROOT, WORKLOADS, load_spec

SPEC = load_spec()
PREDICTIONS = json.loads(
    (ROOT / "benchmarks" / "e2e" / "PREDICTIONS.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_well_formed_and_named_once():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_has_exactly_one_prediction():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {
        "write_p50_ms", "failed_share",
    }
    groups = PREDICTIONS["predictions"]
    for name in per_layer:
        matching = [
            group for group in groups
            if any(fnmatchcase(name, pattern) for pattern in group["metrics"])
        ]
        assert len(matching) == 1, (name, matching)
    for group in groups:
        for pattern in group["metrics"]:
            assert any(fnmatchcase(name, pattern) for name in per_layer)
        for metric, workload in group["moves"]:
            assert metric in end_to_end, (group["metrics"], metric)
            assert workload in WORKLOADS, (group["metrics"], workload)
    for flag in ("exact", "program_reported"):
        assert set(PREDICTIONS[flag]["metrics"]) <= set(per_layer)
    assert set(PREDICTIONS["exact"]["workloads"]) <= set(WORKLOADS)
    assert PREDICTIONS["claim"] is None
