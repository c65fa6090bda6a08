import io
import itertools

import pytest

from benchmarks.e2e import DEFAULT_SEED, HELD_OUT_SEED, streams


def _take(workload, seed, n, width=1):
    return [
        list(itertools.islice(lane, n))
        for lane in streams.lanes(workload, seed, "full", width)
    ]


@pytest.mark.parametrize(
    "workload",
    ["adhoc_analytic", "dashboard_repeat", "shape_churn", "oltp_wire"],
)
def test_a_fixed_seed_gives_the_same_stream(workload):
    first = _take(workload, DEFAULT_SEED, 200, streams.OLTP_LANES)
    assert first == _take(workload, DEFAULT_SEED, 200, streams.OLTP_LANES)
    assert first != _take(workload, HELD_OUT_SEED, 200, streams.OLTP_LANES)


def test_dump_is_byte_identical_across_invocations():
    def dump():
        out = io.StringIO()
        for workload in ("adhoc_analytic", "oltp_wire"):
            streams.dump(workload, DEFAULT_SEED, "smoke", out)
        return out.getvalue()

    assert dump() == dump()
    assert dump().count("\n") == (30 + 6) + 4 * (40 + 10)


def test_adhoc_is_balanced_and_never_repeats_a_statement():
    (ops,) = _take("adhoc_analytic", 5, 300)
    assert len({op.sql for op in ops}) == 300
    for template in streams.TPCH_TEMPLATES:
        assert sum(op.template == template for op in ops) == 100


def test_dashboard_repeats_a_panel_and_writes_every_fortieth():
    (ops,) = _take("dashboard_repeat", 5, 24 + 400)
    panel, timed = ops[:24], ops[24:]
    assert len({op.sql for op in panel}) == 24
    reads = [op for op in timed if op.kind == streams.READ]
    assert {op.sql for op in reads} <= {op.sql for op in panel}
    writes = [i for i, op in enumerate(timed) if op.kind == streams.WRITE]
    assert writes == list(range(39, 400, 40))
    # Each read knows how many inserts precede it.
    assert [op.epoch for op in timed] == sorted(op.epoch for op in timed)
    assert timed[-1].epoch == len(writes)


def test_churn_shapes_are_structurally_distinct():
    """Distinct after the literals are masked out, which is what makes
    every statement a plan-cache miss."""
    import re

    (ops,) = _take("shape_churn", 5, 2000)
    masked = {re.sub(r"\b\d+\b", "?", op.sql) for op in ops}
    assert len(masked) == 2000


def test_oltp_lanes_touch_disjoint_ids_and_follow_the_mix():
    lanes = _take("oltp_wire", 5, 2000, streams.OLTP_LANES)
    touched = []
    for lane, ops in enumerate(lanes):
        own = streams.lane_ids("full", lane)
        ids = set()
        for op in ops:
            if op.template == "range":
                assert own.start <= op.params[0] < op.params[1] <= own.stop
                continue
            id_ = op.params[1] if op.template == "update" else op.params[0]
            assert id_ in own or id_ >= 1_000_000 * (lane + 1)
            ids.add(id_)
        touched.append(ids)
        reads = sum(op.kind == streams.READ for op in ops)
        assert 0.75 < reads / len(ops) < 0.85
    for a, b in itertools.combinations(touched, 2):
        assert not a & b
