import threading
import types

import pytest

from benchmarks.e2e.spans import Span, Tracer, covered, self_seconds


def _span(id, start, end, parent=None):
    span = Span(id, f"s{id}", "layer", start, parent, None)
    span.end = end
    return span


def test_covered_merges_overlapping_and_clips_overhanging_intervals():
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(1, 2), (1, 2), (1, 2)], 0, 10) == 1
    assert covered([(3, 4), (1, 9), (5, 6)], 0, 10) == 8
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children_not_their_sum():
    spans = [
        _span(1, 0.0, 10.0),
        # Two children that overlap each other (parallel workers) and a
        # third that overhangs the parent's end.
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 3.0, 7.0, parent=1),
        _span(4, 9.0, 12.0, parent=1),
        _span(5, 3.5, 4.0, parent=3),
    ]
    own = self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - (6.0 + 1.0))
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(3.5)
    assert own[5] == pytest.approx(0.5)


def test_nested_spans_inherit_parent_and_request():
    tracer = Tracer()
    with tracer.span("outer", "api", request=7) as outer:
        with tracer.span("inner", "sql") as inner:
            pass
    assert inner.parent == outer.id and inner.request == 7
    assert outer.parent is None
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_adopted_span_on_another_thread_joins_the_request():
    tracer = Tracer()
    root = tracer.begin("roundtrip", "server", request=3)

    def work():
        with tracer.span("execute", "service", root.id, root.request):
            with tracer.span("child", "core"):
                pass

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    tracer.finish(root)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["execute"].parent == root.id
    assert by_name["child"].parent == by_name["execute"].id
    assert {s.request for s in tracer.spans} == {3}


def test_wrap_records_calls_and_unwrap_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = Tracer()
    seen = []
    tracer.wrap(module, "double", "m.double", "m",
                after=lambda span, args, result: seen.append((args, result)))
    assert module.double(4) == 8
    assert [s.name for s in tracer.spans] == ["m.double"]
    assert seen == [((4,), 8)]
    tracer.unwrap_all()
    assert module.double is original


def test_wrap_still_records_a_call_that_raises():
    def boom():
        raise KeyError("x")

    module = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.wrap(module, "boom", "m.boom", "m")
    with pytest.raises(KeyError):
        module.boom()
    assert len(tracer.spans) == 1
    with tracer.span("next", "m") as following:
        pass
    assert following.parent is None  # the failed call left no open span
