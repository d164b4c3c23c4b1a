import json

import pytest

from spans import NullTracer, Tracer


def test_self_time_is_duration_minus_what_children_cover():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0)
    tracer.add("infer", 1.0, 4.0, parent=root)
    tracer.add("infer", 3.0, 6.0, parent=root)      # overlaps the first
    tracer.add("check", 8.0, 12.0, parent=root)     # runs past its parent
    table = tracer.self_times()
    # children cover [1, 6] and [8, 10] of [0, 10]: 7 of 10 seconds
    assert table["request"]["self_ms"] == pytest.approx(3000.0)
    assert table["request"]["total_ms"] == pytest.approx(10000.0)
    assert table["infer"]["count"] == 2
    assert table["infer"]["self_ms"] == pytest.approx(6000.0)


def test_context_manager_records_parent_and_op():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("compile"):
            pass
    with tracer.span("op", op=8):
        pass
    (a, b, c) = tracer.spans
    assert (a[1], a[4], a[5]) == ("op", None, 7)
    assert (b[1], b[4], b[5]) == ("compile", a[0], 7)   # inherits the op id
    assert (c[4], c[5]) == (None, 8)
    assert a[2] <= b[2] <= b[3] <= a[3]


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("anything", op=1):
        pass
    assert tracer.add("x", 0, 1) is None
    assert not tracer.enabled


def test_write_jsonl_and_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("op", op=3):
        pass
    stem = str(tmp_path / "trace-x")
    tracer.write(stem)
    lines = [json.loads(line) for line in open(stem + ".jsonl")]
    assert lines[0]["name"] == "op" and lines[0]["op"] == 3
    events = json.load(open(stem + ".chrome.json"))["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["tid"] == 3
