"""Self-time accounting and wrapping of the tracer."""

import types

import pytest

from spans import Tracer


def fake_clock(ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # outer [0, 10) holds a [1, 3) and b [4, 8); b holds c [5, 6)
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    tracer.enter_phase("query")
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    tracer.end(a)
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    tracer.end(outer)
    tracer.exit_phase()
    assert tracer.self_times() == {
        ("query", "outer", ""): 4,
        ("query", "a", "outer"): 2,
        ("query", "b", "outer"): 3,
        ("query", "c", "b"): 1,
    }
    assert tracer.calls() == {
        ("query", "outer"): 1,
        ("query", "a"): 1,
        ("query", "b"): 1,
        ("query", "c"): 1,
    }


def test_same_name_nested_in_itself_is_not_double_counted():
    # merge [0, 10) calling merge [2, 7): self times 5 + 5, not 10 + 5
    tracer = Tracer(clock=fake_clock([0, 2, 7, 10]))
    outer = tracer.begin("merge")
    inner = tracer.begin("merge")
    tracer.end(inner)
    tracer.end(outer)
    times = tracer.self_times()
    assert times[("", "merge", "")] + times[("", "merge", "merge")] == 10


def test_spans_must_close_in_order():
    tracer = Tracer(clock=fake_clock([0, 1, 2]))
    first = tracer.begin("first")
    tracer.begin("second")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_wrap_records_calls_by_phase_and_unwrap_restores():
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    tracer = Tracer()
    tracer.wrap(module, "work", "work")
    tracer.enter_phase("ingest")
    assert module.work(3) == 6
    tracer.exit_phase()
    assert module.work(4) == 8
    assert tracer.calls() == {("ingest", "work"): 1, ("", "work"): 1}
    tracer.unwrap_all()
    assert module.work is original


def test_wrap_a_method_on_its_class():
    class Thing:
        def value(self):
            return 5

    tracer = Tracer()
    tracer.wrap(Thing, "value", "value")
    assert Thing().value() == 5
    tracer.unwrap_all()
    assert "value" in Thing.__dict__ and Thing().value() == 5
    assert tracer.calls() == {("", "value"): 1}


def test_counts_follow_the_phase():
    tracer = Tracer()
    tracer.enter_phase("save")
    tracer.count("fsyncs")
    tracer.count("bytes_written", 10)
    tracer.exit_phase()
    assert tracer.counts == {("save", "fsyncs"): 1, ("save", "bytes_written"): 10}
