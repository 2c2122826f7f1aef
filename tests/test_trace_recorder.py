"""Tests for the structured trace recorder."""

import pickle

import pytest

from repro.core import MulticomputerSystem, StaticSpaceSharing, SystemConfig
from repro.trace import TraceEvent, TraceRecorder
from repro.workload import standard_batch

from tests.conftest import ideal_transputer


def traced_run():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer(), trace=True)
    system = MulticomputerSystem(cfg, StaticSpaceSharing(2))
    batch = standard_batch("matmul", num_small=3, num_large=1,
                           small_size=16, large_size=32)
    result = system.run_batch(batch)
    return system, result


def test_recorder_basic_record_and_query():
    rec = TraceRecorder()
    rec.record(1.0, "x", "a", k=1)
    rec.record(2.0, "y", "a")
    rec.record(3.0, "x", "b")
    assert len(rec) == 3
    assert [e.subject for e in rec.by_category("x")] == ["a", "b"]
    assert [e.category for e in rec.by_subject("a")] == ["x", "y"]
    assert [e.time for e in rec.between(1.5, 3.0)] == [2.0, 3.0]
    assert rec.categories() == {"x": 2, "y": 1}


def test_recorder_capacity_bound():
    rec = TraceRecorder(capacity=2)
    for i in range(5):
        rec.record(i, "c", "s")
    assert len(rec) == 2
    assert rec.dropped == 3


def test_recorder_ring_evicts_oldest_first():
    """A full recorder keeps the *newest* events (the end of the run)."""
    rec = TraceRecorder(capacity=3)
    for i in range(10):
        rec.record(float(i), "c", f"s{i}")
    assert [e.time for e in rec] == [7.0, 8.0, 9.0]
    assert [e.subject for e in rec] == ["s7", "s8", "s9"]
    assert rec.dropped == 7


def test_recorder_summary_and_dropped_in_text():
    rec = TraceRecorder(capacity=2)
    for i in range(4):
        rec.record(float(i), "c", "s")
    assert rec.summary() == {"events": 2, "dropped": 2, "capacity": 2}
    assert "2 older events dropped" in rec.to_text()


def test_recorder_unbounded_never_drops():
    rec = TraceRecorder()
    for i in range(100):
        rec.record(float(i), "c", "s")
    assert len(rec) == 100
    assert rec.dropped == 0
    assert rec.summary()["capacity"] is None


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_trace_event_rendering():
    e = TraceEvent(1.25, "job.started", "job1", {"size": "small"})
    s = str(e)
    assert "job.started" in s and "job1" in s and "size=small" in s


def test_trace_event_is_immutable():
    e = TraceEvent(1.0, "c", "s", {"k": 1})
    for field in ("time", "category", "subject", "detail"):
        with pytest.raises(AttributeError):
            setattr(e, field, None)
    with pytest.raises(AttributeError):
        e.extra = 1


def test_trace_event_equality_and_hash_ignore_detail():
    a = TraceEvent(1.0, "c", "s", {"k": 1})
    b = TraceEvent(1.0, "c", "s", {"k": 2})
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TraceEvent(1.0, "c", "t", {"k": 1})
    assert a != TraceEvent(2.0, "c", "s", {"k": 1})
    assert a != (1.0, "c", "s", {"k": 1})


def test_trace_event_pickle_round_trip_keeps_detail():
    e = TraceEvent(0.5, "cpu.slice", "node0.cpu", {"dur": 0.1, "tag": 3})
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is TraceEvent
    assert back == e
    assert (back.time, back.category, back.subject) == (0.5, "cpu.slice",
                                                         "node0.cpu")
    assert list(back.detail.items()) == [("dur", 0.1), ("tag", 3)]
    rec = TraceRecorder(capacity=2)
    for i in range(3):
        rec.record(float(i), "c", i, n=i)
    back = pickle.loads(pickle.dumps(rec))
    assert [(e.time, e.subject, e.detail) for e in back] == [
        (1.0, "1", {"n": 1}), (2.0, "2", {"n": 2})]
    assert back.dropped == 1


def test_trace_event_repr_and_default_detail():
    e = TraceEvent(1.25, "job.started", "job1")
    assert e.detail == {}
    assert repr(e) == ("TraceEvent(time=1.25, category='job.started', "
                       "subject='job1', detail={})")
    assert str(e) == "[    1.250000] job.started  job1"


def test_system_trace_captures_job_lifecycle():
    system, result = traced_run()
    rec = system.trace_recorder
    assert rec is not None
    cats = rec.categories()
    n = len(result.jobs)
    assert cats["job.submitted"] == n
    assert cats["job.dispatched"] == n
    assert cats["job.started"] == n
    assert cats["job.completed"] == n
    # Transitions of each job are chronological.
    for job in result.jobs:
        times = [e.time for e in rec.by_subject(job.name)]
        assert times == sorted(times)
        assert len(times) == 4


def test_trace_text_rendering_and_limit():
    system, _ = traced_run()
    text = system.trace_recorder.to_text(limit=5)
    assert "job.submitted" in text
    assert "more)" in text


def test_trace_disabled_by_default():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    system = MulticomputerSystem(cfg, StaticSpaceSharing(2))
    system.run_batch(standard_batch("matmul", num_small=2, num_large=0,
                                    small_size=16))
    assert system.trace_recorder is None
