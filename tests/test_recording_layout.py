"""The compact recording layout: flat trace records and flat gauge series.

A trace record is one flat tuple ``(time, category, subject, keys,
*values)`` whose ``keys`` tuple is shared by every record from the same
recording site, and a gauge series is one flat ``[t0, v0, t1, v1, ...]``
list.  ``TraceEvent.detail`` and ``Gauge.samples`` build the old views
(a dict per record, a list of pairs per series) on access; these tests
pin that the views equal what the dict-per-record and tuple-per-point
layouts stored.
"""

import pickle

import pytest

from repro.experiments.config import ExperimentScale, figure_spec
from repro.experiments.runner import enumerate_cells, run_cell
from repro.obs.metrics import FrozenGauge, Gauge
from repro.sim import Environment
from repro.trace import TraceEvent, TraceRecorder
from repro.trace.recorder import detail_fields

#: Detail keys, in order, of the dict each fixed recording site used to
#: build for its records.
OLD_KEYS = {
    "cpu.wait": ("dur", "node", "tag", "proc", "kind"),
    "cpu.slice": ("dur", "node", "prio", "tag", "proc"),
    "cpu.preempt": ("node", "tag"),
    "link.transfer": ("dur", "node", "dst", "nbytes", "wait"),
    "net.msg": ("dur", "src", "dst", "src_proc", "dst_proc", "job",
                "nbytes"),
    "mem.wait": ("dur", "node", "region", "job", "nbytes"),
    "buf.wait": ("dur", "node", "job", "hop_class"),
    "job.submitted": ("size", "job"),
    "job.dispatched": ("size", "job"),
    "job.started": ("size", "job"),
    "job.completed": ("size", "job"),
}


@pytest.fixture(scope="module")
def recorded():
    """The recorders of a smoke Figure 4 cell with telemetry and the
    decision ledger on (16 nodes, linear, time-sharing)."""
    scale = ExperimentScale.smoke()
    task = next(t for t in enumerate_cells(figure_spec(4), scale)
                if t["partition_size"] == 16 and t["topology"] == "linear"
                and t["policy_kind"] == "timesharing")
    telemetry = []
    run_cell(scale=scale, telemetry_sink=telemetry, decisions_sink=[],
             **task)
    (_label, _policy, tel), = telemetry
    return tel


def test_no_record_stores_a_dict(recorded):
    records = list(recorded.recorder)
    assert len(records) > 10_000
    for e in records:
        assert type(e) is TraceEvent
        keys = e[3]
        assert type(keys) is tuple
        assert all(type(k) is str for k in keys)
        assert len(e) == 4 + len(keys)
        assert not any(isinstance(field, dict) for field in e)


def test_records_from_one_site_share_one_keys_object(recorded):
    by_category = {}
    for e in recorded.recorder:
        by_category.setdefault(e.category, set()).add(id(e[3]))
    assert set(OLD_KEYS) - {"mem.wait"} <= set(by_category)
    for category in OLD_KEYS:
        assert len(by_category.get(category, ())) <= 1, category
    # The ledger's records go through the converter: one keys object
    # per distinct key order.
    decisions = [e[3] for e in recorded.recorder
                 if e.category == "sched.decision"]
    assert decisions
    assert (len({id(keys) for keys in decisions})
            == len(set(decisions)))


def test_detail_equals_the_old_per_record_dict(recorded):
    for e in recorded.recorder:
        detail = e.detail
        assert type(detail) is dict
        assert list(detail.items()) == list(zip(e[3], e[4:]))
        expected = OLD_KEYS.get(e.category)
        if expected is not None:
            assert tuple(detail) == expected, e.category
        elif e.category == "sched.decision":
            assert tuple(detail)[:3] == ("layer", "kind", "reason")
        else:
            pytest.fail(f"unexpected category {e.category!r}")
        if e.category.startswith("cpu."):
            assert e.subject == f"node{detail['node']}.cpu"
            if e.category == "cpu.slice":
                assert detail["prio"] in ("high", "low")
        elif e.category == "link.transfer":
            assert e.subject == f"link{detail['node']}->{detail['dst']}"
        elif e.category == "buf.wait":
            assert e.subject == f"node{detail['node']}.buffers"
        elif e.category == "net.msg":
            assert e.subject.startswith("msg")
    # A view is a new dict: changing it leaves the record alone.
    e = next(iter(recorded.recorder))
    e.detail.clear()
    assert e.detail


def test_detached_pickled_recorder_keeps_records_and_details(recorded):
    back = pickle.loads(pickle.dumps(recorded.detach()))
    before, after = list(recorded.recorder), list(back.recorder)
    assert after == before
    assert [tuple(e) for e in after] == [tuple(e) for e in before]
    assert [e.detail for e in after] == [e.detail for e in before]
    assert back.recorder.summary() == recorded.recorder.summary()
    # Each keys tuple crosses the pickle once: records still share it.
    slices = {id(e[3]) for e in after if e.category == "cpu.slice"}
    assert len(slices) == 1


def test_trace_event_from_a_dict_round_trips():
    detail = {"dur": 0.25, "node": 3, "prio": "low", "tag": 7, "proc": 0}
    e = TraceEvent(1.5, "cpu.slice", "node3.cpu", detail)
    assert tuple(e) == (1.5, "cpu.slice", "node3.cpu",
                        ("dur", "node", "prio", "tag", "proc"),
                        0.25, 3, "low", 7, 0)
    assert list(e.detail.items()) == list(detail.items())
    again = TraceEvent(2.0, "cpu.slice", "node3.cpu", dict(detail))
    assert again[3] is e[3]
    rec = TraceRecorder()
    rec.record(1.5, "cpu.slice", "node3.cpu", **detail)
    (recorded,) = rec
    assert tuple(recorded) == tuple(e)
    assert recorded[3] is e[3]


def _old_series(changes, max_points):
    """The ``(time, value)`` pairs the tuple-per-point layout kept."""
    samples = [(0.0, 1.0)]
    dropped = 0
    for t, v in changes:
        if len(samples) < max_points:
            samples.append((t, v))
        else:
            dropped += 1
    return samples, dropped


@pytest.mark.parametrize("max_points", [1, 3, 100])
def test_gauge_samples_equal_the_old_pairs(max_points):
    env = Environment()
    gauge = Gauge("g", env=env, initial=1.0, series=True,
                  max_points=max_points)
    changes = []
    for step, value in enumerate((4.0, 2.5, 2.5, 9.0, 0.0, 3.0)):
        env.run(until=env.timeout(0.5 * (step % 2) + 0.25))
        gauge.set(value)
        changes.append((env.now, value))
    samples, dropped = _old_series(changes, max_points)
    assert gauge.samples == samples
    assert gauge.dropped_points == dropped
    assert gauge.to_dict()["points"] == len(samples)
    frozen = FrozenGauge(gauge)
    assert frozen.samples == samples
    back = pickle.loads(pickle.dumps(frozen))
    assert back.samples == samples
    assert back.to_dict() == frozen.to_dict()
    # The view is a new list: changing it leaves the series alone.
    gauge.samples.clear()
    assert gauge.samples == samples


def test_gauge_without_series_has_no_samples():
    env = Environment()
    gauge = Gauge("g", env=env, initial=1.0)
    gauge.set(2.0)
    assert gauge.samples is None
    assert "points" not in gauge.to_dict()


def test_detail_fields_read_what_the_detail_view_holds(recorded):
    """``detail_fields`` gives ``detail.get(name)`` for each name, by
    position, on every record of a recorded run, for present and absent
    names alike, and on a record built without detail."""
    names = (("dur", "tag", "proc"), ("job", "size", "absent"),
             ("kind", "prio"))
    for e in recorded.recorder:
        detail = e.detail
        for wanted in names:
            assert detail_fields(e, wanted) == tuple(
                detail.get(name) for name in wanted)
    bare = TraceEvent(1.0, "cpu.slice", "n0")
    assert detail_fields(bare, ("dur", "tag")) == (None, None)
    assert detail_fields(bare, ("dur",)) == (None,)
