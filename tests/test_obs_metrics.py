"""Tests for the metrics registry and the telemetry no-perturbation
guarantee."""

import json

import pytest

from repro.core import (
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.experiments.serialization import result_to_dict
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_boundaries,
)
from repro.sim import Environment
from repro.sim.monitoring import TimeWeightedValue
from repro.workload import standard_batch

from tests.conftest import ideal_transputer


# -- instruments ---------------------------------------------------------
def test_counter_monotone():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_time_average_and_series():
    env = Environment()
    g = Gauge("g", env=env, initial=2.0, series=True)
    env.run(until=env.timeout(1.0))
    g.set(4.0)
    env.run(until=env.timeout(1.0))
    # 2.0 for 1s then 4.0 for 1s -> time-average 3.0.
    assert g.time_average() == pytest.approx(3.0)
    assert g.samples == [(0.0, 2.0), (1.0, 4.0)]


def test_gauge_matches_time_weighted_value():
    """``Gauge.set`` inlines ``TimeWeightedValue.update``: both report
    the same level, extremes and time average, NaN included."""
    env = Environment()
    gauge = Gauge("g", env=env, initial=1.0, series=True)
    ref = TimeWeightedValue(env, initial=1.0)
    for dt, value in ((0.5, 3.0), (0.0, -2.0), (0.25, 9.0), (1.0, 0.5),
                      (0.5, float("nan")), (0.5, 4.0)):
        env.run(until=env.timeout(dt))
        gauge.set(value)
        ref.update(value)
        assert repr((gauge.value, gauge.to_dict()["max"],
                     gauge.to_dict()["min"], gauge.time_average())) == repr(
            (ref.value, ref.max, ref.min, ref.time_average()))
    assert gauge.samples[-1] == (env.now, 4.0)


def test_histogram_fixed_buckets_and_merge_exact():
    a = Histogram("h")
    b = Histogram("h")
    for x in (1e-6, 1e-3, 0.5, 2.0):
        a.observe(x)
    for x in (1e-6, 10.0, 1e6):  # includes overflow bucket
        b.observe(x)
    merged = Histogram("m")
    merged.merge(a)
    merged.merge(b)
    # Exact: bucket counts are sums, totals/extrema combine.
    both = Histogram("both")
    for x in (1e-6, 1e-3, 0.5, 2.0, 1e-6, 10.0, 1e6):
        both.observe(x)
    assert merged.counts == both.counts
    assert merged.count == both.count == 7
    assert merged.total == pytest.approx(both.total)
    assert merged.min == both.min and merged.max == both.max


def test_histogram_merge_rejects_different_boundaries():
    a = Histogram("a")
    b = Histogram("b", boundaries=log_boundaries(per_decade=2))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_quantile_upper_bound():
    h = Histogram("h")
    for x in [0.001] * 99 + [100.0]:
        h.observe(x)
    assert h.quantile(0.5) >= 0.001
    assert h.quantile(1.0) == h.max


# -- registry ------------------------------------------------------------
def test_registry_get_or_create_and_type_guard():
    reg = MetricsRegistry(env=Environment())
    c1 = reg.counter("jobs")
    c2 = reg.counter("jobs")
    assert c1 is c2
    with pytest.raises(TypeError):
        reg.gauge("jobs")
    assert reg.names() == ["jobs"]
    assert json.dumps(reg.to_dict())  # JSON-serialisable


def test_registry_merge_histograms_by_prefix():
    reg = MetricsRegistry(env=Environment())
    reg.histogram("mem.job.wait").observe(1.0)
    reg.histogram("mem.mailbox.wait").observe(2.0)
    merged = reg.merge_histograms("mem.")
    assert merged.count == 2
    assert merged.total == pytest.approx(3.0)


def test_registry_merge_counters_histograms_skip_gauges():
    env = Environment()
    a = MetricsRegistry(env=env)
    b = MetricsRegistry(env=env)
    a.counter("jobs").inc(2)
    b.counter("jobs").inc(3)
    b.counter("only_b").inc(7)
    a.histogram("lat").observe(1.0)
    b.histogram("lat").observe(2.0)
    a.gauge("level").set(5.0)
    b.gauge("level").set(9.0)
    a.merge(b)
    assert a.counter("jobs").value == 5
    assert a.counter("only_b").value == 7
    assert a.histogram("lat").count == 2
    assert a.histogram("lat").total == pytest.approx(3.0)
    # Gauges are time-weighted levels: merging is undefined, so skipped.
    assert a.gauge("level").value == 5.0
    # The merged-from registry is untouched.
    assert b.counter("jobs").value == 3


def test_registry_merge_rejects_mismatched_histogram_geometry():
    """Regression: a same-named histogram pair with different bucket
    boundaries must raise, not silently mis-merge percentiles."""
    a = MetricsRegistry(env=Environment())
    b = MetricsRegistry(env=Environment())
    a.histogram("lat").observe(1.0)
    b.histogram("lat", boundaries=log_boundaries(per_decade=2)).observe(1.0)
    with pytest.raises(ValueError, match="boundaries"):
        a.merge(b)
    # Missing-on-this-side histograms adopt the source geometry exactly.
    c = MetricsRegistry(env=Environment())
    c.merge(b)
    assert c.histogram("lat").boundaries == log_boundaries(per_decade=2)
    assert c.histogram("lat").count == 1


def test_registry_merge_rejects_kind_mismatch():
    a = MetricsRegistry(env=Environment())
    b = MetricsRegistry(env=Environment())
    a.counter("x")
    b.histogram("x")
    with pytest.raises(TypeError):
        a.merge(b)


def test_registry_rejects_conflicting_histogram_geometry():
    """An explicit geometry must match the registered histogram's; a
    lookup without one returns the histogram whatever its geometry."""
    reg = MetricsRegistry(env=Environment())
    hist = reg.histogram("x")
    with pytest.raises(ValueError, match="'x'"):
        reg.histogram("x", boundaries=log_boundaries(per_decade=2))
    assert reg.histogram("x", boundaries=log_boundaries()) is hist
    assert reg.histogram("x") is hist
    coarse = reg.histogram("y", boundaries=log_boundaries(per_decade=2))
    assert reg.histogram("y") is coarse
    with pytest.raises(ValueError, match="'y'"):
        reg.histogram("y", boundaries=log_boundaries())


# -- satellite: TimeWeightedValue guard ---------------------------------
def test_time_average_rejects_horizon_before_last_change():
    env = Environment()
    probe = TimeWeightedValue(env, initial=1.0)
    env.run(until=env.timeout(2.0))
    probe.update(5.0)
    with pytest.raises(ValueError):
        probe.time_average(until=1.0)
    # At exactly the last change it is fine.
    assert probe.time_average(until=2.0) == pytest.approx(1.0)


# -- no-perturbation guarantee ------------------------------------------
def _run(policy_factory, telemetry):
    cfg = SystemConfig(num_nodes=8, topology="linear",
                       transputer=ideal_transputer(), telemetry=telemetry)
    batch = standard_batch("matmul", num_small=4, num_large=2,
                           small_size=16, large_size=32)
    return MulticomputerSystem(cfg, policy_factory()).run_batch(batch)


def _normalised(result):
    """result_to_dict with job names replaced by batch-relative indices.

    Job names carry a process-global id counter, so two otherwise
    identical runs name their jobs differently; everything else must
    match byte for byte.
    """
    data = result_to_dict(result)
    for i, job in enumerate(data["jobs"]):
        job["name"] = f"job#{i}"
    return json.dumps(data, sort_keys=True).encode()


@pytest.mark.parametrize("policy_factory", [
    TimeSharing, lambda: StaticSpaceSharing(4),
])
def test_telemetry_does_not_perturb_results(policy_factory):
    """Instrumented and plain runs serialise byte-identically."""
    plain = _run(policy_factory, telemetry=False)
    instrumented = _run(policy_factory, telemetry=True)
    assert _normalised(plain) == _normalised(instrumented)
    assert plain.snapshot == instrumented.snapshot


def test_telemetry_off_by_default():
    result = _run(TimeSharing, telemetry=False)
    assert result is not None
    assert SystemConfig().telemetry is False


def test_telemetry_object_populated_when_enabled():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer(), telemetry=True)
    system = MulticomputerSystem(cfg, TimeSharing())
    system.run_batch(standard_batch("matmul", num_small=2, num_large=0,
                                    small_size=16))
    tel = system.telemetry
    assert tel is not None
    assert system.trace_recorder is tel.recorder
    assert len(tel.recorder) > 0
    assert tel.metrics.get("cpu.dispatch_latency").count > 0
    summary = tel.summary()
    assert summary["events"] == len(tel.recorder)
    assert "dropped" in summary


# -- detached (picklable) registries -------------------------------------
def test_registry_detach_freezes_gauges_and_pickles():
    import pickle

    from repro.obs.metrics import FrozenGauge
    from repro.sim import Environment

    env = Environment()
    reg = MetricsRegistry(env=env)
    reg.counter("jobs").inc(3)
    reg.histogram("lat").observe(0.5)
    gauge = reg.gauge("queue")
    gauge.set(2.0)
    env.timeout(1)
    env.run_all()

    detached = reg.detach()
    frozen = detached.get("queue")
    assert isinstance(frozen, FrozenGauge)
    assert frozen.value == 2.0
    assert frozen.time_average() == gauge.time_average()
    assert detached.get("jobs").value == 3
    assert "queue" in detached.gauges()
    with pytest.raises(TypeError, match="frozen"):
        frozen.set(5.0)

    clone = pickle.loads(pickle.dumps(detached))
    assert clone.to_dict() == detached.to_dict()
    # Detaching twice is stable (frozen gauges pass through).
    assert detached.detach().to_dict() == detached.to_dict()


def test_detached_registry_merges_like_a_live_one():
    from repro.sim import Environment

    env = Environment()
    reg = MetricsRegistry(env=env)
    reg.counter("jobs").inc(2)
    reg.histogram("lat").observe(1.0)
    reg.gauge("queue").set(4.0)

    combined = MetricsRegistry(env=None, series=False)
    combined.merge(reg.detach())
    combined.merge(reg.detach())
    assert combined.get("jobs").value == 4
    assert combined.get("lat").count == 2
    assert combined.get("queue") is None  # gauges skipped by contract
