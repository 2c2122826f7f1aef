"""Tests for the streaming steady-state observability layer."""

import io
import math

import numpy as np
import pytest

from repro.analysis import mmc_mean_response
from repro.core import (
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.obs.steadylog import SCHEMA, SteadyLog, read_steady_log
from repro.obs.streaming import (
    BatchSeries,
    OnlineStats,
    OpenRunResult,
    QuantileSketch,
    SteadyStateSink,
    batch_means_ci,
    lag1_autocorrelation,
    mser,
    t_quantile_975,
)
from repro.workload import (
    JobSpec,
    SyntheticForkJoin,
    bursty_arrivals,
    poisson_arrivals,
)

from tests.conftest import ideal_transputer


# ------------------------------------------------------------ OnlineStats
def test_online_stats_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.exponential(2.0, size=1000)
    st = OnlineStats()
    for x in xs:
        st.push(x)
    assert st.n == 1000
    assert st.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
    assert st.variance == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-9)
    assert st.min == float(np.min(xs))
    assert st.max == float(np.max(xs))


def test_online_stats_merge_equals_single_stream():
    rng = np.random.default_rng(1)
    xs = rng.normal(5.0, 3.0, size=997)
    whole = OnlineStats()
    for x in xs:
        whole.push(x)
    merged = OnlineStats()
    for lo, hi in ((0, 100), (100, 640), (640, 997)):
        shard = OnlineStats()
        for x in xs[lo:hi]:
            shard.push(x)
        merged.merge(shard)
    assert merged.n == whole.n
    assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
    assert merged.variance == pytest.approx(whole.variance, rel=1e-9)
    assert merged.min == whole.min and merged.max == whole.max
    # Merging into an empty accumulator copies.
    empty = OnlineStats()
    empty.merge(whole)
    assert empty.mean == whole.mean and empty.n == whole.n


# ---------------------------------------------------------- QuantileSketch
def test_sketch_merged_shards_agree_with_single_stream():
    rng = np.random.default_rng(2)
    xs = rng.lognormal(0.0, 1.5, size=5000)
    single = QuantileSketch("rt")
    for x in xs:
        single.observe(x)
    merged = QuantileSketch("rt")
    for part in np.array_split(xs, 7):
        shard = QuantileSketch("rt")
        for x in part:
            shard.observe(x)
        merged.merge(shard)
    # Bucket counts add exactly, so every quantile agrees exactly.
    assert merged.counts == single.counts
    for q in (0.1, 0.5, 0.9, 0.99):
        assert merged.quantile(q) == single.quantile(q)


def test_sketch_quantile_within_bucket_error_bound():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.exponential(0.5, size=4000))
    sk = QuantileSketch("rt")
    for x in xs:
        sk.observe(x)
    ratio = sk.bucket_ratio
    for q in (0.25, 0.5, 0.9, 0.99):
        true = float(xs[max(0, math.ceil(q * len(xs)) - 1)])
        got = sk.quantile(q)
        assert true / ratio <= got <= true * ratio, (q, true, got)


def test_sketch_registry_merge_carries_over():
    """Same geometry ⇒ MetricsRegistry.merge merges sketches exactly."""
    from repro.obs.metrics import MetricsRegistry

    a, b = MetricsRegistry(), MetricsRegistry()
    sa = QuantileSketch("open.rt")
    sb = QuantileSketch("open.rt")
    for x in (0.1, 0.2, 0.3):
        sa.observe(x)
    for x in (0.4, 0.5):
        sb.observe(x)
    a._instruments["open.rt"] = sa
    b._instruments["open.rt"] = sb
    a.merge(b)
    assert a.get("open.rt").count == 5


# ------------------------------------------------------------- BatchSeries
def test_batch_series_collapse_bounds_memory():
    series = BatchSeries(base=5, max_batches=8)
    n = 5 * 8 * 16  # forces several doublings
    for i in range(n):
        series.push(float(i))
    assert len(series.means) <= 8
    assert series.batch_size > 5 and series.batch_size % 5 == 0
    assert series.observations == n
    # Every retained mean covers a contiguous span; their average is
    # the average of everything they cover.
    covered = series.covered
    expected = sum(range(covered)) / covered
    assert sum(series.means) / len(series.means) == pytest.approx(expected)


def test_batch_series_validation():
    with pytest.raises(ValueError):
        BatchSeries(base=0)
    with pytest.raises(ValueError):
        BatchSeries(max_batches=7)  # must be even


# ------------------------------------------------------ MSER + batch means
def _ar1(rng, n, phi=0.6, sigma=1.0):
    xs = np.empty(n)
    x = 0.0
    for i in range(n):
        x = phi * x + rng.normal(0.0, sigma)
        xs[i] = x
    return xs


def test_mser_detects_synthetic_warmup():
    """AR(1) noise plus a decaying transient: MSER must cut the ramp."""
    rng = np.random.default_rng(4)
    n = 400
    noise = _ar1(rng, n, phi=0.5)
    transient = 50.0 * np.exp(-np.arange(n) / 30.0)
    series = BatchSeries(base=1, max_batches=1024)
    for x in transient + noise:
        series.push(float(x))
    d, converged = mser(series.means)
    assert converged
    # The transient decays to noise scale (~1) around sample 120.
    assert 40 <= d <= 200


def test_mser_stationary_series_truncates_little():
    rng = np.random.default_rng(5)
    d, converged = mser(list(rng.normal(10.0, 1.0, size=200)))
    assert converged
    assert d < 50


def test_mser_short_series_not_converged():
    d, converged = mser([1.0, 2.0])
    assert d == 0 and not converged


def test_lag1_autocorrelation():
    rng = np.random.default_rng(6)
    iid = list(rng.normal(size=2000))
    assert abs(lag1_autocorrelation(iid)) < 0.1
    correlated = list(_ar1(rng, 2000, phi=0.8))
    assert lag1_autocorrelation(correlated) > 0.6
    assert lag1_autocorrelation([1.0]) == 0.0
    assert lag1_autocorrelation([2.0, 2.0, 2.0]) == 0.0


def test_t_quantile():
    assert t_quantile_975(1) == pytest.approx(12.706)
    assert t_quantile_975(19) == pytest.approx(2.093)
    assert t_quantile_975(1000) == pytest.approx(1.962, abs=0.01)
    with pytest.raises(ValueError):
        t_quantile_975(0)


def test_batch_means_ci_covers_iid_mean():
    """95% CI from batch means must cover the true mean ~95% of the
    time on IID data; assert a loose lower bound over replications."""
    rng = np.random.default_rng(7)
    hits = sound = 0
    reps = 60
    for _ in range(reps):
        xs = list(rng.normal(3.0, 2.0, size=400))
        ci = batch_means_ci(xs, batches=20)
        assert isinstance(ci["sound"], bool)  # JSON-serialisable
        sound += ci["sound"]
        if abs(ci["mean"] - 3.0) <= ci["halfwidth"]:
            hits += 1
    assert hits / reps >= 0.85
    # lag-1 estimated from 20 batch means is noisy, so some IID reps
    # trip the threshold by chance — but most must pass.
    assert sound / reps >= 0.6


def test_batch_means_ci_flags_autocorrelation():
    rng = np.random.default_rng(8)
    xs = list(_ar1(rng, 4000, phi=0.995))
    ci = batch_means_ci(xs, batches=20)
    assert ci["lag1"] > 0.2 and not ci["sound"]


def test_batch_means_ci_degenerate():
    ci = batch_means_ci([])
    assert not ci["sound"] and ci["halfwidth"] == math.inf
    ci = batch_means_ci([1.0])
    assert not ci["sound"]


# ------------------------------------------------------- arrival generators
def _app_factory(app):
    return lambda rng: JobSpec(app, "s")


def test_poisson_arrivals_lazy_and_deterministic():
    app = SyntheticForkJoin(1e4)
    a = poisson_arrivals(2.0, 50.0, _app_factory(app),
                         np.random.default_rng(9))
    b = poisson_arrivals(2.0, 50.0, _app_factory(app),
                         np.random.default_rng(9))
    assert iter(a) is a  # generator, nothing materialised
    assert [t for t, _ in a] == [t for t, _ in b]


def test_bursty_arrivals_cluster_at_same_offered_load():
    app = SyntheticForkJoin(1e4)
    rng = np.random.default_rng(10)
    times = [t for t, _ in bursty_arrivals(
        8.0, 2000.0, _app_factory(app), rng, mean_on=2.0, mean_off=2.0)]
    assert times == sorted(times)
    # Offered rate is peak * on/(on+off) = 4/s.
    assert len(times) / 2000.0 == pytest.approx(4.0, rel=0.2)
    gaps = np.diff(times)
    # Burstier than Poisson: interarrival CV well above 1.
    assert np.std(gaps) / np.mean(gaps) > 1.2
    with pytest.raises(ValueError):
        bursty_arrivals(0.0, 10.0, _app_factory(app), rng)
    with pytest.raises(ValueError):
        bursty_arrivals(1.0, 10.0, _app_factory(app), rng, mean_on=0.0)


# ----------------------------------------------------- run_open streaming
def _open_config(nodes=4):
    return SystemConfig(num_nodes=nodes, topology="linear",
                        transputer=ideal_transputer())


def _exp_factory(rng):
    ops = float(rng.exponential(2.0e5))
    return JobSpec(SyntheticForkJoin(max(ops, 1.0), architecture="adaptive",
                                     message_bytes=0), "exp")


def test_run_open_streaming_matches_collected():
    rng = np.random.default_rng(11)
    collected = MulticomputerSystem(
        _open_config(), StaticSpaceSharing(1)
    ).run_open(poisson_arrivals(8.0, 40.0, _exp_factory, rng))
    rng = np.random.default_rng(11)
    streamed = MulticomputerSystem(
        _open_config(), StaticSpaceSharing(1)
    ).run_open(poisson_arrivals(8.0, 40.0, _exp_factory, rng),
               collect_jobs=False, sink=SteadyStateSink(window=5.0))
    assert isinstance(streamed, OpenRunResult)
    assert streamed.jobs_completed == len(collected.jobs)
    assert streamed.jobs_arrived == streamed.jobs_completed
    assert streamed.mean_response_time == pytest.approx(
        collected.mean_response_time, rel=1e-9)
    assert streamed.max_response_time == pytest.approx(
        collected.max_response_time, rel=1e-9)
    assert streamed.makespan == pytest.approx(collected.makespan)


def test_run_open_collect_false_retains_no_jobs():
    rng = np.random.default_rng(12)
    system = MulticomputerSystem(_open_config(), TimeSharing())
    result = system.run_open(
        poisson_arrivals(6.0, 30.0, _exp_factory, rng), collect_jobs=False)
    assert result.jobs_completed > 0
    assert system.super_scheduler.jobs == []
    for part in system.partitions:
        assert part.scheduler.completed_jobs == []


def test_super_scheduler_repr_counts_streamed_jobs():
    """A streaming run keeps no job list, so the repr's denominator is
    the submission count (it used to read ``done=N/0``)."""
    rng = np.random.default_rng(12)
    system = MulticomputerSystem(_open_config(), TimeSharing())
    result = system.run_open(
        poisson_arrivals(6.0, 30.0, _exp_factory, rng), collect_jobs=False)
    done = result.jobs_completed
    assert done > 0
    assert repr(system.super_scheduler) == (
        f"<SuperScheduler queued=0 done={done}/{done}>")


def test_run_open_windows_partition_the_run():
    rng = np.random.default_rng(13)
    sink = SteadyStateSink(window=4.0)
    result = MulticomputerSystem(
        _open_config(), StaticSpaceSharing(1)
    ).run_open(poisson_arrivals(8.0, 30.0, _exp_factory, rng),
               collect_jobs=False, sink=sink)
    windows = list(sink.ring)
    assert windows, "no windows emitted"
    assert [w.index for w in windows] == list(range(len(windows)))
    for a, b in zip(windows, windows[1:]):
        assert b.t0 == pytest.approx(a.t1)
    assert sum(w.completed for w in windows) == result.jobs_completed
    assert sum(w.arrived for w in windows) == result.jobs_arrived
    assert windows[-1].partial  # run drains past the last full window
    for w in windows:
        assert 0.0 <= (w.utilization or 0.0) <= 1.0 + 1e-9


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
def test_sink_rejects_window_that_never_closes(window):
    """A zero, negative, NaN or infinite width is refused at
    construction: NaN used to pass ``window <= 0`` and no window ever
    closed."""
    with pytest.raises(ValueError, match="window must be finite and "
                                         "positive"):
        SteadyStateSink(window=window)


def test_sink_accepts_no_window_and_finite_widths():
    assert SteadyStateSink().window is None
    assert SteadyStateSink(window=1e-3).window == 1e-3


def test_run_open_lazy_rejects_bad_streams():
    app = SyntheticForkJoin(1e4)
    system = MulticomputerSystem(_open_config(), StaticSpaceSharing(4))
    with pytest.raises(ValueError):
        system.run_open(iter([]))
    system = MulticomputerSystem(_open_config(), StaticSpaceSharing(4))
    with pytest.raises(ValueError):
        system.run_open(iter([(3.0, (app, "a")), (1.0, (app, "b"))]))


def test_steady_ci_covers_mmc_mean():
    """Batch-means CI vs the Erlang-C anchor: static 4×1 partitions with
    exponential demands is M/M/4; the truncated mean ± CI must bracket
    the analytic prediction (within CI noise at this run length)."""
    rng = np.random.default_rng(11)
    arrival_rate, duration = 10.0, 150.0
    service_rate = 1.0 / 0.2

    def factory(r):
        ops = float(r.exponential(2.0e5))
        return JobSpec(SyntheticForkJoin(max(ops, 1.0),
                                         architecture="adaptive",
                                         message_bytes=0), "exp")

    sink = SteadyStateSink(window=10.0)
    result = MulticomputerSystem(
        _open_config(), StaticSpaceSharing(1)
    ).run_open(poisson_arrivals(arrival_rate, duration, factory, rng),
               collect_jobs=False, sink=sink)
    predicted = mmc_mean_response(arrival_rate, service_rate, 4)
    steady = result.steady
    assert steady["converged"]
    slack = max(3.0 * steady["ci95"], 0.15 * predicted)
    assert abs(steady["mean"] - predicted) <= slack


# ------------------------------------------------------------- steady log
def test_steady_log_round_trip():
    buf = io.StringIO()
    rng = np.random.default_rng(14)
    sink = SteadyStateSink(window=5.0, log=SteadyLog(buf))
    MulticomputerSystem(_open_config(), StaticSpaceSharing(1)).run_open(
        poisson_arrivals(6.0, 25.0, _exp_factory, rng),
        collect_jobs=False, sink=sink)
    events = read_steady_log(buf.getvalue().splitlines())
    assert events[0]["ev"] == "steady.start"
    assert events[0]["schema"] == SCHEMA
    assert events[0]["policy"] == "static"
    assert events[-1]["ev"] == "steady.finish"
    windows = [e for e in events if e["ev"] == "window"]
    assert windows and [w["i"] for w in windows] == list(
        range(len(windows)))
    finish = events[-1]
    assert finish["completed"] == sink.completed
    assert "steady" in finish and "ci95" in finish["steady"]


def test_read_steady_log_rejects_malformed():
    with pytest.raises(ValueError):
        read_steady_log([])
    with pytest.raises(ValueError):
        read_steady_log(['{"ev": "window", "i": 0}'])
    with pytest.raises(ValueError):
        read_steady_log(["not json"])
    start = ('{"ev": "steady.start", "schema": "%s"}' % SCHEMA)
    with pytest.raises(ValueError):  # non-monotone windows
        read_steady_log([start,
                         '{"ev": "window", "i": 1}',
                         '{"ev": "window", "i": 1}',
                         '{"ev": "steady.finish"}'])
    with pytest.raises(ValueError):  # ends mid-segment
        read_steady_log([start, '{"ev": "window", "i": 0}'])
    events = read_steady_log([start, '{"ev": "window", "i": 0}',
                              '{"ev": "steady.finish"}',
                              start, '{"ev": "steady.finish"}'])
    assert len(events) == 5  # multi-segment streams are fine


def test_sink_summary_by_class():
    rng = np.random.default_rng(15)

    def factory(r):
        cls = "small" if r.uniform() < 0.5 else "large"
        ops = 1e5 if cls == "small" else 4e5
        return JobSpec(SyntheticForkJoin(ops, architecture="adaptive",
                                         message_bytes=0), cls)

    result = MulticomputerSystem(
        _open_config(), StaticSpaceSharing(1)
    ).run_open(poisson_arrivals(5.0, 30.0, factory, rng),
               collect_jobs=False)
    by_class = result.summary["by_class"]
    assert set(by_class) == {"small", "large"}
    assert by_class["large"]["mean"] > by_class["small"]["mean"]
