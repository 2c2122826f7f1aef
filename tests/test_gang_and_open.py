"""Tests for the extensions: gang scheduling and the open-arrival mode."""

import math

import numpy as np
import pytest

from repro.analysis import mmc_mean_response
from repro.core import (
    GangScheduling,
    HybridPolicy,
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.sim import Environment
from repro.transputer import Cpu, LOW, TransputerConfig
from repro.workload import (
    BatchWorkload,
    JobSpec,
    MatMulApplication,
    SyntheticForkJoin,
    bursty_arrivals,
    poisson_arrivals,
    standard_batch,
    trace_arrivals,
    uniform_arrivals,
)

from tests.conftest import ideal_transputer


# -------------------------------------------------------- CPU pause/resume
def test_cpu_pause_parks_queued_work():
    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.0), node_id=0)
    a = cpu.execute(0.1, LOW, tag="A")
    b = cpu.execute(0.1, LOW, tag="B")
    cpu.pause_tag("B")
    done = {}
    a.callbacks.append(lambda e: done.setdefault("A", env.now))
    b.callbacks.append(lambda e: done.setdefault("B", env.now))

    def resumer(env):
        yield env.timeout(0.5)
        cpu.resume_tag("B")

    env.process(resumer(env))
    env.run()
    assert done["A"] == pytest.approx(0.1)
    assert done["B"] == pytest.approx(0.6)


def test_cpu_pause_preempts_running_slice():
    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.0), node_id=0)
    a = cpu.execute(1.0, LOW, tag="A")

    def controller(env):
        yield env.timeout(0.3)
        cpu.pause_tag("A")       # A has consumed 0.3
        yield env.timeout(1.0)
        cpu.resume_tag("A")      # remaining 0.7 runs

    env.process(controller(env))
    env.run(until=a)
    assert env.now == pytest.approx(2.0)
    assert a.cpu_time == pytest.approx(1.0)


def test_cpu_execute_while_paused_parks_immediately():
    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.0), node_id=0)
    cpu.pause_tag("X")
    x = cpu.execute(0.2, LOW, tag="X")

    def resumer(env):
        yield env.timeout(1.0)
        cpu.resume_tag("X")

    env.process(resumer(env))
    env.run(until=x)
    assert env.now == pytest.approx(1.2)


def test_cpu_resume_unknown_tag_is_noop():
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    cpu.resume_tag("never-paused")  # must not raise


# ------------------------------------------------------------------- gang
def small_batch():
    return standard_batch("matmul", architecture="adaptive", num_small=3,
                          num_large=1, small_size=24, large_size=48)


def test_gang_policy_validation():
    with pytest.raises(ValueError):
        GangScheduling(4, gang_slot=0)
    policy = GangScheduling(4, gang_slot=0.05)
    assert policy.time_shared and policy.gang
    assert policy.partition_size(16) == 4


def test_gang_completes_batch():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    result = MulticomputerSystem(
        cfg, GangScheduling(2, gang_slot=0.02)
    ).run_batch(small_batch())
    assert len(result.jobs) == 4
    assert all(j.response_time > 0 for j in result.jobs)
    # Memory fully reclaimed.
    system = MulticomputerSystem(cfg, GangScheduling(2, gang_slot=0.02))
    system.run_batch(small_batch())
    for node in system.nodes.values():
        assert node.memory.in_use == 0


def test_gang_runs_one_job_at_a_time_per_partition():
    """During any instant, at most one job's low-priority work runs per
    partition: total low CPU time <= makespan per node (no double
    counting) and the jobs' executions interleave at slot granularity."""
    cfg = SystemConfig(num_nodes=2, topology="linear",
                       transputer=ideal_transputer())
    apps = [MatMulApplication(40, architecture="adaptive") for _ in range(2)]
    batch = BatchWorkload([JobSpec(a, str(i)) for i, a in enumerate(apps)])
    system = MulticomputerSystem(cfg, GangScheduling(2, gang_slot=0.01))
    result = system.run_batch(batch)
    for node in system.nodes.values():
        assert node.cpu.stats.low_time <= result.makespan * 1.001
    # Both jobs finish near the end (they alternated slots).
    t1, t2 = sorted(result.response_times)
    assert t1 > 0.5 * t2


def test_gang_vs_hybrid_same_total_work():
    """Gang and hybrid must deliver the same total CPU work for the same
    batch (they only reorder it)."""
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    batch = small_batch()
    g_sys = MulticomputerSystem(cfg, GangScheduling(2, gang_slot=0.02))
    g = g_sys.run_batch(batch)
    h_sys = MulticomputerSystem(cfg, HybridPolicy(2))
    h = h_sys.run_batch(batch)
    g_work = sum(n.cpu.stats.low_time for n in g_sys.nodes.values())
    h_work = sum(n.cpu.stats.low_time for n in h_sys.nodes.values())
    assert g_work == pytest.approx(h_work, rel=0.01)


# ----------------------------------------------------------- open arrivals
def test_uniform_arrivals_structure():
    app = SyntheticForkJoin(1e4)
    arr = list(uniform_arrivals(2.0, 3, lambda rng: JobSpec(app, "s")))
    assert [t for t, _ in arr] == [0.0, 2.0, 4.0]
    # Validation is eager even though generation is lazy.
    with pytest.raises(ValueError):
        uniform_arrivals(0, 3, lambda rng: JobSpec(app, "s"))


def test_trace_arrivals_validation():
    app = SyntheticForkJoin(1e4)
    arr = trace_arrivals([(0.0, (app, "s")), (1.5, (app, "l"))])
    assert arr[1][0] == 1.5
    assert arr[1][1].size_class == "l"
    with pytest.raises(ValueError):
        trace_arrivals([(2.0, (app, "s")), (1.0, (app, "s"))])


def test_poisson_arrivals_rate():
    rng = np.random.default_rng(3)
    app = SyntheticForkJoin(1e4)
    stream = poisson_arrivals(2.0, 500.0, lambda r: JobSpec(app, "s"), rng)
    assert iter(stream) is stream  # lazy: a generator, not a list
    arr = list(stream)
    assert len(arr) == pytest.approx(1000, rel=0.15)
    times = [t for t, _ in arr]
    assert times == sorted(times)
    with pytest.raises(ValueError):
        poisson_arrivals(0, 10, lambda r: JobSpec(app, "s"), rng)


def _spec(rng=None):
    return JobSpec(SyntheticForkJoin(1e4), "s")


def _rng():
    return np.random.default_rng(0)


#: One bad stream per parameter, keyed ``<stream>-<parameter>``.
_STREAM_PARAMETERS = {
    "poisson-rate": lambda v: poisson_arrivals(v, 10.0, _spec, _rng()),
    "poisson-duration": lambda v: poisson_arrivals(1.0, v, _spec, _rng()),
    "bursty-rate": lambda v: bursty_arrivals(v, 10.0, _spec, _rng()),
    "bursty-duration": lambda v: bursty_arrivals(1.0, v, _spec, _rng()),
    "bursty-mean_on": lambda v: bursty_arrivals(1.0, 10.0, _spec, _rng(),
                                                mean_on=v),
    "bursty-mean_off": lambda v: bursty_arrivals(1.0, 10.0, _spec, _rng(),
                                                 mean_off=v),
    "uniform-interval": lambda v: uniform_arrivals(v, 3, _spec),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(_STREAM_PARAMETERS))
def test_arrival_streams_reject_non_finite_parameters(case, value):
    """A NaN parameter used to give NaN arrival times, and an infinite
    rate or duration a stream that never ends; both raise at the call."""
    param = case.split("-")[1]
    with pytest.raises(ValueError,
                       match=f"{param} must be positive and finite"):
        _STREAM_PARAMETERS[case](value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.5],
                         ids=["nan", "inf", "negative", "decreasing"])
def test_trace_arrivals_rejects_non_finite_or_decreasing_times(bad):
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        trace_arrivals([(1.0, _spec()), (bad, _spec())])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.5],
                         ids=["nan", "inf", "negative", "decreasing"])
def test_run_open_feeder_rejects_non_finite_or_decreasing_times(bad):
    """The feeder checks each time as it is reached: a NaN time used to
    pass its ``time < last`` test, and an infinite one to stall the run
    for ever."""
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    system = MulticomputerSystem(cfg, StaticSpaceSharing(1))
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        system.run_open(iter([(1.0, _spec()), (bad, _spec())]))


def test_run_open_measures_from_arrival():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    app = MatMulApplication(24, architecture="adaptive")
    arrivals = [(0.0, (app, "a")), (5.0, (app, "b"))]
    system = MulticomputerSystem(cfg, StaticSpaceSharing(4))
    result = system.run_open(arrivals)
    # The second job arrives long after the first finished: both see the
    # same (uncontended) response time.
    r1, r2 = result.response_times
    assert r1 == pytest.approx(r2, rel=0.01)
    assert result.jobs[1].submitted_at == 5.0


def test_run_open_queues_under_contention():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    app = MatMulApplication(48, architecture="adaptive")
    arrivals = [(0.0, (app, "a")), (0.0, (app, "b")), (0.0, (app, "c"))]
    system = MulticomputerSystem(cfg, StaticSpaceSharing(4))
    result = system.run_open(arrivals)
    waits = sorted(j.wait_time for j in result.jobs)
    assert waits[0] == 0 and waits[-1] > 0


def test_run_open_rejects_bad_input():
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    app = MatMulApplication(24)
    system = MulticomputerSystem(cfg, StaticSpaceSharing(4))
    with pytest.raises(ValueError):
        system.run_open([])
    with pytest.raises(ValueError):
        system.run_open([(3.0, (app, "a")), (1.0, (app, "b"))])


def test_open_static_tracks_mmc_prediction():
    """Static with 4 single-node partitions + exponential demands is an
    M/M/4 queue; the simulated mean response must track Erlang C."""
    rng = np.random.default_rng(11)
    mean_ops = 2.0e5          # 0.2s at 1e6 ops/s
    service_rate = 1.0 / 0.2
    arrival_rate = 10.0       # rho = 0.5 on 4 servers
    duration = 150.0

    def factory(r):
        ops = float(r.exponential(mean_ops))
        return JobSpec(SyntheticForkJoin(max(ops, 1.0),
                                         architecture="adaptive",
                                         message_bytes=0),
                       "exp")

    arrivals = poisson_arrivals(arrival_rate, duration, factory, rng)
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    system = MulticomputerSystem(cfg, StaticSpaceSharing(1))
    result = system.run_open(arrivals)
    predicted = mmc_mean_response(arrival_rate, service_rate, 4)
    assert result.mean_response_time == pytest.approx(predicted, rel=0.25)
