"""Tests for the two-priority T805 hardware scheduler model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.transputer import HIGH, LOW, Cpu, TransputerConfig


def make_cpu(env, **overrides):
    defaults = dict(context_switch_overhead=0.0)
    defaults.update(overrides)
    return Cpu(env, TransputerConfig(**defaults), node_id=0)


def test_single_burst_runs_to_completion():
    env = Environment()
    cpu = make_cpu(env)
    req = cpu.execute(1.5)
    env.run(until=req)
    assert env.now == pytest.approx(1.5)
    assert req.cpu_time == pytest.approx(1.5)


def test_zero_burst_completes_immediately():
    env = Environment()
    cpu = make_cpu(env)
    req = cpu.execute(0.0)
    env.run(until=req)
    assert env.now == 0.0


def test_negative_burst_rejected():
    env = Environment()
    cpu = make_cpu(env)
    with pytest.raises(ValueError):
        cpu.execute(-1)


def test_bad_priority_rejected():
    env = Environment()
    cpu = make_cpu(env)
    with pytest.raises(ValueError):
        cpu.execute(1.0, priority=7)


@pytest.mark.parametrize("work", [float("nan"), float("inf")])
def test_non_finite_burst_rejected_at_the_call(work):
    """A NaN burst used to fail only inside the event loop, after the
    context switch; an infinite one never completed."""
    env = Environment()
    cpu = make_cpu(env, context_switch_overhead=25e-6)
    cpu.execute(0.01, LOW)
    with pytest.raises(ValueError, match="work_seconds"):
        cpu.execute(work, LOW)
    env.run()
    assert env.now == pytest.approx(0.01 + 25e-6)
    assert cpu.stats.completed == 1


@pytest.mark.parametrize("quantum", [float("nan"), float("inf"), 0.0])
def test_bad_quantum_rejected_at_the_call(quantum):
    env = Environment()
    with pytest.raises(ValueError, match="quantum"):
        make_cpu(env).execute(1.0, LOW, quantum=quantum)
    # The config's default quantum is checked the same way when a CPU is
    # built from an unvalidated config.
    with pytest.raises(ValueError, match="quantum"):
        make_cpu(env, quantum=quantum).execute(1.0, LOW)


@pytest.mark.parametrize("overhead", [float("nan"), float("inf"), -1e-6])
def test_bad_context_switch_overhead_rejected(overhead):
    """A NaN overhead used to act as zero, because ``cost > 0`` is false."""
    with pytest.raises(ValueError, match="context_switch_overhead"):
        make_cpu(Environment(), context_switch_overhead=overhead)


@pytest.mark.parametrize("field, value", [
    ("quantum", float("nan")),
    ("quantum", float("inf")),
    ("scheduler_quantum", float("nan")),
    ("scheduler_quantum", float("inf")),
    ("cpu_ops_per_second", float("nan")),
    ("context_switch_overhead", float("nan")),
    ("context_switch_overhead", float("inf")),
])
def test_config_validate_rejects_non_finite_cpu_fields(field, value):
    with pytest.raises(ValueError, match=field):
        TransputerConfig(**{field: value}).validate()


def test_two_low_bursts_round_robin_interleave():
    """Two equal low-priority bursts finish at (nearly) the same time
    under round-robin — not one after the other."""
    env = Environment()
    cpu = make_cpu(env, quantum=0.002)
    a = cpu.execute(0.1, LOW)
    b = cpu.execute(0.1, LOW)
    done = []
    a.callbacks.append(lambda e: done.append(("a", env.now)))
    b.callbacks.append(lambda e: done.append(("b", env.now)))
    env.run()
    ta = dict(done)["a"]
    tb = dict(done)["b"]
    assert tb == pytest.approx(0.2, rel=1e-6)
    # a finishes at most one quantum before b.
    assert tb - ta <= 0.002 + 1e-9


def test_rr_unequal_quanta_share_proportionally():
    """A request with twice the quantum gets twice the CPU share."""
    env = Environment()
    cpu = make_cpu(env, quantum=0.002)
    fast = cpu.execute(0.2, LOW, quantum=0.004)
    slow = cpu.execute(0.2, LOW, quantum=0.002)
    env.run(until=fast)
    t_fast = env.now
    env.run(until=slow)
    t_slow = env.now
    # fast gets 2/3 of the CPU until it completes: 0.2/(2/3) = 0.3.
    assert t_fast == pytest.approx(0.3, rel=0.05)
    assert t_slow == pytest.approx(0.4, rel=0.05)


def test_high_priority_preempts_low_immediately():
    env = Environment()
    cpu = make_cpu(env)
    low = cpu.execute(1.0, LOW)
    log = []

    def inject(env):
        yield env.timeout(0.3)
        high = cpu.execute(0.1, HIGH)
        yield high
        log.append(("high-done", env.now))

    env.process(inject(env))
    env.run(until=low)
    log.append(("low-done", env.now))
    assert ("high-done", pytest.approx(0.4)) in log
    assert log[-1] == ("low-done", pytest.approx(1.1))


def test_high_runs_to_completion_over_later_high():
    env = Environment()
    cpu = make_cpu(env)
    order = []
    a = cpu.execute(0.5, HIGH, tag="a")
    b = cpu.execute(0.5, HIGH, tag="b")
    a.callbacks.append(lambda e: order.append(("a", env.now)))
    b.callbacks.append(lambda e: order.append(("b", env.now)))
    env.run()
    assert order == [("a", pytest.approx(0.5)), ("b", pytest.approx(1.0))]


def test_work_conservation_many_bursts():
    """Total completion time equals total work when nothing else runs."""
    env = Environment()
    cpu = make_cpu(env)
    bursts = [0.01, 0.05, 0.2, 0.001, 0.08]
    reqs = [cpu.execute(w, LOW) for w in bursts]
    env.run()
    assert env.now == pytest.approx(sum(bursts), rel=1e-9)
    for req, w in zip(reqs, bursts):
        assert req.cpu_time == pytest.approx(w, rel=1e-9)


def test_context_switch_overhead_accounted():
    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.001), node_id=0)
    cpu.execute(0.01, LOW)
    env.run()
    assert cpu.stats.overhead_time >= 0.001
    assert env.now == pytest.approx(0.011, rel=1e-6)


def test_stats_track_priorities():
    env = Environment()
    cpu = make_cpu(env)
    cpu.execute(0.2, LOW)
    cpu.execute(0.1, HIGH)
    env.run()
    assert cpu.stats.low_time == pytest.approx(0.2)
    assert cpu.stats.high_time == pytest.approx(0.1)
    assert cpu.stats.busy_time == pytest.approx(0.3)
    assert cpu.stats.completed == 2
    assert cpu.stats.utilization(env.now) == pytest.approx(1.0)


def test_utilization_with_idle_time():
    env = Environment()
    cpu = make_cpu(env)

    def late(env):
        yield env.timeout(1.0)
        yield cpu.execute(1.0, LOW)

    env.process(late(env))
    env.run()
    assert cpu.stats.utilization(env.now) == pytest.approx(0.5)


def test_arrival_wakes_idle_cpu():
    env = Environment()
    cpu = make_cpu(env)

    def burst_later(env):
        yield env.timeout(5)
        req = cpu.execute(0.5, LOW)
        yield req
        return env.now

    p = env.process(burst_later(env))
    assert env.run(until=p) == pytest.approx(5.5)


def test_queue_length_reports_backlog():
    env = Environment()
    cpu = make_cpu(env)
    cpu.execute(1.0, LOW)
    cpu.execute(1.0, LOW)
    cpu.execute(1.0, HIGH)
    assert cpu.queue_length == 3
    env.run()
    assert cpu.queue_length == 0


def test_queue_length_counts_the_request_paying_its_context_switch():
    """Inside the 25 us switch before a slice the request being
    dispatched is neither queued nor running; it used to go uncounted,
    so the backlog read 2 with three requests unfinished."""
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    cpu.execute(1.0, LOW)
    cpu.execute(1.0, LOW)
    cpu.execute(1.0, HIGH)
    env.run(until=1e-5)  # the HIGH burst is paying its switch
    assert cpu._cur is not None and cpu.running is None
    assert cpu.queue_length == 3
    env.run(until=1e-4)  # the HIGH burst runs
    assert cpu.running is not None
    assert cpu.queue_length == 3


def test_fairness_two_jobs_rr_job_quanta():
    """RR-job rule: quantum proportional to P/T equalises *job* shares.

    Job A has 4 processes, job B has 1 process on the same CPU.  With
    per-process fixed quanta job A would get 4x the power; with RR-job
    quanta Q = (P/T) q the shares equalise (P=1 here)."""
    env = Environment()
    cpu = make_cpu(env, quantum=0.002)
    q = 0.004
    a_reqs = [cpu.execute(0.1, LOW, quantum=q / 4, tag="A") for _ in range(4)]
    b_req = cpu.execute(0.1, LOW, quantum=q / 1, tag="B")
    env.run(until=b_req)
    b_done = env.now
    env.run()
    a_done = env.now
    # Job B (0.1s of work at ~half the CPU) should finish around 0.2s,
    # far before job A's total 0.4s of work completes at ~0.5s.
    assert b_done == pytest.approx(0.2, rel=0.1)
    assert a_done == pytest.approx(0.5, rel=0.1)


def test_preemption_requeues_at_back():
    """After preemption by HIGH work the victim loses its quantum slot:
    the other low request runs first when service resumes."""
    env = Environment()
    cpu = make_cpu(env, quantum=0.010)
    first = cpu.execute(0.02, LOW, tag="first")
    order = []

    def inject(env):
        # Interrupt `first` mid-quantum, and enqueue a second low burst.
        yield env.timeout(0.005)
        second = cpu.execute(0.02, LOW, tag="second")
        second.callbacks.append(lambda e: order.append("second"))
        high = cpu.execute(0.001, HIGH)
        yield high

    first.callbacks.append(lambda e: order.append("first"))
    env.process(inject(env))
    env.run()
    # first was preempted at 0.005 with 0.015 remaining; second entered
    # the queue; after the high burst, they alternate quanta; second has
    # less remaining at every point, finishing no later than first.
    assert set(order) == {"first", "second"}
    assert cpu.stats.preemptions >= 1


def test_high_arrival_during_switch_waits_for_the_quantum():
    """No slice is interruptible during the context switch, so a HIGH
    burst arriving then waits for the LOW slice's whole quantum.  The
    figures depend on this; changing it is a results change (ROADMAP
    item 4)."""
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    cpu.execute(0.1, LOW)
    cpu.execute(0.1, LOW)
    response = []

    def inject(env):
        yield env.timeout(10e-6)    # inside the first 25 us switch
        submitted = env.now
        yield cpu.execute(1e-4, HIGH)
        response.append(env.now - submitted)

    env.process(inject(env))
    env.run(until=0.01)
    assert response == [pytest.approx(2.14e-3)]


def test_pause_during_switch_still_runs_one_slice():
    """``pause_tag`` parks queued and running work, but a request in
    its context switch is neither: it runs one full quantum first."""
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    paused = cpu.execute(0.1, LOW, tag="a")
    cpu.execute(0.1, LOW, tag="b")

    def pauser(env):
        yield env.timeout(10e-6)
        cpu.pause_tag("a")

    env.process(pauser(env))
    env.run(until=0.01)
    assert paused.cpu_time == pytest.approx(2e-3)


@given(st.lists(st.floats(min_value=1e-4, max_value=0.05), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_property_makespan_is_total_work(bursts):
    """Makespan == total submitted work with zero overhead, and every
    request receives exactly its requested CPU time."""
    env = Environment()
    cpu = make_cpu(env)
    reqs = [cpu.execute(w, LOW) for w in bursts]
    env.run()
    assert env.now == pytest.approx(sum(bursts), rel=1e-6)
    for req, w in zip(reqs, bursts):
        assert req.cpu_time == pytest.approx(w, rel=1e-6)
        assert req.remaining == 0.0


#: One scripted operation: (time, kind, tag, work, per-request quantum).
_SCRIPT_OPS = st.tuples(
    st.floats(min_value=0.0, max_value=0.02),
    st.sampled_from(["low", "low", "high", "pause", "resume"]),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=1e-5, max_value=0.01),
    st.one_of(st.none(), st.floats(min_value=2e-4, max_value=3e-3)),
)


@given(
    ops=st.lists(_SCRIPT_OPS, min_size=1, max_size=14),
    overhead=st.floats(min_value=1e-5, max_value=1e-3),
    quantum=st.floats(min_value=5e-4, max_value=3e-3),
    requeue_at_back=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_property_work_conserved(ops, overhead, quantum, requeue_at_back):
    """Random timed scripts: LOW and HIGH arrivals (overheads up to half
    a quantum, so many land inside a context switch), gang pauses and
    resumes, and interrupts of extended slices.  Every request completes
    exactly once with exactly its work as CPU time, and the CPU's
    accounting balances.  An abandoned slice entry that ran its
    continuation (its key no longer the armed one) would double-credit
    a slice or complete a request twice."""
    env = Environment()
    cpu = make_cpu(env, context_switch_overhead=overhead, quantum=quantum,
                   requeue_at_back=requeue_at_back)
    reqs = []

    def driver(env):
        for at, kind, tag, work, req_quantum in sorted(
                ops, key=lambda op: op[0]):
            if at > env.now:
                yield env.timeout(at - env.now)
            if kind == "pause":
                cpu.pause_tag(tag)
            elif kind == "resume":
                cpu.resume_tag(tag)
            else:
                prio = HIGH if kind == "high" else LOW
                req = cpu.execute(work, prio, quantum=req_quantum, tag=tag)
                done = []
                req.callbacks.append(lambda e, done=done: done.append(env.now))
                reqs.append((req, work, done))
        for tag in range(3):
            cpu.resume_tag(tag)

    env.process(driver(env))
    env.run()
    stats = cpu.stats
    for req, work, done in reqs:
        assert len(done) == 1
        assert req.remaining == 0.0
        assert req.cpu_time == pytest.approx(work, rel=1e-9, abs=1e-11)
    total = sum(work for _, work, _ in reqs)
    assert stats.completed == len(reqs)
    assert stats.busy_time == pytest.approx(total, rel=1e-9, abs=1e-11)
    assert stats.high_time + stats.low_time == pytest.approx(stats.busy_time)
    assert stats.overhead_time == pytest.approx(stats.dispatches * overhead,
                                                rel=1e-9)
    assert sum(req.slices for req, _, _ in reqs) == stats.dispatches


@given(
    st.lists(st.floats(min_value=1e-3, max_value=0.05), min_size=2, max_size=6),
    st.floats(min_value=5e-4, max_value=5e-3),
)
@settings(max_examples=30, deadline=None)
def test_property_rr_equal_quanta_fair(bursts, quantum):
    """With equal quanta, RR completion order follows remaining work up
    to one quantum of granularity (queue position can let a job that is
    at most one quantum larger finish first)."""
    env = Environment()
    cpu = make_cpu(env, quantum=quantum)
    finish = {}
    reqs = []
    for i, w in enumerate(bursts):
        req = cpu.execute(w, LOW, tag=i)
        req.callbacks.append(lambda e, i=i: finish.setdefault(i, env.now))
        reqs.append(req)
    env.run()
    smallest = min(range(len(bursts)), key=lambda i: bursts[i])
    largest = max(range(len(bursts)), key=lambda i: bursts[i])
    slack = quantum * len(bursts)
    assert finish[smallest] <= finish[largest] + slack + 1e-12
