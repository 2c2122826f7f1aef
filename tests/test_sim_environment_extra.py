"""Additional coverage of the DES kernel's environment and edge cases."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    PreemptiveResource,
    Resource,
    SimulationError,
)


def test_initial_time_offsets_clock():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0
    t = env.timeout(5)
    env.run(until=t)
    assert env.now == 105.0


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3)
    env.timeout(1)
    assert env.peek() == 1


def test_run_all_counts_events():
    env = Environment()

    def proc(env):
        for _ in range(5):
            yield env.timeout(1)

    env.process(proc(env))
    count = env.run_all()
    assert count >= 5
    assert env.events_processed == count


def test_run_returns_failed_event_exception():
    env = Environment()
    ev = env.event()

    def failer(env):
        yield env.timeout(1)
        ev.fail(KeyError("nope"))

    env.process(failer(env))
    with pytest.raises(KeyError):
        env.run(until=ev)


def test_run_until_failed_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("x"))
    ev.defuse()
    env.run()
    with pytest.raises(ValueError):
        env.run(until=ev)


def test_event_trigger_chaining():
    env = Environment()
    src = env.event()
    dst = env.event()
    src.succeed("payload")

    def chain(env):
        yield src
        dst.trigger(src)

    env.process(chain(env))
    env.run()
    assert dst.ok and dst.value == "payload"


def test_condition_value_mapping_interface():
    env = Environment()
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(2, value="b")

    def proc(env):
        result = yield AllOf(env, [t1, t2])
        assert len(result) == 2
        assert list(result) == [t1, t2]
        assert result.todict() == {t1: "a", t2: "b"}
        with pytest.raises(KeyError):
            _ = result[env.event()]
        return True

    assert env.run(until=env.process(proc(env)))


def test_empty_conditions_trigger_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        yield AnyOf(env, [])
        return env.now

    assert env.run(until=env.process(proc(env))) == 0


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError, match="different environments"):
        AllOf(env1, [Event(env1), Event(env2)])


def test_interrupting_process_waiting_on_resource_releases_queue_slot():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        try:
            yield req
        except Interrupt:
            req.cancel()
            log.append("gave-up")

    def third(env):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            log.append(("third-got", env.now))

    env.process(holder(env))
    victim = env.process(impatient(env))

    def poker(env):
        yield env.timeout(1)
        victim.interrupt()

    env.process(poker(env))
    env.process(third(env))
    env.run()
    assert "gave-up" in log
    assert ("third-got", 10) in log


def test_preemptive_resource_capacity_two_evicts_least_urgent():
    env = Environment()
    res = PreemptiveResource(env, capacity=2)
    log = []

    def user(env, name, prio, hold, delay=0.0):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            try:
                yield req
                log.append((name, "got", env.now))
                yield env.timeout(hold)
            except Interrupt:
                log.append((name, "evicted", env.now))

    env.process(user(env, "low-a", 9, 10))
    env.process(user(env, "low-b", 5, 10))
    env.process(user(env, "high", 0, 1, delay=2.0))
    env.run()
    assert ("low-a", "evicted", 2.0) in log   # least urgent of the two
    assert ("high", "got", 2.0) in log
    assert not any(n == "low-b" and what == "evicted" for n, what, _ in log)


def test_timeout_zero_fires_same_timestep_in_order():
    env = Environment()
    order = []

    def a(env):
        yield env.timeout(0)
        order.append("a")

    def b(env):
        yield env.timeout(0)
        order.append("b")

    env.process(a(env))
    env.process(b(env))
    env.run()
    assert order == ["a", "b"]


def test_deeply_nested_process_chain():
    env = Environment()

    def level(env, depth):
        if depth == 0:
            yield env.timeout(1)
            return 1
        child = env.process(level(env, depth - 1))
        value = yield child
        return value + 1

    assert env.run(until=env.process(level(env, 50))) == 51


# -- run_all bound exactness (regression) --------------------------------
def test_run_all_max_events_bound_is_exact():
    """The bound used to let N+1 events through before raising."""
    env = Environment()
    for _ in range(5):
        env.timeout(0)
    with pytest.raises(SimulationError, match="exceeded 4"):
        env.run_all(max_events=4)
    assert env.events_processed == 4  # not 5


def test_run_all_processes_exactly_max_events_without_raising():
    env = Environment()
    for _ in range(5):
        env.timeout(0)
    assert env.run_all(max_events=5) == 5


# -- numeric-deadline determinism (regression) ---------------------------
def test_numeric_until_draws_from_the_sequence_counter():
    """run(until=<number>) used to push a hard-coded sequence of -1,
    bypassing the monotone counter the class documents as its
    determinism guarantee (two same-time deadlines would tie and fall
    through to comparing Event objects)."""
    from repro.sim.environment import _SEQ_MASK

    env = Environment()
    env.run(until=3.0)  # the deadline consumes sequence number 0
    env.timeout(1)
    _time, key, _event = env._queue[0]
    assert (key & _SEQ_MASK) >= 1


def test_numeric_until_preserves_fifo_for_same_time_urgent_events():
    """An URGENT event scheduled *before* run(until=t) at the same time
    is processed before the deadline (FIFO among same-time URGENT
    entries); the old -1 sentinel jumped the deadline ahead of it."""
    from repro.sim.events import URGENT

    env = Environment()
    fired = []
    ev = env.event()
    ev._ok = True
    ev._value = None
    ev.callbacks.append(lambda e: fired.append("urgent"))
    env.schedule(ev, priority=URGENT, delay=5.0)
    env.run(until=5.0)
    assert fired == ["urgent"]
    assert env.now == 5.0


def test_numeric_until_rejects_nan():
    """A NaN deadline passed the old ``at < now`` check, popped first
    and left the clock at NaN with the model's events still queued."""
    env = Environment()

    def proc(env):
        for _ in range(5):
            yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(ValueError, match="must not be before now"):
        env.run(until=float("nan"))
    assert env.now == 0.0
    env.run()
    assert env.now == 5.0


# -- events_processed counts the event before dispatch -------------------
def test_events_processed_counts_raising_callback():
    """A callback that raises must not understate the counter."""
    env = Environment()
    ev = env.event()
    ev.succeed()
    ev.callbacks.append(lambda e: (_ for _ in ()).throw(RuntimeError("x")))
    with pytest.raises(RuntimeError):
        env.run()
    assert env.events_processed == 1


def test_events_processed_counts_unhandled_failure():
    env = Environment()
    ev = env.event()
    ev.fail(SimulationError("deliberate"))
    with pytest.raises(SimulationError):
        env.run()
    assert env.events_processed == 1
