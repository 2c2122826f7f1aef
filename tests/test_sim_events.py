"""Unit tests for the DES kernel's event and process primitives."""

import traceback
import warnings

import pytest

from repro.sim import AllOf, Environment, SimulationError
from repro.sim.exceptions import EmptySchedule


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == 5


def test_timeout_value_passed_through():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1, value="hello")
        return value

    assert env.run(until=env.process(proc(env))) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_waits_for_event():
    env = Environment()
    ev = env.event()
    out = []

    def waiter(env):
        value = yield ev
        out.append((env.now, value))

    def trigger(env):
        yield env.timeout(3)
        ev.succeed("go")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert out == [(3, "go")]


def test_failed_event_raises_in_process():
    env = Environment()
    ev = env.event()

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    def trigger(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    p = env.process(waiter(env))
    env.process(trigger(env))
    assert env.run(until=p) == "caught boom"


def test_failed_event_throws_its_exception_without_warnings():
    """A waiter catches the very exception instance the event failed
    with, and no warning is raised: CPython 3.12 deprecates the
    three-argument ``generator.throw(type, value, traceback)`` that the
    kernel used to call.  The one-argument form also keeps the
    exception's traceback, so a failed child's raise site reaches the
    parent (the old ``traceback=None`` dropped it)."""
    env = Environment()
    error = RuntimeError("boom")
    ev = env.event()

    def child(env):
        yield env.timeout(1)
        raise KeyError("deep")

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught = exc
        try:
            yield env.process(child(env))
        except KeyError as exc:
            frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
        return caught, frames

    p = env.process(waiter(env))
    ev.fail(error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caught, frames = env.run(until=p)
    assert caught is error
    assert frames[0] == "waiter" and frames[-1] == "child"


def test_unhandled_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("oops")

    env.process(bad(env))
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=p)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    assert env.run(until=env.process(proc(env))) == 99


def test_processes_wait_on_processes():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    assert env.run(until=env.process(parent(env))) == (4, "child-done")


def test_all_of_collects_values():
    env = Environment()
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(2, value="b")

    def proc(env):
        result = yield AllOf(env, [t1, t2])
        return [result[t1], result[t2]]

    p = env.process(proc(env))
    assert env.run(until=p) == ["a", "b"]
    assert env.now == 2


def test_failed_subevent_fails_condition():
    env = Environment()
    ev = env.event()
    t = env.timeout(10)

    def failer(env):
        yield env.timeout(1)
        ev.fail(KeyError("bad"))

    def waiter(env):
        try:
            yield AllOf(env, [ev, t])
        except KeyError:
            return "failed"

    env.process(failer(env))
    p = env.process(waiter(env))
    assert env.run(until=p) == "failed"


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_run_empty_returns_none():
    env = Environment()
    assert env.run() is None


def test_step_empty_schedule():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_already_processed_event():
    env = Environment()
    t = env.timeout(1, value="x")
    env.run()
    assert env.run(until=t) == "x"


def test_run_until_exhausted_before_event():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1)
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(until=ev)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def mk(i):
        def proc(env):
            yield env.timeout(5)
            order.append(i)
        return proc

    for i in range(10):
        env.process(mk(i)(env))
    env.run()
    assert order == list(range(10))


def test_events_processed_counter():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        yield env.timeout(1)

    env.process(proc(env))
    env.run()
    assert env.events_processed > 0


def test_run_all_event_bound():
    env = Environment()

    def forever(env):
        while True:
            yield env.timeout(1)

    env.process(forever(env))
    with pytest.raises(SimulationError, match="exceeded"):
        env.run_all(max_events=100)
