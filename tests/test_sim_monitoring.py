"""Tests for the measurement probes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Sampler, TimeWeightedValue


# ------------------------------------------------------ TimeWeightedValue
def test_time_average_piecewise_constant():
    env = Environment()
    probe = TimeWeightedValue(env, initial=2.0)

    def driver(env):
        yield env.timeout(10)   # 2.0 for 10s
        probe.update(4.0)
        yield env.timeout(10)   # 4.0 for 10s

    env.process(driver(env))
    env.run()
    assert probe.time_average() == pytest.approx(3.0)
    assert probe.max == 4.0
    assert probe.min == 2.0


def test_time_average_with_add():
    env = Environment()
    probe = TimeWeightedValue(env)

    def driver(env):
        probe.add(5)
        yield env.timeout(4)
        probe.add(-5)
        yield env.timeout(6)

    env.process(driver(env))
    env.run()
    assert probe.time_average() == pytest.approx(2.0)
    assert probe.value == 0


def test_time_average_zero_elapsed():
    env = Environment()
    probe = TimeWeightedValue(env, initial=7.0)
    assert probe.time_average() == 7.0


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10),
                          st.floats(min_value=-100, max_value=100)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_time_average_matches_manual_integral(segments):
    env = Environment()
    probe = TimeWeightedValue(env, initial=0.0)

    def driver(env):
        for duration, value in segments:
            probe.update(value)
            yield env.timeout(duration)

    env.process(driver(env))
    env.run()
    total = sum(d for d, _ in segments)
    area = sum(d * v for d, v in segments)
    assert probe.time_average() == pytest.approx(area / total, rel=1e-9,
                                                 abs=1e-9)


# ----------------------------------------------------------------- Sampler
def test_sampler_records_on_cadence():
    env = Environment()
    state = {"v": 0}

    def driver(env):
        for i in range(10):
            yield env.timeout(1)
            state["v"] = i + 1

    sampler = Sampler(env, lambda: state["v"], interval=2.5)
    env.process(driver(env))
    env.run(until=10)
    assert sampler.times == [0, 2.5, 5.0, 7.5]
    assert len(sampler.values) == 4
    assert sampler.mean() == pytest.approx(sum(sampler.values) / 4)


def test_sampler_stop():
    env = Environment()
    sampler = Sampler(env, lambda: 1, interval=1)

    def stopper(env):
        yield env.timeout(3.5)
        sampler.stop()

    env.process(stopper(env))
    env.run(until=100)
    assert len(sampler.samples) <= 5


def test_sampler_bad_interval():
    env = Environment()
    with pytest.raises(ValueError):
        Sampler(env, lambda: 1, interval=0)


@pytest.mark.parametrize("interval", [float("nan"), float("inf")])
def test_sampler_rejects_non_finite_interval(interval):
    """A NaN interval used to be accepted and fail only when run, inside
    the sampler's process; an infinite one sampled at ``now = inf``
    until memory ran out.  Both now fail at construction, before any
    process starts."""
    env = Environment()
    with pytest.raises(ValueError, match="positive and finite"):
        Sampler(env, lambda: 1, interval=interval)
    assert env._queue == []
