"""Unit tests for the FIFO resource and the keyed store."""

import pytest

from repro.sim import Environment, FilterStore, Resource


# ---------------------------------------------------------------- Resource
def test_resource_fifo_service():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            log.append((env.now, name))
            yield env.timeout(hold)

    env.process(user(env, "a", 2))
    env.process(user(env, "b", 2))
    env.process(user(env, "c", 2))
    env.run()
    assert log == [(0, "a"), (2, "b"), (4, "c")]


def test_resource_capacity_two():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(env, name):
        with res.request() as req:
            yield req
            log.append((env.now, name))
            yield env.timeout(5)

    for name in "abc":
        env.process(user(env, name))
    env.run()
    assert log == [(0, "a"), (0, "b"), (5, "c")]


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=2)

    def user(env):
        with res.request() as req:
            yield req
            assert res.count >= 1
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_cancels_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        yield env.timeout(1)
        assert not req.triggered  # still queued behind the holder
        req.cancel()
        got.append("gave-up")

    def patient(env):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            got.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert "gave-up" in got
    assert ("patient", 10) in got


# ------------------------------------------------------------ FilterStore
def test_filter_store_matches_key():
    env = Environment()
    s = FilterStore(env, lambda x: x % 2)
    out = []

    def producer(env):
        for i in [1, 2, 3, 4]:
            yield s.put(i)

    def consumer(env):
        item = yield s.get(0)
        out.append(item)
        item = yield s.get(0)
        out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [2, 4]
    assert len(s) == 2
    assert [s.get(1).value for _ in range(2)] == [1, 3]


def test_filter_store_blocked_getter_skipped():
    """A getter waiting for an absent key must not block other getters."""
    env = Environment()
    s = FilterStore(env, lambda x: x)
    out = []

    def never(env):
        item = yield s.get("unicorn")
        out.append(item)

    def normal(env):
        yield env.timeout(1)
        item = yield s.get("horse")
        out.append((item, env.now))

    def producer(env):
        yield env.timeout(2)
        yield s.put("horse")

    env.process(never(env))
    env.process(normal(env))
    env.process(producer(env))
    env.run(until=10)
    assert out == [("horse", 2)]
