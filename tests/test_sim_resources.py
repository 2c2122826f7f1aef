"""Unit tests for resources, stores, and containers."""

import pytest

from repro.sim import (
    Container,
    Environment,
    FilterStore,
    Interrupt,
    Preempted,
    PreemptiveResource,
    PriorityResource,
    Resource,
    Store,
)


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
        result = yield req | env.timeout(1)
        if req not in result:
            req.cancel()
            got.append("gave-up")
        else:
            got.append("got-it")

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


# ------------------------------------------------------ PriorityResource
def test_priority_resource_orders_queue():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    log = []

    def user(env, name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            log.append(name)
            yield env.timeout(10)

    env.process(user(env, "first", 5, 0))     # grabs the resource
    env.process(user(env, "low", 5, 1))       # queued
    env.process(user(env, "high", 0, 2))      # queued later, higher priority
    env.run()
    assert log == ["first", "high", "low"]


# ---------------------------------------------------- PreemptiveResource
def test_preemptive_resource_evicts_lower_priority():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    log = []

    def low(env):
        with res.request(priority=10) as req:
            yield req
            try:
                yield env.timeout(100)
                log.append("low-finished")
            except Interrupt as i:
                assert isinstance(i.cause, Preempted)
                log.append(("low-preempted", env.now))

    def high(env):
        yield env.timeout(5)
        with res.request(priority=0) as req:
            yield req
            log.append(("high-got", env.now))
            yield env.timeout(1)

    env.process(low(env))
    env.process(high(env))
    env.run()
    assert ("low-preempted", 5) in log
    assert ("high-got", 5) in log


def test_preempt_false_waits_instead():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    log = []

    def low(env):
        with res.request(priority=10) as req:
            yield req
            yield env.timeout(10)
            log.append(("low-done", env.now))

    def high(env):
        yield env.timeout(5)
        with res.request(priority=0, preempt=False) as req:
            yield req
            log.append(("high-got", env.now))

    env.process(low(env))
    env.process(high(env))
    env.run()
    assert log == [("low-done", 10), ("high-got", 10)]


# ----------------------------------------------------------- Container
def test_container_put_get():
    env = Environment()
    c = Container(env, capacity=10, init=5)
    out = []

    def proc(env):
        yield c.get(3)
        out.append(c.level)
        yield c.put(8)
        out.append(c.level)

    env.process(proc(env))
    env.run()
    assert out == [2, 10]


def test_container_get_blocks_until_available():
    env = Environment()
    c = Container(env, capacity=10, init=0)
    out = []

    def getter(env):
        yield c.get(4)
        out.append(("got", env.now))

    def putter(env):
        yield env.timeout(3)
        yield c.put(4)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert out == [("got", 3)]


def test_container_put_blocks_at_capacity():
    env = Environment()
    c = Container(env, capacity=5, init=5)
    out = []

    def putter(env):
        yield c.put(2)
        out.append(("put", env.now))

    def getter(env):
        yield env.timeout(4)
        yield c.get(3)

    env.process(putter(env))
    env.process(getter(env))
    env.run()
    assert out == [("put", 4)]


def test_container_fifo_no_starvation():
    """A big get at the head blocks later small gets (FIFO), so large
    requests are never starved by a stream of small ones."""
    env = Environment()
    c = Container(env, capacity=100, init=2)
    order = []

    def big(env):
        yield c.get(50)
        order.append("big")

    def small(env):
        yield env.timeout(0.5)
        yield c.get(1)
        order.append("small")

    def feeder(env):
        yield env.timeout(1)
        yield c.put(60)

    env.process(big(env))
    env.process(small(env))
    env.process(feeder(env))
    env.run()
    assert order == ["big", "small"]


def test_container_rejects_bad_amounts():
    env = Environment()
    c = Container(env, capacity=10, init=0)
    with pytest.raises(ValueError):
        c.put(0)
    with pytest.raises(ValueError):
        c.get(-1)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)


# ----------------------------------------------------------------- Store
def test_store_fifo():
    env = Environment()
    s = Store(env)
    out = []

    def producer(env):
        for i in range(3):
            yield s.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield s.get()
            out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [0, 1, 2]


def test_store_capacity_blocks_put():
    env = Environment()
    s = Store(env, capacity=1)
    log = []

    def producer(env):
        yield s.put("a")
        log.append(("a-in", env.now))
        yield s.put("b")
        log.append(("b-in", env.now))

    def consumer(env):
        yield env.timeout(5)
        yield s.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a-in", 0), ("b-in", 5)]


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
