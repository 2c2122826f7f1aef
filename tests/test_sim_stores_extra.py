"""Cancellation and validation of the keyed store and the resource."""

from collections import deque

import pytest

from repro.sim import Environment, FilterStore, Resource
from repro.sim.exceptions import SimulationError


def test_filter_store_cancel_releases_waiter():
    """A cancelled waiter leaves its key's queue: the next getter of
    that key takes the item, and no waiter deque is left behind."""
    env = Environment()
    s = FilterStore(env, lambda item: item)
    got = []

    def impatient(env):
        get = s.get("unicorn")
        yield env.timeout(1)
        assert not get.triggered
        s.cancel(get)
        s.cancel(get)  # a second cancel is a no-op

    def patient(env):
        yield env.timeout(0.5)
        got.append(((yield s.get("unicorn")), env.now))

    def producer(env):
        yield env.timeout(2)
        yield s.put("unicorn")

    env.process(impatient(env))
    env.process(patient(env))
    env.process(producer(env))
    env.run()
    assert got == [("unicorn", 2)]
    assert len(s) == 0
    assert s._waiters == {} and s._items == {}


def test_cancel_foreign_event_raises():
    """Strict cancel: only gets this store queued may be cancelled —
    anything else is a protocol bug, not a silent no-op."""
    env = Environment()
    a = FilterStore(env, lambda item: item)
    b = FilterStore(env, lambda item: item)
    get = a.get("k")
    with pytest.raises(SimulationError):
        b.cancel(get)            # queued on a different store
    with pytest.raises(SimulationError):
        a.cancel(env.event())    # never queued anywhere
    assert a._waiters == {"k": deque([get])}
    a.cancel(get)
    assert a._waiters == {}


def test_cancel_after_trigger_is_noop():
    env = Environment()
    s = FilterStore(env, lambda item: item)
    s.put("x")
    get = s.get("x")
    env.run()
    assert get.value == "x"
    s.cancel(get)  # already served: nothing to withdraw
    assert len(s) == 0 and s._waiters == {}
    res = Resource(env, capacity=1)
    first, second = res.request(), res.request()
    first.cancel()  # returns the slot: the queued request takes it
    first.cancel()  # already returned: nothing to withdraw
    assert res.users == [second] and not res.queue


def test_keyed_filter_store_cancel_releases_waiter():
    env = Environment()
    s = FilterStore(env, lambda item: item)

    def never(env):
        get = s.get("unicorn")
        yield env.timeout(1)
        assert not get.triggered
        s.cancel(get)

    def normal(env):
        yield env.timeout(2)
        yield s.put("unicorn")

    env.process(never(env))
    env.process(normal(env))
    env.run()
    assert len(s) == 1  # stored, not handed to the cancelled getter
    assert s._items == {"unicorn": deque(["unicorn"])}
    assert s._waiters == {}


@pytest.mark.parametrize("get_first", [True, False])
def test_keyed_filter_store_drops_emptied_key_deques(get_first):
    """Round trips on distinct keys — job-scoped mailbox tags — leave no
    per-key waiter or item deque behind, so a long run's store does
    not grow with the number of keys it has ever seen."""
    env = Environment()
    s = FilterStore(env, lambda item: item[0])
    n = 50
    got = []

    def trip(env, k):
        if get_first:
            get = s.get(k)
            yield env.timeout(1)
            yield s.put((k, "payload"))
            got.append((yield get))
        else:
            yield s.put((k, "payload"))
            yield env.timeout(1)
            got.append((yield s.get(k)))

    for k in range(n):
        env.process(trip(env, k))
    env.run()
    assert sorted(got) == [(k, "payload") for k in range(n)]
    assert len(s) == 0
    assert s._waiters == {}
    assert s._items == {}


def test_keyed_filter_store_drops_key_after_shedding_cancelled_waiter():
    env = Environment()
    s = FilterStore(env, lambda item: item[0])

    def proc(env):
        get = s.get("tag")
        s.cancel(get)             # the waiter's deque goes with it
        assert s._waiters == {}
        yield s.put(("tag", 1))   # stored: nobody is waiting
        assert (yield s.get("tag")) == ("tag", 1)

    env.process(proc(env))
    env.run()
    assert s._waiters == {}
    assert s._items == {}


def test_store_capacity_validation():
    """The resource refuses a capacity below one slot; the keyed store
    has no capacity, but refuses a key it cannot call."""
    env = Environment()
    for capacity in (0, -1):
        with pytest.raises(ValueError, match="capacity must be positive"):
            Resource(env, capacity=capacity)
    with pytest.raises(TypeError, match="key must be callable"):
        FilterStore(env, key="tag")
