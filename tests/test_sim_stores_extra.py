"""Additional coverage for stores/containers: cancellation, bounds."""

from collections import deque

import pytest

from repro.sim import Container, Environment, FilterStore, Store


def test_store_cancel_pending_get():
    env = Environment()
    s = Store(env)
    log = []

    def impatient(env):
        get = s.get()
        result = yield get | env.timeout(1)
        if get not in result:
            s.cancel(get)
            log.append("gave-up")

    def late_producer(env):
        yield env.timeout(2)
        yield s.put("item")

    env.process(impatient(env))
    env.process(late_producer(env))
    env.run()
    assert log == ["gave-up"]
    assert list(s.items) == ["item"]  # nobody consumed it


def test_store_cancel_pending_put():
    env = Environment()
    s = Store(env, capacity=1)
    log = []

    def producer(env):
        yield s.put("a")
        put = s.put("b")
        result = yield put | env.timeout(1)
        if put not in result:
            s.cancel(put)
            log.append("withdrew")

    env.process(producer(env))
    env.run()
    assert log == ["withdrew"]
    assert list(s.items) == ["a"]


def test_container_cancel_pending_get():
    env = Environment()
    c = Container(env, capacity=10, init=0)

    def impatient(env):
        get = c.get(5)
        result = yield get | env.timeout(1)
        if get not in result:
            c.cancel(get)

    def feeder(env):
        yield env.timeout(2)
        yield c.put(5)

    env.process(impatient(env))
    env.process(feeder(env))
    env.run()
    assert c.level == 5  # the cancelled get never took it


def test_container_cancel_pending_put():
    env = Environment()
    c = Container(env, capacity=5, init=5)

    def producer(env):
        put = c.put(3)
        result = yield put | env.timeout(1)
        if put not in result:
            c.cancel(put)

    env.process(producer(env))
    env.run()
    assert c.level == 5


def test_filter_store_cancel_releases_waiter():
    """A cancelled waiter leaves its key's queue: the next getter of
    that key takes the item, and no waiter deque is left behind."""
    env = Environment()
    s = FilterStore(env, lambda item: item)
    got = []

    def impatient(env):
        get = s.get("unicorn")
        result = yield get | env.timeout(1)
        if get not in result:
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
    """Strict cancel: only events this store/container queued may be
    cancelled — anything else is a protocol bug, not a silent no-op."""
    from repro.sim.exceptions import SimulationError

    env = Environment()
    a, b = Store(env), Store(env)
    c = Container(env, capacity=5)
    get = a.get()
    with pytest.raises(SimulationError):
        b.cancel(get)            # queued on a different store
    with pytest.raises(SimulationError):
        a.cancel(env.event())    # never queued anywhere
    with pytest.raises(SimulationError):
        c.cancel(env.event())


def test_cancel_after_trigger_is_noop():
    env = Environment()
    s = Store(env)
    s.put("x")
    get = s.get()
    env.run()
    assert get.value == "x"
    s.cancel(get)  # already served: nothing to withdraw
    assert len(s) == 0


def test_keyed_filter_store_cancel_releases_waiter():
    env = Environment()
    s = FilterStore(env, lambda item: item)

    def never(env):
        get = s.get("unicorn")
        result = yield get | env.timeout(1)
        if get not in result:
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
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=0)


def test_store_len_tracks_items():
    env = Environment()
    s = Store(env)

    def proc(env):
        yield s.put(1)
        yield s.put(2)
        assert len(s) == 2
        yield s.get()
        assert len(s) == 1

    env.process(proc(env))
    env.run()


def test_interleaved_puts_gets_stress():
    env = Environment()
    s = Store(env, capacity=3)
    consumed = []

    def producer(env, start):
        for i in range(start, start + 20):
            yield s.put(i)
            yield env.timeout(0.01)

    def consumer(env):
        for _ in range(40):
            item = yield s.get()
            consumed.append(item)
            yield env.timeout(0.015)

    env.process(producer(env, 0))
    env.process(producer(env, 100))
    env.process(consumer(env))
    env.run()
    assert len(consumed) == 40
    assert sorted(consumed) == sorted(list(range(20)) +
                                      list(range(100, 120)))
