"""Tests for the MMU byte allocator and the structured buffer pool."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import attach
from repro.sim import Environment
from repro.transputer.memory import (
    Allocation,
    Buffer,
    BufferPool,
    BufferPoolStats,
    BufferRequest,
    MemoryError_,
    Mmu,
)


# -------------------------------------------------------------------- Mmu
def test_alloc_and_free_roundtrip():
    env = Environment()
    mmu = Mmu(env, 1000)
    out = []

    def proc(env):
        a = yield mmu.alloc(400)
        out.append(mmu.in_use)
        a.free()
        out.append(mmu.in_use)

    env.process(proc(env))
    env.run()
    assert out == [400, 0]
    assert mmu.available == 1000


def test_alloc_blocks_until_free():
    env = Environment()
    mmu = Mmu(env, 1000)
    log = []

    def hog(env):
        a = yield mmu.alloc(900)
        yield env.timeout(5)
        a.free()

    def waiter(env):
        a = yield mmu.alloc(500)
        log.append(env.now)
        a.free()

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert log == [5]
    assert mmu.stats.blocked_allocs >= 1
    assert mmu.stats.total_wait_time == pytest.approx(5)


def test_oversized_request_fails_immediately():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        try:
            yield mmu.alloc(2000)
        except MemoryError_:
            return "too big"

    p = env.process(proc(env))
    assert env.run(until=p) == "too big"


def test_double_free_rejected():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        a = yield mmu.alloc(10)
        a.free()
        with pytest.raises(MemoryError_):
            a.free()

    env.process(proc(env))
    env.run()


def test_zero_alloc_rejected():
    env = Environment()
    mmu = Mmu(env, 1000)
    with pytest.raises(ValueError):
        mmu.alloc(0)


def test_fifo_head_of_line_semantics():
    """A big blocked request at the head holds back later small ones."""
    env = Environment()
    mmu = Mmu(env, 100)
    order = []

    def hog(env):
        a = yield mmu.alloc(90)
        yield env.timeout(10)
        a.free()

    def big(env):
        yield env.timeout(1)
        a = yield mmu.alloc(80)
        order.append(("big", env.now))
        a.free()

    def small(env):
        yield env.timeout(2)
        a = yield mmu.alloc(5)
        order.append(("small", env.now))
        a.free()

    env.process(hog(env))
    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == [("big", 10), ("small", 10)]


def test_peak_usage_tracked():
    env = Environment()
    mmu = Mmu(env, 1000)

    def proc(env):
        a = yield mmu.alloc(700)
        b = yield mmu.alloc(200)
        a.free()
        b.free()

    env.process(proc(env))
    env.run()
    assert mmu.stats.peak_in_use == 900
    assert mmu.stats.total_allocs == 2
    assert mmu.stats.bytes_allocated == 900


@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_mmu_conservation(sizes):
    """in_use + available == capacity at every step; all allocs granted
    eventually when everything is freed promptly."""
    env = Environment()
    mmu = Mmu(env, 500)
    granted = []

    def proc(env, size):
        if size > 500:
            return
        a = yield mmu.alloc(size)
        assert mmu.in_use + mmu.available == mmu.capacity
        assert 0 <= mmu.in_use <= mmu.capacity
        granted.append(size)
        yield env.timeout(1)
        a.free()

    for s in sizes:
        env.process(proc(env, s))
    env.run()
    assert mmu.in_use == 0
    assert sorted(granted) == sorted(s for s in sizes if s <= 500)


# -------------------------------------------------------------- BufferPool
def test_buffer_acquire_release():
    env = Environment()
    pool = BufferPool(env, num_classes=3, buffers_per_class=2, buffer_bytes=1024)

    def proc(env):
        buf = yield pool.acquire(0)
        assert buf.cls == 0
        assert pool.free_count() == 5
        buf.release()
        assert pool.free_count() == 6

    env.process(proc(env))
    env.run()


def test_buffer_class_restriction():
    """A fresh packet (0 hops) may only use class 0; a travelled packet
    may use any class up to its hop count, granted highest-first."""
    env = Environment()
    pool = BufferPool(env, num_classes=3, buffers_per_class=1, buffer_bytes=1024)

    def proc(env):
        b2 = yield pool.acquire(2)
        assert b2.cls == 2  # highest eligible granted first
        b1 = yield pool.acquire(2)
        assert b1.cls == 1
        b0 = yield pool.acquire(2)
        assert b0.cls == 0
        # Now a fresh packet must wait even though releasing class 2
        # would not help it.
        fresh = pool.acquire(0)
        assert not fresh.triggered
        b2.release()
        assert not fresh.triggered  # class 2 not eligible for hop 0
        b0.release()
        yield fresh
        assert fresh.value.cls == 0

    env.process(proc(env))
    env.run()


def test_buffer_blocked_waiter_does_not_block_eligible_one():
    env = Environment()
    pool = BufferPool(env, num_classes=2, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b0 = yield pool.acquire(0)
        waiting_fresh = pool.acquire(0)   # blocked: class 0 busy
        travelled = pool.acquire(1)       # class 1 free: must be granted
        yield travelled
        assert travelled.value.cls == 1
        assert not waiting_fresh.triggered
        b0.release()
        yield waiting_fresh

    env.process(proc(env))
    env.run()
    # Only ``waiting_fresh`` queued; ``travelled`` was granted on the spot.
    assert pool.stats.blocked == 1


@pytest.mark.parametrize("first", [2, 1])
def test_buffer_oldest_eligible_waiter_wins_across_classes(first):
    """A freed class-1 buffer goes to the older of two eligible waiters,
    whichever hop class it queued under."""
    env = Environment()
    pool = BufferPool(env, num_classes=3, buffers_per_class=1, buffer_bytes=64)
    held = [pool.acquire(2) for _ in range(3)]
    by_cls = {req.value.cls: req.value for req in held}
    older = pool.acquire(first)
    newer = pool.acquire(3 - first)
    assert pool.queue_length == pool.stats.blocked == 2
    by_cls[1].release()
    assert older.triggered and older.value.cls == 1
    assert not newer.triggered
    assert pool.queue_length == 1


def test_buffer_double_release_rejected():
    env = Environment()
    pool = BufferPool(env, num_classes=1, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(0)
        b.release()
        with pytest.raises(MemoryError_):
            b.release()

    env.process(proc(env))
    env.run()


def test_buffer_hop_class_clamped_to_top():
    env = Environment()
    pool = BufferPool(env, num_classes=2, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(99)  # clamped to top class
        assert b.cls == 1

    env.process(proc(env))
    env.run()


def test_buffer_stats():
    env = Environment()
    pool = BufferPool(env, num_classes=1, buffers_per_class=1, buffer_bytes=64)

    def proc(env):
        b = yield pool.acquire(0)
        second = pool.acquire(0)
        yield env.timeout(4)
        b.release()
        yield second

    env.process(proc(env))
    env.run()
    assert pool.stats.grants == 2
    assert pool.stats.blocked == 1
    assert pool.stats.total_wait_time == pytest.approx(4)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=15),
)
@settings(max_examples=50, deadline=None)
def test_property_pool_never_over_grants(num_classes, per_class, hops):
    """Free count never exceeds capacity and all requests are granted
    when holders release promptly."""
    env = Environment()
    pool = BufferPool(env, num_classes=num_classes, buffers_per_class=per_class,
                      buffer_bytes=16)
    total = num_classes * per_class
    done = []

    def proc(env, h):
        buf = yield pool.acquire(h)
        assert 0 <= pool.free_count() <= total
        assert buf.cls <= min(h, num_classes - 1)
        yield env.timeout(1)
        buf.release()
        done.append(h)

    for h in hops:
        env.process(proc(env, h))
    env.run()
    assert pool.free_count() == total
    assert len(done) == len(hops)


class _RescanPool:
    """Reference structured pool: one waiter FIFO, rescanned from the
    head after every grant.  The straightforward statement of the
    semantics ``BufferPool`` must keep — grant the oldest waiter that
    has some free class <= its own, until none has."""

    def __init__(self, env, num_classes, buffers_per_class):
        self.env = env
        self.node_id = 0
        self._tel = env.telemetry
        self.num_classes = num_classes
        self._free = [buffers_per_class] * num_classes
        self._waiters = deque()  # (request, enqueue_time)
        self.stats = BufferPoolStats()

    def free_count(self):
        return sum(self._free)

    def acquire(self, hop_class, owner=None):
        hop_class = min(hop_class, self.num_classes - 1)
        req = BufferRequest(self, hop_class, owner=owner)
        self._waiters.append((req, self.env.now))
        self._drain()
        return req

    def release(self, buffer):
        buffer.released = True
        self._free[buffer.cls] += 1
        self._drain()

    def _eligible(self, hop_class):
        for cls in range(hop_class, -1, -1):
            if self._free[cls] > 0:
                return cls
        return None

    def _drain(self):
        progressed = True
        while progressed:
            progressed = False
            for i, (req, t0) in enumerate(self._waiters):
                cls = self._eligible(req.hop_class)
                if cls is None:
                    continue
                del self._waiters[i]
                self._free[cls] -= 1
                self.stats.grants += 1
                wait = self.env.now - t0
                self.stats.total_wait_time += wait
                tel = self._tel
                if tel is not None:
                    tel.metrics.histogram("buf.wait").observe(wait)
                    if wait > 0:
                        tel.slice("buf.wait", f"node{self.node_id}.buffers",
                                  t0, wait, node=self.node_id, job=req.owner,
                                  hop_class=req.hop_class)
                req.succeed(Buffer(self, cls))
                progressed = True
                break


@st.composite
def _pool_schedules(draw):
    """(num_classes, buffers_per_class, steps) for :func:`_play`.

    Each step is a burst of same-time acquires, then releases of held
    buffers picked by index (so release order is independent of grant
    order), then a wait of random length (possibly zero).  Hop classes
    come from a small per-schedule palette, mostly low classes, so
    bursts overfill a few classes and waiters of several classes queue
    at once; palette entries reach past the top class to exercise
    clamping.
    """
    num_classes = draw(st.integers(min_value=1, max_value=16))
    per_class = draw(st.integers(min_value=1, max_value=3))
    palette = draw(st.lists(
        st.integers(min_value=0, max_value=3)
        | st.integers(min_value=0, max_value=num_classes + 3),
        min_size=1, max_size=3))
    step = st.tuples(
        st.lists(st.sampled_from(palette), max_size=8),
        st.lists(st.integers(min_value=0, max_value=63), max_size=4),
        st.sampled_from([0, 0.5, 1, 2.25, 3]),
    )
    steps = draw(st.lists(step, min_size=1, max_size=12))
    return num_classes, per_class, steps


def _play(make_pool, steps, telemetry):
    """Drive ``steps`` against a fresh pool; every held buffer is
    released at the end so queued requests drain.  Returns the grant
    sequence ``(request index, class, grant time)`` in ``succeed`` order
    (the agenda processes same-time events FIFO), the pool, and the
    telemetry (or None)."""
    env = Environment()
    tel = attach(env) if telemetry else None
    pool = make_pool(env)
    grants = []
    held = []

    def on_grant(index):
        def record(event):
            grants.append((index, event.value.cls, env.now))
            held.append(event.value)
        return record

    def scenario(env):
        issued = 0
        for hops, releases, dt in steps:
            for h in hops:
                pool.acquire(h, owner=issued).callbacks.append(
                    on_grant(issued))
                issued += 1
            for k in releases:
                if held:
                    held.pop(k % len(held)).release()
            yield env.timeout(dt)
        while len(grants) < issued:
            yield env.timeout(0)
            while held:
                held.pop().release()
            yield env.timeout(1)
        while held:
            held.pop().release()

    env.process(scenario(env))
    env.run()
    return grants, pool, tel


@given(_pool_schedules())
@settings(max_examples=200, deadline=None)
def test_property_indexed_pool_matches_rescan(schedule):
    """The per-class index grants exactly what the single-deque rescan
    grants: same requests, classes and times in the same order, same
    stats, and — with telemetry on — the same ``buf.wait`` slices and
    histogram."""
    num_classes, per_class, steps = schedule

    def indexed(env):
        return BufferPool(env, num_classes=num_classes,
                          buffers_per_class=per_class, buffer_bytes=16,
                          node_id=0)

    def rescan(env):
        return _RescanPool(env, num_classes, per_class)

    got, pool, tel = _play(indexed, steps, telemetry=True)
    want, ref, ref_tel = _play(rescan, steps, telemetry=True)
    assert got == want
    assert pool.stats.grants == ref.stats.grants == len(want)
    assert pool.stats.total_wait_time == ref.stats.total_wait_time
    assert pool.free_count() == ref.free_count() == num_classes * per_class
    assert pool.queue_length == 0

    def slices(t):
        return [(e.time, e.subject, e.detail)
                for e in t.recorder.by_category("buf.wait")]

    assert slices(tel) == slices(ref_tel)
    hist, ref_hist = (t.metrics.histogram("buf.wait") for t in (tel, ref_tel))
    assert hist.counts == ref_hist.counts
    assert hist.total == ref_hist.total
    # Telemetry observes only: the untraced run grants identically.
    assert _play(indexed, steps, telemetry=False)[0] == got

