"""Bulk-quantity containers and object stores for the DES kernel.

- :class:`Container` models a divisible quantity (bytes of memory, buffer
  credits): ``put(amount)`` / ``get(amount)`` block until the operation
  can complete without over- or under-flowing.
- :class:`Store` is a FIFO queue of arbitrary Python objects with a
  capacity bound.
- :class:`FilterStore` is the unbounded keyed store behind a node's
  mailbox: it files each item under a key extracted from it, and
  ``get(k)`` waits for the oldest item filed under ``k``, served from
  per-key deques in O(1).

Cancellation follows the same lazy-tombstone discipline as
:meth:`repro.sim.resources.Resource` requests: a cancelled waiter of a
:class:`Store` or :class:`Container` is marked ``_dequeued`` and skipped
(and eventually dropped) by the service loops instead of being removed
with an O(n) deque scan; a :class:`FilterStore` waiter leaves its short
per-key deque at once.  Cancelling an event that was never queued on
the store raises :class:`~repro.sim.exceptions.SimulationError`;
cancelling one that was already served (or already cancelled) is a
no-op.
"""

from __future__ import annotations

from collections import deque

from repro.sim.events import PENDING, Event
from repro.sim.exceptions import SimulationError


def _wait_recorder(env):
    """A store's put/get wait recorder, or ``None`` with telemetry off.

    Bound when the store is built: observability is attached to the
    environment before a system's components are (see ``system.build``),
    so with telemetry off a put or get pays one ``is None`` test
    instead of a call and an ``env.telemetry`` read.
    """
    tel = env.telemetry
    if tel is None:
        return None
    histogram = tel.metrics.histogram

    def observe(name, event):
        """Record how long ``event`` waited under histogram ``name``."""
        histogram(name).observe(env._now - event.requested_at)

    return observe


def _check_cancel(store, event):
    """Whether ``event`` is a pending put/get of ``store`` to withdraw.

    Raises :class:`SimulationError` for an event never queued on
    ``store``; an already served or cancelled one is not withdrawn.
    """
    if getattr(event, "_station", None) is not store:
        raise SimulationError(
            f"{event!r} was never queued on {store!r}; cannot cancel"
        )
    return not event._dequeued and event._value is PENDING


class ContainerPut(Event):
    __slots__ = ("amount", "requested_at", "_station", "_dequeued")

    def __init__(self, container, amount):
        if amount <= 0:
            raise ValueError(f"put amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        self.requested_at = container.env._now
        self._station = container
        self._dequeued = False
        container._put_waiters.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount", "requested_at", "_station", "_dequeued")

    def __init__(self, container, amount):
        if amount <= 0:
            raise ValueError(f"get amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        self.requested_at = container.env._now
        self._station = container
        self._dequeued = False
        container._get_waiters.append(self)
        container._trigger()


class Container:
    """A divisible resource pool with blocking put/get.

    Waiters are served strictly FIFO *within each direction*; a blocked
    get at the head of the queue blocks later, smaller gets (no
    starvation of large requests).

    Parameters
    ----------
    env: Environment
    capacity: maximum level (default unbounded).
    init: initial level.
    """

    def __init__(self, env, capacity=float("inf"), init=0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self._observe_wait = _wait_recorder(env)
        self._capacity = capacity
        self._level = init
        self._put_waiters = deque()
        self._get_waiters = deque()

    @property
    def capacity(self):
        return self._capacity

    @property
    def level(self):
        """Quantity currently available."""
        return self._level

    def put(self, amount):
        """Add ``amount``; the event succeeds once it fits under capacity."""
        return ContainerPut(self, amount)

    def get(self, amount):
        """Remove ``amount``; the event succeeds once the level suffices."""
        return ContainerGet(self, amount)

    def cancel(self, event):
        """Withdraw a still-pending put/get event.

        No-op if the event was already served or already cancelled;
        raises :class:`SimulationError` for an event that was never
        queued on this container.
        """
        if _check_cancel(self, event):
            event._dequeued = True
            self._trigger()

    def _trigger(self):
        progressed = True
        while progressed:
            progressed = False
            gets = self._get_waiters
            while gets and gets[0]._dequeued:
                gets.popleft()
            if gets:
                head = gets[0]
                if head.amount <= self._level:
                    gets.popleft()
                    self._level -= head.amount
                    if self._observe_wait is not None:
                        self._observe_wait("store.container_wait", head)
                    head.succeed(head.amount)
                    progressed = True
            puts = self._put_waiters
            while puts and puts[0]._dequeued:
                puts.popleft()
            if puts:
                head = puts[0]
                if self._level + head.amount <= self._capacity:
                    puts.popleft()
                    self._level += head.amount
                    if self._observe_wait is not None:
                        self._observe_wait("store.container_wait", head)
                    head.succeed(head.amount)
                    progressed = True

    def __repr__(self):
        return f"<Container level={self._level}/{self._capacity}>"


class StorePut(Event):
    __slots__ = ("item", "requested_at", "_station", "_dequeued")

    def __init__(self, store, item):
        super().__init__(store.env)
        self.item = item
        self.requested_at = store.env._now
        self._station = store
        self._dequeued = False
        store._enqueue_put(self)


class StoreGet(Event):
    __slots__ = ("key", "requested_at", "_station", "_dequeued")

    def __init__(self, store, key=None):
        super().__init__(store.env)
        self.key = key
        self.requested_at = store.env._now
        self._station = store
        self._dequeued = False
        store._enqueue_get(self)


class Store:
    """FIFO object queue with optional capacity bound."""

    def __init__(self, env, capacity=float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._observe_wait = _wait_recorder(env)
        self._capacity = capacity
        self.items = deque()
        self._put_waiters = deque()
        self._get_waiters = deque()

    @property
    def capacity(self):
        return self._capacity

    def __len__(self):
        return len(self.items)

    def pending_items(self):
        """Stored items, oldest first."""
        return list(self.items)

    def put(self, item):
        """Append ``item``; blocks while the store is full."""
        return StorePut(self, item)

    def get(self):
        """Remove and return the oldest item; blocks while empty."""
        return StoreGet(self)

    def cancel(self, event):
        """Withdraw a still-pending put/get event.

        No-op if the event was already served or already cancelled;
        raises :class:`SimulationError` for an event that was never
        queued on this store.
        """
        if _check_cancel(self, event):
            event._dequeued = True
            self._trigger()

    def _enqueue_put(self, put):
        self._put_waiters.append(put)
        self._trigger()

    def _enqueue_get(self, get):
        self._get_waiters.append(get)
        self._trigger()

    def _trigger(self):
        progressed = True
        while progressed:
            progressed = False
            # Admit puts while there is room.
            puts = self._put_waiters
            while puts:
                put = puts[0]
                if put._dequeued:
                    puts.popleft()
                    continue
                if len(self.items) >= self._capacity:
                    break
                puts.popleft()
                self.items.append(put.item)
                if self._observe_wait is not None:
                    self._observe_wait("store.put_wait", put)
                put.succeed()
                progressed = True
            # Serve gets while items are available.
            waiters = self._get_waiters
            items = self.items
            while waiters:
                get = waiters[0]
                if get._dequeued:
                    waiters.popleft()
                    continue
                if not items:
                    break
                waiters.popleft()
                if self._observe_wait is not None:
                    self._observe_wait("store.get_wait", get)
                get.succeed(items.popleft())
                progressed = True


class FilterStore:
    """Unbounded store whose getters wait for an item with a given key.

    ``FilterStore(env, key)`` files each put item under ``key(item)``;
    ``get(k)`` succeeds with the oldest item filed under ``k``, and the
    getters waiting on one key are served oldest first.  Items and
    waiters live in per-key deques, so a put or get costs O(1) however
    many other keys are pending, and a key's deque is deleted as soon
    as it empties: mailbox tags are job-scoped, and an open run must
    not keep one per finished job.

    A put always succeeds at once (the store has no capacity; the
    mailbox's flow control is its MMU reservation), then hands its item
    to the key's oldest waiting getter, if any.
    """

    def __init__(self, env, key):
        if not callable(key):
            raise TypeError(f"key must be callable, got {key!r}")
        self.env = env
        self._observe_wait = _wait_recorder(env)
        self._key = key
        self._items = {}    # key -> deque of stored items, oldest first
        self._waiters = {}  # key -> deque of waiting gets, oldest first
        self._live = 0

    def __len__(self):
        return self._live

    def put(self, item):
        """File ``item`` under its key; the event succeeds at once."""
        return StorePut(self, item)

    def get(self, key):
        """Wait for the oldest item filed under ``key``."""
        return StoreGet(self, key)

    def cancel(self, event):
        """Withdraw a still-waiting get (see :meth:`Store.cancel`)."""
        if _check_cancel(self, event):
            event._dequeued = True
            k = event.key
            waiters = self._waiters[k]
            waiters.remove(event)
            if not waiters:
                del self._waiters[k]

    def _enqueue_put(self, put):
        item = put.item
        k = self._key(item)
        if self._observe_wait is not None:
            self._observe_wait("store.put_wait", put)
        put.succeed()
        waiters = self._waiters.get(k)
        if waiters is None:
            items = self._items.get(k)
            if items is None:
                self._items[k] = deque((item,))
            else:
                items.append(item)
            self._live += 1
            return
        get = waiters.popleft()
        if not waiters:
            del self._waiters[k]
        if self._observe_wait is not None:
            self._observe_wait("store.get_wait", get)
        get.succeed(item)

    def _enqueue_get(self, get):
        k = get.key
        items = self._items.get(k)
        if items is None:
            waiters = self._waiters.get(k)
            if waiters is None:
                self._waiters[k] = deque((get,))
            else:
                waiters.append(get)
            return
        item = items.popleft()
        if not items:
            del self._items[k]
        self._live -= 1
        if self._observe_wait is not None:
            self._observe_wait("store.get_wait", get)
        get.succeed(item)
