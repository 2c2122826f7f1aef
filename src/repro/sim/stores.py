"""The keyed object store behind a node's mailbox.

:class:`FilterStore` is an unbounded store that files each item under a
key extracted from it; ``get(k)`` waits for the oldest item filed under
``k``, served from per-key deques in O(1).  A cancelled waiter leaves
its short per-key deque at once.  Cancelling an event that was never
queued on the store raises
:class:`~repro.sim.exceptions.SimulationError`; cancelling one that was
already served (or already cancelled) is a no-op.
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

    def __init__(self, store, key):
        super().__init__(store.env)
        self.key = key
        self.requested_at = store.env._now
        self._station = store
        self._dequeued = False
        store._enqueue_get(self)


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
        """Withdraw a still-waiting get.

        No-op if the get was already served or already cancelled;
        raises :class:`SimulationError` for an event that was never
        queued on this store.
        """
        if getattr(event, "_station", None) is not self:
            raise SimulationError(
                f"{event!r} was never queued on {self!r}; cannot cancel"
            )
        if not event._dequeued and event._value is PENDING:
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
