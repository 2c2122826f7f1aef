"""Bulk-quantity containers and object stores for the DES kernel.

- :class:`Container` models a divisible quantity (bytes of memory, buffer
  credits): ``put(amount)`` / ``get(amount)`` block until the operation
  can complete without over- or under-flowing.
- :class:`Store` is a FIFO queue of arbitrary Python objects with a
  capacity bound; :class:`FilterStore` lets getters wait for an item
  matching a predicate — or, with a ``key=`` extractor, serves getters
  matching on a hashable key from per-key deques in O(1).

Cancellation follows the same lazy-tombstone discipline as
:meth:`repro.sim.resources.Resource` requests: a cancelled waiter is
marked ``_dequeued`` and skipped (and eventually dropped) by the service
loops instead of being removed with an O(n) deque scan.  Cancelling an
event that was never queued on the store raises
:class:`~repro.sim.exceptions.SimulationError`; cancelling one that was
already served (or already cancelled) is a no-op.
"""

from __future__ import annotations

from collections import deque

from repro.sim.events import PENDING, Event
from repro.sim.exceptions import SimulationError

#: Sentinel for "this getter has no key" — ``None`` is a legitimate key
#: value for an extractor like ``lambda m: m.tag``.
_NO_KEY = object()

#: Lazy-deletion compaction thresholds (same policy as
#: ``Resource._do_cancel``): compact once at least this many tombstones
#: exist *and* they make up at least half the structure.
_COMPACT_MIN_DEAD = 16


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
        if getattr(event, "_station", None) is not self:
            raise SimulationError(
                f"{event!r} was never queued on {self!r}; cannot cancel"
            )
        if event._dequeued or event._value is not PENDING:
            return
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
    __slots__ = ("filter", "key", "requested_at", "_station", "_dequeued",
                 "_seq")

    def __init__(self, store, filter=None, key=_NO_KEY):
        super().__init__(store.env)
        self.filter = filter
        self.key = key
        self.requested_at = store.env._now
        self._station = store
        self._dequeued = False
        #: Arrival order among *waiting* getters of a keyed store —
        #: arbitrates FIFO fairness between keyed and predicate waiters.
        self._seq = 0
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
        """Stored items, oldest first (works for keyed stores too)."""
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
        if getattr(event, "_station", None) is not self:
            raise SimulationError(
                f"{event!r} was never queued on {self!r}; cannot cancel"
            )
        if event._dequeued or event._value is not PENDING:
            return
        event._dequeued = True
        self._trigger()

    # -- waiter intake (overridden by keyed FilterStore) -----------------
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
            served = self._serve_gets()
            progressed = progressed or served

    def _serve_gets(self):
        served = False
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
            served = True
        return served


class FilterStore(Store):
    """Store whose getters may wait for an item matching a predicate.

    ``get(lambda item: ...)`` succeeds with the *oldest* matching item.
    Getters are examined in FIFO order but a blocked getter does not
    block later getters whose predicates match available items.

    With a ``key=`` extractor the store additionally indexes items by
    ``key(item)`` and serves ``get(key=value)`` getters from per-key
    deques in O(1) instead of scanning — the fast path behind
    tag-matched :class:`~repro.comm.mailbox.Mailbox` receives.
    Predicate getters (``get(filter)``) still work on a keyed store via
    a linear scan, and FIFO fairness between the two kinds is preserved
    exactly: every item goes to the *oldest* waiting getter that
    matches it, and every getter receives the *oldest* item matching
    it, just as on the legacy path.
    """

    def __init__(self, env, capacity=float("inf"), key=None):
        super().__init__(env, capacity)
        self._key = key
        if key is not None:
            # Master FIFO of ``[item, alive, key]`` entries plus a
            # per-key index over the same entry objects; an item's key
            # is extracted once, when it is stored.  Consumed entries
            # are tombstoned (``alive = False``) and dropped lazily; the
            # master list compacts Resource-style once tombstones
            # dominate.
            self.items = None  # fail loudly on legacy-path misuse
            self._entries = deque()
            self._by_key = {}
            self._live = 0
            self._dead = 0
            self._kwaiters = {}      # key -> deque of waiting keyed gets
            self._pwaiters = deque()  # waiting predicate gets, FIFO
            self._getseq = 0

    def __len__(self):
        if self._key is not None:
            return self._live
        return len(self.items)

    def pending_items(self):
        if self._key is not None:
            return [entry[0] for entry in self._entries if entry[1]]
        return list(self.items)

    def get(self, filter=None, key=_NO_KEY):
        """Wait for a matching item.

        Pass ``filter`` (a predicate over items) *or* ``key`` (a value
        the store's ``key=`` extractor must map the item to), not both.
        """
        if key is not _NO_KEY:
            if filter is not None:
                raise ValueError("pass either filter or key, not both")
            if self._key is None:
                raise ValueError(
                    "keyed get on a store built without a key= extractor"
                )
        return StoreGet(self, filter, key)

    # -- legacy predicate path -------------------------------------------
    def _serve_gets(self):
        # One forward pass over the waiters, resuming in place after a
        # successful match instead of restarting from the head: a serve
        # only *removes* an item, so no earlier waiter (checked against
        # a superset of the remaining items) can newly match — the
        # service order is identical to a full restart, without the
        # O(waiters) re-walk per match.
        served = False
        waiters = self._get_waiters
        items = self.items
        i = 0
        while i < len(waiters):
            get = waiters[i]
            if get._dequeued:
                del waiters[i]
                continue
            if not items:
                break
            flt = get.filter
            matched = None
            if flt is None:
                matched = items[0]
            else:
                for item in items:
                    if flt(item):
                        matched = item
                        break
            if matched is None:
                i += 1
                continue
            del waiters[i]
            items.remove(matched)
            if self._observe_wait is not None:
                self._observe_wait("store.get_wait", get)
            get.succeed(matched)
            served = True
        return served

    # -- keyed path ------------------------------------------------------
    def _enqueue_put(self, put):
        if self._key is None:
            self._put_waiters.append(put)
            self._trigger()
            return
        if self._put_waiters or self._live >= self._capacity:
            self._put_waiters.append(put)
            return
        entry = self._store_entry(put.item)
        if self._observe_wait is not None:
            self._observe_wait("store.put_wait", put)
        put.succeed()
        self._serve_admitted([entry])
        # Serving may have freed room for queued puts only when it
        # consumed an entry, which cannot happen here (the store had
        # room and no queued puts an instant ago), so no re-admission
        # pass is needed.

    def _enqueue_get(self, get):
        if self._key is None:
            self._get_waiters.append(get)
            self._trigger()
            return
        # Invariant: no waiting getter matches any stored item.  A new
        # getter therefore either takes a stored item immediately or
        # joins the waiters — no other getter's eligibility can change.
        k = get.key
        if k is not _NO_KEY:
            entry = self._oldest_for_key(k)
            if entry is None:
                self._getseq += 1
                get._seq = self._getseq
                waiters = self._kwaiters.get(k)
                if waiters is None:
                    waiters = self._kwaiters[k] = deque()
                waiters.append(get)
                return
        else:
            flt = get.filter
            entry = None
            for candidate in self._entries:
                if candidate[1] and (flt is None or flt(candidate[0])):
                    entry = candidate
                    break
            if entry is None:
                self._getseq += 1
                get._seq = self._getseq
                self._pwaiters.append(get)
                return
        item = self._consume(entry)
        if self._observe_wait is not None:
            self._observe_wait("store.get_wait", get)
        get.succeed(item)
        self._trigger()  # the freed capacity may admit queued puts

    def _trigger(self):
        if self._key is None:
            super()._trigger()
            return
        # Admit queued puts while room, then serve the admitted items to
        # waiting getters oldest-getter-first; repeat while progress is
        # made (a served getter frees capacity for further puts).  Same
        # loop shape — and therefore the same succeed order — as the
        # legacy path.
        progressed = True
        while progressed:
            progressed = False
            admitted = None
            puts = self._put_waiters
            while puts:
                put = puts[0]
                if put._dequeued:
                    puts.popleft()
                    continue
                if self._live >= self._capacity:
                    break
                puts.popleft()
                entry = self._store_entry(put.item)
                if admitted is None:
                    admitted = []
                admitted.append(entry)
                if self._observe_wait is not None:
                    self._observe_wait("store.put_wait", put)
                put.succeed()
                progressed = True
            if admitted and self._serve_admitted(admitted):
                progressed = True

    def _serve_admitted(self, admitted):
        """Serve newly stored entries to waiters, oldest getter first.

        By the invariant, only these entries can match a waiting
        getter, so each round finds the oldest waiting getter matching
        any of them — via the per-key waiter index plus a scan of the
        (typically empty) predicate waiters — and serves it exactly as
        the legacy FIFO walk would.
        """
        served = False
        while True:
            best = None
            best_entry = None
            for entry in admitted:
                if not entry[1]:
                    continue
                k = entry[2]
                waiters = self._kwaiters.get(k)
                get = None
                while waiters:
                    head = waiters[0]
                    if head._dequeued:
                        waiters.popleft()
                        if not waiters:
                            del self._kwaiters[k]
                        continue
                    get = head
                    break
                if get is not None and (best is None
                                        or get._seq < best._seq):
                    # The oldest stored entry for this key, not the
                    # first admitted one, keeps oldest-item semantics
                    # when several same-key items were admitted.
                    best = get
                    best_entry = self._oldest_for_key(get.key)
            pwaiters = self._pwaiters
            while pwaiters and pwaiters[0]._dequeued:
                pwaiters.popleft()
            for get in pwaiters:
                if get._dequeued:
                    continue
                if best is not None and get._seq > best._seq:
                    break
                flt = get.filter
                entry = None
                for candidate in admitted:
                    if candidate[1] and (flt is None
                                         or flt(candidate[0])):
                        entry = candidate
                        break
                if entry is not None:
                    best = get
                    best_entry = entry
                    break
            if best is None:
                return served
            if best.key is not _NO_KEY:
                # The shedding loop above left it at the head of its
                # deque; an emptied deque goes, or job-scoped tags leak.
                waiters = self._kwaiters[best.key]
                waiters.popleft()
                if not waiters:
                    del self._kwaiters[best.key]
            else:
                self._pwaiters.remove(best)
            item = self._consume(best_entry)
            if self._observe_wait is not None:
                self._observe_wait("store.get_wait", best)
            best.succeed(item)
            served = True

    def _store_entry(self, item):
        k = self._key(item)
        entry = [item, True, k]
        self._entries.append(entry)
        index = self._by_key.get(k)
        if index is None:
            index = self._by_key[k] = deque()
        index.append(entry)
        self._live += 1
        return entry

    def _oldest_for_key(self, k):
        """Oldest live entry for key ``k``, shedding dead heads."""
        index = self._by_key.get(k)
        if index is None:
            return None
        while index:
            entry = index[0]
            if entry[1]:
                return entry
            index.popleft()
        del self._by_key[k]
        return None

    def _consume(self, entry):
        entry[1] = False
        self._live -= 1
        self._dead += 1
        k = entry[2]
        index = self._by_key.get(k)
        if index and index[0] is entry:
            index.popleft()
            if not index:
                del self._by_key[k]
        if (self._dead >= _COMPACT_MIN_DEAD
                and self._dead * 2 >= len(self._entries)):
            self._compact()
        return entry[0]

    def _compact(self):
        self._entries = deque(e for e in self._entries if e[1])
        by_key = {}
        for entry in self._entries:
            k = entry[2]
            index = by_key.get(k)
            if index is None:
                index = by_key[k] = deque()
            index.append(entry)
        self._by_key = by_key
        self._dead = 0
