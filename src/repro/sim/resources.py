"""Capacity-limited resources with FIFO, priority, and preemptive queueing.

A :class:`Resource` hands out up to ``capacity`` concurrent *usage slots*.
Requesting returns an event (also usable as a context manager) that
succeeds when a slot is granted::

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)

:class:`PriorityResource` grants queued requests lowest-``priority``-value
first; :class:`PreemptiveResource` additionally evicts a lower-priority
user when a higher-priority request arrives, interrupting the victim's
process with a :class:`Preempted` cause.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count

from repro.sim.events import Event
from repro.sim.exceptions import SimulationError


class Request(Event):
    """A pending or granted claim on a resource slot."""

    __slots__ = ("resource", "proc", "usage_since", "_dequeued")

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource
        #: Process that issued the request (preemption target).
        self.proc = resource.env.active_process
        #: Time the slot was granted, or None while queued.
        self.usage_since = None
        #: Lazy-deletion tombstone: True once cancelled while queued.
        self._dequeued = False
        resource._do_request(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.cancel()
        return None

    def cancel(self):
        """Withdraw the request: dequeue it, or release a granted slot."""
        self.resource._do_cancel(self)


class Release(Event):
    """Event that succeeds immediately once the slot is returned."""

    __slots__ = ("request",)

    def __init__(self, resource, request):
        super().__init__(resource.env)
        self.request = request
        resource._do_cancel(request)
        self.succeed()


class Preempted:
    """Cause object delivered with the Interrupt raised by preemption."""

    __slots__ = ("by", "usage_since", "resource")

    def __init__(self, by, usage_since, resource):
        #: The process whose request caused the preemption.
        self.by = by
        #: When the victim acquired the slot it just lost.
        self.usage_since = usage_since
        self.resource = resource

    def __repr__(self):
        return f"<Preempted by={self.by!r} since={self.usage_since}>"


class Resource:
    """FIFO resource with ``capacity`` concurrent users."""

    def __init__(self, env, capacity=1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users = []
        self.queue = []
        #: Tombstoned (cancelled-while-queued) entries still in ``queue``.
        self._dead = 0
        self._seq = count()

    @property
    def capacity(self):
        return self._capacity

    @property
    def count(self):
        """Number of slots currently in use."""
        return len(self.users)

    def request(self):
        """Claim a slot; the returned event succeeds when granted."""
        return Request(self)

    def release(self, request):
        """Return a granted slot (or withdraw a queued request)."""
        return Release(self, request)

    # -- internals -------------------------------------------------------
    def _sort_key(self, request):
        return (next(self._seq),)

    def _do_request(self, request):
        heappush(self.queue, (self._sort_key(request), request))
        self._trigger()

    def _do_cancel(self, request):
        if request in self.users:
            self.users.remove(request)
            self._trigger()
        elif not request.triggered and not request._dequeued:
            # Lazy deletion: mark the entry dead and let `_trigger` (or a
            # compaction) drop it, instead of the old O(n) rebuild +
            # heapify on every cancel.  Compact once tombstones are both
            # numerous (>= 16) and the majority of the heap, which keeps
            # the amortised cost per cancel O(log n) while bounding the
            # heap at twice its live size.
            request._dequeued = True
            self._dead += 1
            if self._dead >= 16 and self._dead * 2 >= len(self.queue):
                self._compact()

    def _compact(self):
        """Drop tombstoned entries and restore the heap invariant."""
        self.queue = [(k, r) for (k, r) in self.queue if not r._dequeued]
        heapify(self.queue)
        self._dead = 0

    def _grant(self, request):
        request.usage_since = self.env.now
        self.users.append(request)
        request.succeed()

    def _trigger(self):
        while self.queue and len(self.users) < self._capacity:
            _, request = heappop(self.queue)
            if request._dequeued:
                self._dead -= 1
                continue
            if request.triggered:
                continue
            self._grant(request)


class PriorityRequest(Request):
    """Request carrying a priority (lower value = more urgent)."""

    __slots__ = ("priority", "preempt", "time")

    def __init__(self, resource, priority=0, preempt=False):
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        super().__init__(resource)


class PriorityResource(Resource):
    """Resource whose queue is served in priority order (FIFO within)."""

    def request(self, priority=0):
        return PriorityRequest(self, priority)

    def _sort_key(self, request):
        return (request.priority, request.time, next(self._seq))


class PreemptiveResource(PriorityResource):
    """Priority resource that evicts lower-priority users on demand.

    A request with ``preempt=True`` whose priority is strictly more
    urgent (numerically lower) than the least-urgent current user evicts
    that user: the victim's request is released and its process is
    interrupted with a :class:`Preempted` cause.
    """

    def request(self, priority=0, preempt=True):
        return PriorityRequest(self, priority, preempt)

    def _do_request(self, request):
        if request.preempt and len(self.users) >= self._capacity:
            # Victim selection and the eviction decision use the same
            # key: the *arrival* ordering ``(priority, request time)``
            # that also orders the wait queue.  (The old code selected
            # the victim by grant time ``usage_since`` but decided by
            # arrival time — two different clocks, so when several
            # same-priority users were granted at the same instant the
            # earliest arrival could be evicted instead of the latest.)
            # The least-urgent user is the max of that key; exact ties
            # break toward the most recently granted user (highest
            # position in ``users``, which is grant-ordered).
            victim = max(
                enumerate(self.users),
                key=lambda iu: (iu[1].priority, iu[1].time, iu[0]),
                default=(None, None),
            )[1]
            if victim is not None and (victim.priority, victim.time) > (
                request.priority,
                request.time,
            ):
                self.users.remove(victim)
                if victim.proc is None or not victim.proc.is_alive:
                    raise SimulationError(
                        "preemption victim has no live process to interrupt"
                    )
                victim.proc.interrupt(
                    Preempted(
                        by=request.proc,
                        usage_since=victim.usage_since,
                        resource=self,
                    )
                )
        super()._do_request(request)
