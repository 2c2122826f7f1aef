"""A capacity-limited resource with FIFO queueing.

A :class:`Resource` hands out up to ``capacity`` concurrent *usage slots*
and grants queued requests oldest first.  Requesting returns an event
(also usable as a context manager) that succeeds when a slot is granted::

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)

The models' one use is :class:`~repro.comm.wormhole.WormholeNetwork`'s
single-occupancy channels.
"""

from __future__ import annotations

from collections import deque

from repro.sim.events import Event


class Request(Event):
    """A pending or granted claim on a resource slot."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.cancel()
        return None

    def cancel(self):
        """Withdraw the request: dequeue it, or release a granted slot."""
        self.resource._do_cancel(self)


class Resource:
    """FIFO resource with ``capacity`` concurrent users."""

    def __init__(self, env, capacity=1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users = []
        self.queue = deque()

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

    # -- internals -------------------------------------------------------
    def _do_request(self, request):
        self.queue.append(request)
        self._trigger()

    def _do_cancel(self, request):
        if request in self.users:
            self.users.remove(request)
            self._trigger()
        elif request in self.queue:
            self.queue.remove(request)

    def _trigger(self):
        queue = self.queue
        while queue and len(self.users) < self._capacity:
            request = queue.popleft()
            self.users.append(request)
            request.succeed()
