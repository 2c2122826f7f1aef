"""Per-node memory management.

Two cooperating allocators model the paper's "contention for memory":

- :class:`Mmu` — a blocking byte allocator over the node's local memory
  (4 MB on the T805).  Jobs allocate their data (matrices, arrays) here;
  when time-sharing loads 16 jobs at once the MMU queue is where the
  paper's memory contention shows up.  Allocation requests are served
  FIFO; an oversized request at the head blocks later ones (no
  starvation), and waiting time is accounted.
- :class:`BufferPool` — the mailbox system's *structured* message-buffer
  pool for store-and-forward switching.  Buffers are partitioned into
  hop classes 0..D (D = network diameter); a packet that has travelled
  ``h`` hops may only occupy a buffer of class <= ``h`` (granted
  highest-class-first).  Any chain of packets waiting on each other then
  has strictly increasing buffer classes, which is acyclic — the classic
  structured-buffer-pool argument — so store-and-forward deadlock is
  impossible even on rings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim.events import PENDING, Event

#: Detail keys of the allocator probes' trace records.
_MEM_WAIT_KEYS = ("dur", "node", "region", "job", "nbytes")
_BUF_WAIT_KEYS = ("dur", "node", "job", "hop_class")


class MemoryError_(Exception):
    """Raised for impossible requests (larger than total capacity)."""


class Allocation:
    """A granted region of node memory.  Free exactly once."""

    __slots__ = ("nbytes", "mmu", "freed", "granted_at")

    def __init__(self, mmu, nbytes, granted_at):
        self.mmu = mmu
        self.nbytes = nbytes
        self.granted_at = granted_at
        self.freed = False

    def free(self):
        self.mmu.free(self)

    def __repr__(self):
        state = "freed" if self.freed else "live"
        return f"<Allocation {self.nbytes}B {state}>"


class AllocRequest(Event):
    __slots__ = ("nbytes", "owner")

    def __init__(self, mmu, nbytes, owner=None):
        # The five ``Event`` slots, set here without the
        # ``Event.__init__`` call: one request per allocation.
        self.env = mmu.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.nbytes = nbytes
        #: Job id the allocation is charged to (telemetry only).
        self.owner = owner


@dataclass
class MmuStats:
    """Contention accounting for one node's memory."""

    peak_in_use: int = 0
    total_allocs: int = 0
    blocked_allocs: int = 0
    total_wait_time: float = 0.0
    bytes_allocated: int = 0

    @property
    def mean_wait(self):
        return self.total_wait_time / self.total_allocs if self.total_allocs else 0.0


class Mmu:
    """Blocking FIFO byte allocator over a node's local memory."""

    def __init__(self, env, capacity_bytes, node_id=None, region="mem"):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.env = env
        self.capacity = int(capacity_bytes)
        self.node_id = node_id
        #: Which memory region this allocator manages ("job"/"mailbox"),
        #: used to name its telemetry instruments.
        self.region = region
        # Fast-path binding (observability is attached before the
        # system's components are constructed; see ``system.build``).
        tel = env.telemetry
        self._probe = (_MmuProbe(tel, node_id, region)
                       if tel is not None else None)
        self._in_use = 0
        self._waiters = deque()  # (request, enqueue_time)
        self.stats = MmuStats()

    @property
    def in_use(self):
        return self._in_use

    @property
    def available(self):
        return self.capacity - self._in_use

    @property
    def queue_length(self):
        return len(self._waiters)

    def backlog(self):
        """The queued requests, in words, or ``None`` if none wait.

        For the report of a run that stopped short (see
        ``MulticomputerSystem``): the count, the head request's size and
        the free bytes it waits for.
        """
        if not self._waiters:
            return None
        head = self._waiters[0][0]
        return (f"node {self.node_id!r} {self.region} region: "
                f"{len(self._waiters)} queued requests, head {head.nbytes}B, "
                f"{self.available}B of {self.capacity}B free")

    def alloc(self, nbytes, owner=None):
        """Request ``nbytes``; the event succeeds with an :class:`Allocation`.

        Requests larger than total capacity fail immediately (they could
        never be satisfied); otherwise the request waits FIFO until the
        bytes are free.  ``owner`` is the requesting job's id, recorded
        on wait telemetry only.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        req = AllocRequest(self, nbytes, owner)
        capacity = self.capacity
        if nbytes > capacity:
            req.fail(
                MemoryError_(
                    f"request of {nbytes}B exceeds node memory: the "
                    f"{self.region} region holds {capacity}B on node "
                    f"{self.node_id!r}"
                )
            )
            return req
        waiters = self._waiters
        waiters.append((req, self.env._now))
        if len(waiters) > 1 or nbytes > capacity - self._in_use:
            self.stats.blocked_allocs += 1
        self._drain()
        return req

    def free(self, allocation):
        """Return an allocation's bytes to the pool."""
        if allocation.freed:
            raise MemoryError_("double free")
        allocation.freed = True
        self._in_use -= allocation.nbytes
        if self._probe is not None:
            self._probe.level(self._in_use)
        self._drain()

    def _drain(self):
        waiters = self._waiters
        stats = self.stats
        probe = self._probe
        while waiters:
            req, t0 = waiters[0]
            nbytes = req.nbytes
            in_use = self._in_use + nbytes
            if in_use > self.capacity:
                return
            waiters.popleft()
            self._in_use = in_use
            if in_use > stats.peak_in_use:
                stats.peak_in_use = in_use
            stats.total_allocs += 1
            stats.bytes_allocated += nbytes
            now = self.env._now
            wait = now - t0
            stats.total_wait_time += wait
            if probe is not None:
                probe.grant(req, t0, wait, in_use)
            req.succeed(Allocation(self, nbytes, now))


class _MmuProbe:
    """An allocator's recording state; ``None`` when telemetry is off.

    Names are built once; instrument handles are bound on first use
    (a gauge's time average starts when it is created).
    """

    __slots__ = ("append", "metrics", "node", "region", "track",
                 "level_name", "wait_name", "_level", "_wait")

    def __init__(self, tel, node_id, region):
        self.append = tel.recorder.append
        self.metrics = tel.metrics
        self.node = node_id
        self.region = region
        self.track = f"node{node_id}.{region}"
        self.level_name = f"mem.{region}.node{node_id}.in_use"
        self.wait_name = f"mem.{region}.wait"
        self._level = None
        self._wait = None

    def level(self, in_use):
        gauge = self._level
        if gauge is None:
            gauge = self._level = self.metrics.gauge(self.level_name)
        gauge.set(in_use)

    def grant(self, req, t0, wait, in_use):
        """A granted allocation: its wait, as a span if it waited, and
        the new level."""
        hist = self._wait
        if hist is None:
            hist = self._wait = self.metrics.histogram(self.wait_name)
        hist.observe(wait)
        if wait > 0:
            self.append(t0, "mem.wait", self.track, _MEM_WAIT_KEYS,
                        wait, self.node, self.region, req.owner, req.nbytes)
        self.level(in_use)


class BufferRequest(Event):
    __slots__ = ("hop_class", "owner")

    def __init__(self, pool, hop_class, owner=None):
        # The five ``Event`` slots, set here without the
        # ``Event.__init__`` call: one request per packet hop.
        self.env = pool.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.hop_class = hop_class
        #: Job id of the in-transit message (telemetry only).
        self.owner = owner


class Buffer:
    """One packet buffer from a :class:`BufferPool`.  Release exactly once."""

    __slots__ = ("pool", "cls", "released")

    def __init__(self, pool, cls):
        self.pool = pool
        self.cls = cls
        self.released = False

    def release(self):
        self.pool.release(self)

    def __repr__(self):
        state = "released" if self.released else "held"
        return f"<Buffer class={self.cls} {state}>"


@dataclass
class BufferPoolStats:
    grants: int = 0
    #: Requests that had to queue: no class <= theirs was free when
    #: they asked.
    blocked: int = 0
    total_wait_time: float = 0.0


class BufferPool:
    """Structured (hop-class) store-and-forward message-buffer pool.

    ``acquire(h)`` grants a buffer of class <= ``h`` (the highest free
    eligible class, preserving low classes for fresh packets).  Waiters
    are served oldest-first among those eligible when a buffer frees, so
    a blocked low-class waiter never blocks a later high-class waiter
    whose class is free — the whole point of the structured pool.

    Waiters are indexed by hop class, one FIFO each.  A waiter of class
    ``h`` is eligible exactly when ``h`` is at least the lowest free
    class, so the oldest eligible waiter is the oldest head among the
    queues from that class up: a grant compares at most ``num_classes``
    heads however many packets wait.  Grants only shrink the free set,
    so granting the oldest eligible waiter until none is left serves
    exactly the order of one FIFO pass over all waiters (GUIDE §16).
    """

    def __init__(self, env, num_classes, buffers_per_class, buffer_bytes,
                 node_id=None):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if buffers_per_class < 1:
            raise ValueError("buffers_per_class must be >= 1")
        self.env = env
        self.node_id = node_id
        # Fast-path binding (see ``Mmu``): one load at construction.
        tel = env.telemetry
        self._probe = (_BufferProbe(tel, node_id)
                       if tel is not None else None)
        self.num_classes = num_classes
        self.buffer_bytes = buffer_bytes
        self._free = [buffers_per_class] * num_classes
        self._capacity_per_class = buffers_per_class
        # One FIFO of (arrival seq, request, enqueue time) per hop class.
        self._queues = [deque() for _ in range(num_classes)]
        self._queued = 0
        self._seq = 0
        self.stats = BufferPoolStats()

    @property
    def total_bytes(self):
        return self.num_classes * self._capacity_per_class * self.buffer_bytes

    @property
    def queue_length(self):
        """Requests waiting for a buffer, over all hop classes."""
        return self._queued

    def free_count(self, hop_class=None):
        if hop_class is None:
            return sum(self._free)
        return self._free[hop_class]

    def acquire(self, hop_class, owner=None):
        """Request a buffer for a packet that has travelled ``hop_class`` hops."""
        if hop_class < 0:
            raise ValueError("hop_class must be >= 0")
        top = self.num_classes - 1
        if hop_class > top:
            hop_class = top
        req = BufferRequest(self, hop_class, owner)
        now = self.env._now
        # Between calls no queued waiter is eligible: a request queues
        # only when it is not, and ``release`` drains until none is.  So
        # when a class <= ``hop_class`` is free this request is the
        # oldest eligible one and is granted on the spot.
        free = self._free
        cls = hop_class
        while cls >= 0:
            if free[cls]:
                self._grant(req, cls, now)
                return req
            cls -= 1
        self._seq += 1
        self._queues[hop_class].append((self._seq, req, now))
        self._queued += 1
        self.stats.blocked += 1
        return req

    def release(self, buffer):
        if buffer.released:
            raise MemoryError_("double release of message buffer")
        buffer.released = True
        self._free[buffer.cls] += 1
        if self._queued:
            self._drain()

    def _drain(self):
        free = self._free
        queues = self._queues
        n = self.num_classes
        while self._queued:
            for low in range(n):
                if free[low]:
                    break
            else:
                return
            # Oldest head among the classes a free buffer can serve.
            best = None
            best_seq = 0
            for h in range(low, n):
                queue = queues[h]
                if queue and (best is None or queue[0][0] < best_seq):
                    best = queue
                    best_seq = queue[0][0]
            if best is None:
                return
            _, req, t0 = best.popleft()
            self._queued -= 1
            cls = req.hop_class
            while not free[cls]:  # stops at ``low`` at the latest
                cls -= 1
            self._grant(req, cls, t0)

    def _grant(self, req, cls, t0):
        self._free[cls] -= 1
        stats = self.stats
        stats.grants += 1
        wait = self.env._now - t0
        stats.total_wait_time += wait
        probe = self._probe
        if probe is not None:
            probe.grant(req, t0, wait)
        req.succeed(Buffer(self, cls))


class _BufferProbe:
    """A buffer pool's recording state; ``None`` when telemetry is off."""

    __slots__ = ("append", "metrics", "node", "track", "_wait")

    def __init__(self, tel, node_id):
        self.append = tel.recorder.append
        self.metrics = tel.metrics
        self.node = node_id
        self.track = f"node{node_id}.buffers"
        self._wait = None

    def grant(self, req, t0, wait):
        """A granted buffer: its wait, as a span if it waited."""
        hist = self._wait
        if hist is None:
            hist = self._wait = self.metrics.histogram("buf.wait")
        hist.observe(wait)
        if wait > 0:
            self.append(t0, "buf.wait", self.track, _BUF_WAIT_KEYS,
                        wait, self.node, req.owner, req.hop_class)
