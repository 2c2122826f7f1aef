"""Point-to-point communication links.

Each physical Transputer link is bidirectional; the model treats each
direction as an independent unidirectional FIFO channel with a fixed
payload bandwidth and a small per-transfer startup cost.

Because transfers are never cancelled and service is strictly FIFO and
work-conserving, the link does not need its own scheduler process: for a
transfer arriving at ``now`` the finish time is exactly
``max(now, ready_at) + startup + nbytes/bandwidth``, which a single
timeout event realises.  This keeps the event count at one per packet
per hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass
class LinkStats:
    transfers: int = 0
    bytes_carried: int = 0
    busy_time: float = 0.0
    queue_time: float = 0.0

    def utilization(self, elapsed):
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    @property
    def mean_queue_time(self):
        return self.queue_time / self.transfers if self.transfers else 0.0


class Link:
    """Unidirectional FIFO link from ``src`` to ``dst``."""

    def __init__(self, env, src, dst, bandwidth, startup=0.0):
        # Written so that NaN fails both checks: a NaN delay would
        # otherwise surface as an invalid timeout deep in the event loop.
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0 <= startup < inf:
            raise ValueError(f"startup must be finite and >= 0, "
                             f"got {startup}")
        self.env = env
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.startup = startup
        self._ready_at = 0.0
        self.stats = LinkStats()

    @property
    def backlog(self):
        """Seconds of queued transmission ahead of a new arrival."""
        wait = self._ready_at - self.env._now
        # max(0.0, wait), without the builtin call (NaN gives 0.0 too).
        return wait if wait > 0.0 else 0.0

    def transmit(self, nbytes):
        """Queue ``nbytes`` for transmission; event fires at delivery.

        The returned event's value is the delivery time.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        env = self.env
        now = env._now
        wait = self._ready_at - now
        if not wait > 0.0:
            wait = 0.0
        service = self.startup + nbytes / self.bandwidth
        ready = self._ready_at = now + wait + service
        stats = self.stats
        stats.transfers += 1
        stats.bytes_carried += nbytes
        stats.busy_time += service
        stats.queue_time += wait
        return env.timeout(wait + service, ready)

    def __repr__(self):
        return f"<Link {self.src}->{self.dst} backlog={self.backlog:.6f}s>"
