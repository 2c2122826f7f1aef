"""Calibrated constants for the simulated T805 Transputer system.

Absolute 1997 hardware speeds are irrelevant to the reproduction — the
paper's findings are about *relative* policy behaviour — but the ratios
between computation rate, link bandwidth, quantum length and memory size
shape every result, so the defaults below keep those ratios in T805
territory:

- a T805-25 delivers roughly 1 MFLOPS sustained;
- its four bidirectional links run at 20 Mbit/s, ~1.7 MB/s effective
  unidirectional payload rate;
- the hardware low-priority timeslice is about 2 ms (the paper quotes
  2 ms: two 1 ms periods);
- each node carries 4 MB of local memory.

Everything is a plain dataclass field, so experiments can sweep any knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

MB = 1 << 20
KB = 1 << 10


@dataclass
class TransputerConfig:
    """Tunable hardware model parameters (defaults: T805-like)."""

    # -- processor ------------------------------------------------------
    #: Generic computational operations per second (flops, comparisons).
    #: A T805-25 peaks well above this, but sustained throughput of
    #: compiled application loops (array indexing + floating point, or
    #: compare-and-swap) is a few microseconds per operation; 3 us/op
    #: keeps the compute/communication ratio in T805 territory.
    cpu_ops_per_second: float = 3.3e5
    #: Low-priority round-robin timeslice in seconds (hardware default).
    quantum: float = 2.0e-3
    #: Basic quantum q used by the software local schedulers for the
    #: RR-job rule Q = (P/T) q.  Coarser than the 2 ms hardware slice:
    #: the local schedulers implement their own preemption control in
    #: software, and q is chosen so the smallest per-process quantum
    #: (fixed architecture, T/P = 16) stays near the hardware
    #: granularity rather than far below it.
    scheduler_quantum: float = 10.0e-3
    #: Scheduler overhead charged at every dispatch.  The hardware swap
    #: is ~1 us, but the paper's local schedulers implement their own
    #: preemption control in software on top of it.
    context_switch_overhead: float = 25.0e-6
    #: If True a preempted low-priority process re-queues at the back of
    #: the low queue (Transputer behaviour: its unfinished quantum is lost).
    requeue_at_back: bool = True

    # -- memory ----------------------------------------------------------
    #: Local memory per node in bytes.
    memory_bytes: int = 4 * MB
    #: Bytes taken by the runtime system, program code, and the
    #: schedulers themselves — unavailable to application data.  The
    #: paper's problem sizes were chosen so that a multiprogramming
    #: level of 16 *barely* fits in what remains (Section 5.2 footnote),
    #: which is precisely what makes memory contention a first-order
    #: effect for time-sharing.
    os_reserved_bytes: int = 7 * MB // 4
    #: Bytes reserved out of local memory for the store-and-forward
    #: message-buffer pool (the mailbox system's structured buffers).
    buffer_pool_bytes: int = 128 * KB
    #: Buffers per hop class in the structured (deadlock-free) pool.
    buffers_per_class: int = 2

    # -- links / communication -------------------------------------------
    #: Effective unidirectional payload bandwidth per link, bytes/second.
    link_bandwidth: float = 1.7e6
    #: Hardware startup cost per transfer on a link, seconds.
    link_startup: float = 5.0e-6
    #: Software store-and-forward cost per packet per hop, seconds.
    #: Charged as high-priority CPU work on the forwarding node.
    hop_software_overhead: float = 150.0e-6
    #: CPU memory-copy throughput, bytes/second.  Store-and-forward
    #: switching copies every byte of a packet through the forwarding
    #: node's memory, so each hop also charges nbytes/copy rate of
    #: high-priority CPU work — a dominant cost of software messaging
    #: on the Transputer and the reason heavy traffic starves
    #: computation under high multiprogramming levels.
    copy_bytes_per_second: float = 1.5e6
    #: Maximum packet payload; larger messages are fragmented.
    packet_bytes: int = 4 * KB
    #: Per-message fixed software send/receive overhead, seconds.
    message_overhead: float = 100.0e-6

    # -- host interface ---------------------------------------------------
    #: Bandwidth of the single link to the front-end host workstation,
    #: bytes/second.  Every job's program image and initial data enter
    #: through it, and results leave through it; under time-sharing all
    #: 16 jobs of a batch load at once and this link is where the burst
    #: serialises.
    host_bandwidth: float = 1.7e6
    #: Startup cost per host-link transfer, seconds.
    host_startup: float = 1.0e-3

    # -- wormhole variant (ablation E6) ------------------------------------
    #: Flit size for the wormhole router, bytes.
    flit_bytes: int = 32
    #: Per-hop header routing latency under wormhole switching, seconds.
    wormhole_hop_latency: float = 2.0e-6

    def ops_time(self, ops):
        """Seconds of CPU time for ``ops`` generic operations."""
        return ops / self.cpu_ops_per_second

    def transfer_time(self, nbytes):
        """Seconds to push ``nbytes`` through one link (excl. startup)."""
        return nbytes / self.link_bandwidth

    def copy_time(self, nbytes):
        """Seconds of CPU to copy ``nbytes`` through node memory."""
        return nbytes / self.copy_bytes_per_second

    def hop_cpu_cost(self, nbytes):
        """High-priority CPU work charged at a store-and-forward hop."""
        return self.hop_software_overhead + self.copy_time(nbytes)

    def packets_for(self, nbytes):
        """Number of packets a message of ``nbytes`` fragments into."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.packet_bytes)

    def validate(self):
        """Raise ValueError on nonsensical parameter combinations."""
        # The processor checks are written so that NaN fails them too:
        # a NaN time would otherwise surface deep inside the event loop
        # (or, for the overhead, silently act as zero).
        if not self.cpu_ops_per_second > 0:
            raise ValueError(f"cpu_ops_per_second must be positive, "
                             f"got {self.cpu_ops_per_second}")
        if not 0 < self.quantum < inf:
            raise ValueError(f"quantum must be finite and positive, "
                             f"got {self.quantum}")
        if not 0 < self.scheduler_quantum < inf:
            raise ValueError(f"scheduler_quantum must be finite and "
                             f"positive, got {self.scheduler_quantum}")
        overhead = self.context_switch_overhead
        if not 0 <= overhead < inf:
            raise ValueError(f"context_switch_overhead must be finite and "
                             f"non-negative, got {overhead}")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if not 0 <= self.buffer_pool_bytes <= self.memory_bytes:
            raise ValueError("buffer_pool_bytes must fit in memory_bytes")
        if not 0 <= self.os_reserved_bytes < self.memory_bytes:
            raise ValueError("os_reserved_bytes must fit in memory_bytes")
        # The transport checks follow the same rule: a NaN or infinite
        # time would only fail at the first send or hop, as an invalid
        # timeout or a non-finite CPU burst.
        for name in ("copy_bytes_per_second", "link_bandwidth",
                     "host_bandwidth"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if self.buffers_per_class < 1:
            raise ValueError("buffers_per_class must be >= 1")
        for name in ("link_startup", "hop_software_overhead",
                     "message_overhead", "host_startup",
                     "wormhole_hop_latency"):
            value = getattr(self, name)
            if not 0 <= value < inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {value}")
        return self
