"""The T805 hardware processor scheduler.

The Transputer maintains two ready queues in hardware:

- **High priority** — processes run to completion (or until they block).
  The simulator uses this level for system work: the communication
  software's per-hop store-and-forward handling and the scheduling
  machinery itself.
- **Low priority** — processes are round-robin time-shared.  The
  hardware default quantum is ~2 ms; the paper's local schedulers set
  their own per-process quantum to implement the RR-job rule
  ``Q = (P/T) * q``.  When a high-priority process becomes ready, the
  running low-priority process is preempted immediately and *the
  unfinished part of its quantum is lost* (it re-queues at the back).

The public operation is :meth:`Cpu.execute`: submit a burst of
``work_seconds`` of computation at a priority (and optional per-request
quantum) and receive an event that fires when the burst has accumulated
that much CPU time.

Implementation note — event economy.  Naively emitting one event per
quantum makes big simulations needlessly slow, so when a low-priority
burst is the *only* runnable work the dispatcher grants it its entire
remaining time in one slice; any arrival interrupts the slice and the
elapsed time is credited.  This is behaviourally identical to quantum
slicing (round-robin among one process is that process running) but
collapses thousands of events into one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from math import inf

from repro.sim import Event
from repro.sim.events import PENDING

#: Priority levels (match the two hardware ready queues).
HIGH = 0
LOW = 1

_EPS = 1e-12

#: Detail keys of the CPU probe's trace records, one tuple per site.
_WAIT_KEYS = ("dur", "node", "tag", "proc", "kind")
_SLICE_KEYS = ("dur", "node", "prio", "tag", "proc")
_PREEMPT_KEYS = ("node", "tag")

#: The decision ledger's keys for the CPU probe's per-slice tallies.
_ARM_QUANTUM = ("cpu", "arm", "quantum")
_ARM_EXTENDED = ("cpu", "arm", "extended")
_PREEMPTED = ("cpu", "slice", "preempted")
_BLOCK_YIELD = ("cpu", "slice", "block_yield")
_QUANTUM_EXPIRY = ("cpu", "slice", "quantum_expiry")


class WorkRequest(Event):
    """A burst of CPU work; the event fires when the burst completes."""

    __slots__ = ("priority", "remaining", "quantum", "tag", "submitted_at",
                 "started_at", "cpu_time", "slices", "proc", "ready_since",
                 "ready_kind")

    def __init__(self, cpu, work_seconds, priority, quantum, tag, proc=None):
        env = cpu.env
        # The five ``Event`` slots, set here without the
        # ``Event.__init__`` call: one request per burst and per hop.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.priority = priority
        self.remaining = float(work_seconds)
        self.quantum = quantum
        #: Opaque owner handle (job/process identity) for accounting.
        self.tag = tag
        #: Process index within the owning job (profiler attribution).
        self.proc = proc
        self.submitted_at = env._now
        self.started_at = None
        #: CPU time actually consumed so far.
        self.cpu_time = 0.0
        #: Number of dispatches this request received.
        self.slices = 0
        #: When this request last entered a ready queue, and why
        #: ("enqueue" = fresh submission, "requeue" = lost the CPU with
        #: work remaining).  The dispatcher turns the interval up to the
        #: next grant into a ``cpu.wait`` trace event.
        self.ready_since = env._now
        self.ready_kind = "enqueue"

    def __repr__(self):
        lvl = "HIGH" if self.priority == HIGH else "LOW"
        return f"<WorkRequest {lvl} rem={self.remaining:.6f} tag={self.tag!r}>"


@dataclass
class CpuStats:
    """Aggregate accounting for one CPU."""

    busy_time: float = 0.0
    high_time: float = 0.0
    low_time: float = 0.0
    overhead_time: float = 0.0
    dispatches: int = 0
    preemptions: int = 0
    completed: int = 0

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` the CPU spent doing work or overhead."""
        if elapsed <= 0:
            return 0.0
        return (self.busy_time + self.overhead_time) / elapsed


class Cpu:
    """Two-priority processor with round-robin low-priority sharing.

    Dispatch is a callback state machine with at most one agenda entry
    armed at a time: the idle wakeup, the context-switch overhead, or
    the slice.  Each arm builds a continuation entry (see
    :meth:`Environment.kick`): the time and NORMAL key that
    :meth:`Environment.schedule` would give a freshly created Timeout
    (or a succeeded wakeup Event) at that point, with the continuation,
    bound once at construction, in the event's place.  No event is
    built, so an arm allocates only the entry.  The entry goes to the
    environment's held slot when it is free (the loop then pops it
    without a heap push when it is due first) and onto the heap
    otherwise.  A preemption leaves the slice's entry queued; ``_armed``
    holds the key of the slice still wanted, so the abandoned entry
    pops as one counted no-op.
    """

    def __init__(self, env, config, node_id=None):
        overhead = config.context_switch_overhead
        if not 0 <= overhead < inf:
            raise ValueError(f"context_switch_overhead must be finite "
                             f"and >= 0, got {overhead}")
        self.env = env
        self.config = config
        self.node_id = node_id
        # Observability is attached to the environment before the
        # system's components are constructed (see ``system.build``), so
        # with telemetry and the ledger off the dispatch path skips the
        # observers behind one ``None`` test per slice end.  The
        # recording state lives on the probe, not here: a Cpu with five
        # more attributes lost CPython's shared instance-dict keys and
        # slowed every simulation, recording or not (GUIDE §9).
        tel = env.telemetry
        led = env.decisions
        self._probe = (_CpuProbe(env, node_id, tel, led)
                       if tel is not None or led is not None else None)
        self._overhead = overhead
        self.stats = CpuStats()
        self._high = deque()
        self._low = deque()
        self._paused = {}            # tag -> deque of parked LOW requests
        self._idle = False           # waiting for an arrival to wake it
        self._cur = None             # request paying context-switch cost
        self._running = None         # request currently holding the CPU
        self._slice_interruptible = False
        self._interrupt_requested = False
        self._slice_start = 0.0
        self._slice_len = 0.0
        # The agenda heap and its sequence counter, never rebound for
        # the life of an environment: the arms draw their keys from the
        # counter and push onto the heap when the held slot is taken.
        self._agenda = env._queue
        self._seq = env._seq
        # The continuations the arms push, each bound once.
        self._wakeup = self._dispatch_next
        self._switch_end = self._cb_overhead
        self._high_end = self._cb_high_end
        self._low_end = self._cb_low_end
        self._interrupt_cb = self._cb_interrupt
        #: Key of the armed slice's agenda entry, ``None`` once a
        #: preemption abandoned it.
        self._armed = None
        env.kick(self._dispatch_next)

    # -- public API -----------------------------------------------------
    def execute(self, work_seconds, priority=LOW, quantum=None, tag=None,
                proc=None):
        """Submit a computation burst; returns its completion event.

        Parameters
        ----------
        work_seconds:
            CPU time the burst needs (seconds).
        priority:
            :data:`HIGH` (run to completion, preempts low) or :data:`LOW`
            (round-robin time-shared).
        quantum:
            Timeslice for this request at low priority; ``None`` uses the
            hardware default from the config.  Ignored at high priority.
        tag:
            Opaque owner handle recorded on the request for accounting.
        proc:
            Process index within the owning job (telemetry attribution
            only; never affects scheduling).
        """
        # Written so that NaN fails every check: the arms push their
        # entries without the validation ``env.timeout`` performs.
        if not 0 <= work_seconds < inf:
            raise ValueError(f"work_seconds must be finite and >= 0, "
                             f"got {work_seconds}")
        if priority not in (HIGH, LOW):
            raise ValueError(f"priority must be HIGH or LOW, got {priority}")
        if quantum is None:
            quantum = self.config.quantum
        if not 0 < quantum < inf:
            raise ValueError(f"quantum must be finite and positive, "
                             f"got {quantum}")
        req = WorkRequest(self, work_seconds, priority, quantum, tag, proc)
        if work_seconds <= _EPS:
            # Zero-length bursts complete immediately without dispatching.
            req.started_at = self.env._now
            req.succeed()
            return req
        if priority == HIGH:
            self._high.append(req)
        elif tag in self._paused:
            self._paused[tag].append(req)
            return req
        else:
            self._low.append(req)
        self._notify_arrival(priority)
        return req

    # -- gang-scheduling support --------------------------------------------
    def pause_tag(self, tag):
        """Suspend all low-priority work carrying ``tag``.

        Queued requests are parked; a running tagged slice is preempted
        (its elapsed time is credited) and parked too.  Used by gang
        scheduling to deschedule a whole job's processes at once.
        High-priority (communication) work is never paused.
        """
        parked = self._paused.setdefault(tag, deque())
        kept = deque()
        while self._low:
            req = self._low.popleft()
            (parked if req.tag == tag else kept).append(req)
        self._low = kept
        if (self._slice_interruptible and not self._interrupt_requested
                and self._running.tag == tag):
            self._interrupt_requested = True
            self.env.kick(self._interrupt_cb)

    def resume_tag(self, tag):
        """Release work parked under ``tag`` back into the ready queue."""
        parked = self._paused.pop(tag, None)
        if not parked:
            return
        self._low.extend(parked)
        self._notify_arrival(LOW)

    @property
    def queue_length(self):
        """Requests waiting, paying a context switch or running (system
        backlog)."""
        backlog = len(self._high) + len(self._low)
        if self._running is not None or self._cur is not None:
            backlog += 1
        return backlog

    @property
    def running(self):
        """The request currently holding the CPU, if any."""
        return self._running

    # -- dispatch engine ----------------------------------------------------
    # Completion events are handed off (dispatched synchronously, skipping
    # the agenda) when the environment's ordering guards permit:
    # completing the slice is the machine's tail action, and the next
    # slice's entry is always strictly in the future, so the handoff is
    # order-equivalent to scheduling the completion and popping it next.
    # The continuations take the popped entry's key.

    def _notify_arrival(self, priority):
        if self._idle:
            self._idle = False
            env = self.env
            entry = (env._now + 0.0, next(self._seq), self._wakeup)
            if env._held is None:
                env._held = entry
            else:
                heappush(self._agenda, entry)
            return
        # A high arrival preempts a running low slice immediately; a low
        # arrival only matters if the current slice was extended past its
        # quantum under the single-runnable optimisation.  No slice is
        # interruptible during the context-switch overhead.
        interruptible = self._slice_interruptible
        if (interruptible and not self._interrupt_requested
                and (priority == HIGH or interruptible == "extended")):
            self._interrupt_requested = True
            self.env.kick(self._interrupt_cb)

    def _dispatch_next(self, _key=None):
        """Grant the CPU to the next ready request, or go idle.

        Also the boot and wakeup continuation.
        """
        if self._high:
            req = self._high.popleft()
        elif self._low:
            req = self._low.popleft()
        else:
            self._idle = True
            return
        self._cur = req
        if self._overhead > 0:
            env = self.env
            entry = (env._now + self._overhead, next(self._seq),
                     self._switch_end)
            if env._held is None:
                env._held = entry
            else:
                heappush(self._agenda, entry)
        else:
            self._cb_overhead()

    def _cb_overhead(self, _key=None):
        """Overhead-end continuation: charge the switch, start the slice."""
        req = self._cur
        self._cur = None
        env = self.env
        now = env._now
        stats = self.stats
        stats.overhead_time += self._overhead
        self._running = req
        first = req.started_at is None
        if first:
            req.started_at = now
        probe = self._probe
        slice_len = req.remaining
        if req.priority:  # LOW (HIGH is 0), the per-quantum path
            if self._high or self._low:
                # min(quantum, remaining), without the builtin call.
                quantum = req.quantum
                if not slice_len < quantum:
                    slice_len = quantum
                self._slice_interruptible = "quantum"
            else:
                # Single-runnable optimisation: run the whole remaining
                # burst; any arrival interrupts us and the elapsed time
                # is credited (see _notify_arrival).
                self._slice_interruptible = "extended"
            end = self._low_end
            if probe is not None:
                if probe.ledger is not None:
                    # The ledger's counter tier, kept on the probe: a
                    # call, let alone a ring record, per slice would
                    # blow its overhead ceiling on slice-dominated runs.
                    if self._slice_interruptible == "quantum":
                        probe.quantum_arms += 1
                    else:
                        probe.extended_arms += 1
                if probe.append is not None:
                    probe.grant(req, first)
        else:
            end = self._high_end
            # The ledger counts no high-priority decision, so only
            # telemetry (a probe with a recorder) sees a high slice.
            if first and probe is not None and probe.append is not None:
                probe.first_grant(req)
        req.slices += 1
        stats.dispatches += 1
        self._slice_start = now
        self._slice_len = slice_len
        key = self._armed = next(self._seq)
        if env._held is None:
            env._held = (now + slice_len, key, end)
        else:
            heappush(self._agenda, (now + slice_len, key, end))

    def _cb_high_end(self, _key):
        req = self._running
        burst = self._slice_len
        req.remaining = 0.0
        req.cpu_time += burst
        stats = self.stats
        stats.busy_time += burst
        stats.high_time += burst
        stats.completed += 1
        self._running = None
        probe = self._probe
        if probe is not None and probe.append is not None:
            probe.high_end(req, self._slice_start, burst)
        self._dispatch_next()
        self.env.handoff(req)

    def _cb_interrupt(self, _key):
        # The armed slice's agenda entry stays queued.  With ``_armed``
        # cleared, no key matches it, so it pops as a no-op.
        self._armed = None
        self._interrupt_requested = False
        self.stats.preemptions += 1
        self._cb_low_end(None, True)

    def _cb_low_end(self, key, preempted=False):
        """Slice-end continuation: credit the slice, requeue, dispatch.

        An entry whose ``key`` is not the armed one belongs to a slice
        a preemption already ended: a no-op.  The preemption path calls
        with ``None``, the key it cleared.
        """
        if key != self._armed:
            return
        env = self.env
        now = env._now
        req = self._running
        self._running = None
        self._slice_interruptible = False
        elapsed = now - self._slice_start if preempted else self._slice_len
        remaining = req.remaining = req.remaining - elapsed
        req.cpu_time += elapsed
        stats = self.stats
        stats.busy_time += elapsed
        stats.low_time += elapsed
        probe = self._probe
        if probe is not None:
            if probe.ledger is not None:
                if preempted:
                    probe.preempted_slices += 1
                elif remaining <= _EPS:
                    probe.yielded_slices += 1
                else:
                    probe.expired_slices += 1
            if probe.append is not None:
                probe.low_end(req, self._slice_start, elapsed, preempted)
        if remaining <= _EPS:
            req.remaining = 0.0
            stats.completed += 1
            self._dispatch_next()
            env.handoff(req)
            return
        req.ready_since = now
        req.ready_kind = "requeue"
        # Unfinished work whose tag was paused mid-slice parks instead
        # of re-queueing (gang scheduling descheduled its job).
        # Otherwise: back of the round-robin queue (the Transputer drops
        # the rest of a preempted process's quantum), or the front if the
        # config asks for resume-in-place semantics.
        paused = self._paused
        if paused and req.tag in paused:
            paused[req.tag].append(req)
            self._dispatch_next()
            return
        if preempted and not self.config.requeue_at_back:
            self._low.appendleft(req)
        else:
            self._low.append(req)
        # The next dispatch, inlined from _dispatch_next for the
        # per-quantum path: the low queue now holds at least ``req``.
        self._cur = self._high.popleft() if self._high else self._low.popleft()
        if self._overhead > 0:
            entry = (now + self._overhead, next(self._seq), self._switch_end)
            if env._held is None:
                env._held = entry
            else:
                heappush(self._agenda, entry)
        else:
            self._cb_overhead()


class _CpuProbe:
    """A CPU's recording state; the CPU holds ``None`` when nothing records.

    The track name and node id are built once here.  ``append`` is the
    telemetry recorder's append (``None`` with only the ledger on), and
    each instrument handle is bound on its first use: a histogram or
    counter that never records must not appear in the metrics export.
    The methods record telemetry only, and the CPU calls them only when
    ``append`` is set.  With the ledger on, the CPU counts its per-slice
    decisions in the five tally fields, which the ledger reads through
    :meth:`ledger_counts`.
    """

    __slots__ = ("env", "node", "track", "append", "metrics", "ledger",
                 "_latency", "_quantum_slice", "_preemptions",
                 "quantum_arms", "extended_arms", "preempted_slices",
                 "yielded_slices", "expired_slices")

    def __init__(self, env, node_id, tel, led):
        node = node_id if node_id is not None else -1
        self.env = env
        self.node = node
        self.track = f"node{node}.cpu"
        self.append = tel.recorder.append if tel is not None else None
        self.metrics = tel.metrics if tel is not None else None
        self.ledger = led
        self._latency = None
        self._quantum_slice = None
        self._preemptions = None
        self.quantum_arms = self.extended_arms = 0
        self.preempted_slices = self.yielded_slices = 0
        self.expired_slices = 0
        if led is not None:
            led.add_counter(self)

    def ledger_counts(self):
        """The per-slice decisions counted so far, keyed for the ledger."""
        return ((_ARM_QUANTUM, self.quantum_arms),
                (_ARM_EXTENDED, self.extended_arms),
                (_PREEMPTED, self.preempted_slices),
                (_BLOCK_YIELD, self.yielded_slices),
                (_QUANTUM_EXPIRY, self.expired_slices))

    def grant(self, req, first):
        """A low-priority slice start: its ready-queue wait and, on the
        request's first grant, its dispatch latency."""
        # The ready-queue interval that ended with this dispatch,
        # stamped at the instant the request (re-)entered the queue;
        # ``kind`` tells a first grant ("enqueue") from regaining the
        # CPU after losing it with work remaining ("requeue": quantum
        # expiry, preemption, or a gang park).
        wait = self.env._now - req.ready_since
        if wait > 0:
            self.append(req.ready_since, "cpu.wait", self.track,
                        _WAIT_KEYS, wait, self.node, req.tag, req.proc,
                        req.ready_kind)
        if first:
            self.first_grant(req)

    def first_grant(self, req):
        """A request's first dispatch: its latency."""
        latency = self._latency
        if latency is None:
            latency = self._latency = self.metrics.histogram(
                "cpu.dispatch_latency")
        latency.observe(self.env._now - req.submitted_at)

    def high_end(self, req, start, burst):
        """A completed high-priority slice, as a span on the CPU track."""
        self.append(start, "cpu.slice", self.track, _SLICE_KEYS,
                    burst, self.node, "high", req.tag, req.proc)

    def low_end(self, req, start, elapsed, preempted):
        """A low slice's end: its span and preemption."""
        append = self.append
        if elapsed > 0:
            append(start, "cpu.slice", self.track, _SLICE_KEYS,
                   elapsed, self.node, "low", req.tag, req.proc)
            quantum_slice = self._quantum_slice
            if quantum_slice is None:
                quantum_slice = self._quantum_slice = self.metrics.histogram(
                    "cpu.quantum_slice")
            quantum_slice.observe(elapsed)
        if preempted:
            preemptions = self._preemptions
            if preemptions is None:
                preemptions = self._preemptions = self.metrics.counter(
                    "cpu.preemptions")
            preemptions.inc()
            append(self.env._now, "cpu.preempt", self.track, _PREEMPT_KEYS,
                   self.node, req.tag)
