"""The simulation environment: clock, agenda, and event loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from sys import getrefcount
from time import perf_counter_ns

from repro.sim.events import (
    NORMAL,
    NORMAL_KEY,
    PENDING,
    PRIORITY_SHIFT,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Process,
    Timeout,
)
from repro.sim.exceptions import EmptySchedule, SimulationError

#: Process-global kernel self-profiler (see
#: :mod:`repro.obs.kernelprof`).  Environments capture it at
#: construction time, so installing a profiler before building a system
#: profiles every environment the run creates — without threading a
#: parameter through every layer.  ``None`` means profiling is off and
#: the event loop takes its unobserved fast path.
_KERNEL_PROFILER = None

#: Process-global toggle for the Timeout/Initialize free-list pools.
#: Captured per-environment at construction (like the profiler slot) so
#: the equivalence suite can run the same model with pooling on and off
#: and compare trajectories byte for byte.
_POOLING = True

#: Decodes the sequence number from a packed agenda key (see
#: :data:`~repro.sim.events.PRIORITY_SHIFT`).
_SEQ_MASK = (1 << PRIORITY_SHIFT) - 1

#: Maximum nesting depth of direct handoffs (see
#: :meth:`Environment.handoff`).  Each handoff dispatches its waiters on
#: the Python call stack instead of through the agenda; long completion
#: chains (a CPU slice resuming a process that completes another slice,
#: …) therefore consume stack frames.  Past this depth handoff falls
#: back to ordinary scheduling, bounding stack growth without changing
#: behaviour.
_HANDOFF_LIMIT = 64


def set_kernel_profiler(profiler):
    """Install (or, with ``None``, clear) the process-global profiler.

    Returns the previously installed profiler so callers can restore
    it — :func:`repro.obs.kernelprof.kernel_profile` uses this to nest
    and to guarantee deactivation on exit.  Only environments created
    *after* installation pick the profiler up; attach it to an existing
    environment with :meth:`KernelProfiler.attach`.
    """
    global _KERNEL_PROFILER
    previous = _KERNEL_PROFILER
    _KERNEL_PROFILER = profiler
    return previous


def active_kernel_profiler():
    """The currently installed process-global kernel profiler, if any."""
    return _KERNEL_PROFILER


def set_event_pooling(enabled):
    """Enable/disable event pooling for environments created afterwards.

    Returns the previous setting so callers can restore it.  Pooling
    recycles :class:`Timeout` and :class:`Initialize` instances through
    per-environment free lists; an event is recycled only when, at
    processing time, the event loop holds the sole remaining reference
    (``sys.getrefcount == 2`` — the loop local plus the probe argument),
    so pooled reuse is invisible to any code that kept a handle.
    """
    global _POOLING
    previous = _POOLING
    _POOLING = bool(enabled)
    return previous


class _StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`."""

    def __init__(self, event):
        super().__init__(event)
        self.event = event

    @classmethod
    def callback(cls, event):
        raise cls(event)


#: The one stop-callback object :meth:`Environment.run` parks on its
#: ``until`` event.  A single shared bound method (rather than a fresh
#: one per ``run`` call) lets :meth:`Environment.handoff` refuse to
#: dispatch a stop synchronously with an identity-fast membership test.
_STOP_CB = _StopSimulation.callback


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment maintains the simulated clock (:attr:`now`) and an
    agenda of triggered events ordered by ``(time, priority, sequence)``
    — stored as ``(time, packed_key, event)`` heap entries, where the
    packed key folds priority and sequence into one integer (see
    :data:`~repro.sim.events.PRIORITY_SHIFT`).  Processing an event runs
    its callbacks, which typically resume waiting processes, which
    trigger further events, and so on.

    Determinism: the monotone sequence number guarantees FIFO processing
    of same-time, same-priority events, so repeated runs of the same
    model produce identical traces.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (default ``0.0``).
    """

    def __init__(self, initial_time=0.0):
        self._now = initial_time
        self._queue = []  # heap of (time, (priority << 56) | seq, event)
        self._seq = count()
        self._active_process = None
        #: Number of events processed so far (useful for budget guards
        #: and performance reporting).  Includes direct handoffs — a
        #: handed-off event's callbacks ran, so it was processed; see
        #: :attr:`handoffs` for how many skipped the agenda.
        self.events_processed = 0
        #: Events completed via :meth:`handoff` (no agenda round-trip).
        #: The kernel profiler derives exact heap pops as
        #: ``events_processed - handoffs``.
        self.handoffs = 0
        #: True while the callback currently being dispatched is the
        #: *last* (or only) callback of its event — the only position
        #: from which :meth:`handoff` may dispatch synchronously without
        #: reordering the event's remaining callbacks.  Maintained by
        #: every dispatch loop.
        self._tail_ok = True
        self._handoff_depth = 0
        #: Optional :class:`repro.obs.Telemetry` sink for this run.
        #: ``None`` means telemetry is off; instrumentation sites guard
        #: on it, so recording costs nothing when disabled.
        self.telemetry = None
        #: Optional :class:`repro.obs.decisions.DecisionLedger` recording
        #: scheduling choices.  ``None`` means the ledger is off; every
        #: recording site guards on it (hot components snapshot it at
        #: construction), so decisions cost nothing when disabled.
        self.decisions = None
        #: Whether this environment recycles Timeout/Initialize events
        #: (captured from the process-global toggle at construction).
        self._pooling = _POOLING
        self._free_timeouts = []
        self._free_inits = []
        #: Optional :class:`repro.obs.kernelprof.KernelProfiler`
        #: measuring the *host* cost of this environment's event loop.
        #: Captured from the process-global slot at construction; the
        #: loop guards on it, so the unprofiled path pays one attribute
        #: load per step.
        self.kernel_profiler = kp = _KERNEL_PROFILER
        if kp is not None:
            kp._register(self)

    # -- introspection ---------------------------------------------------
    @property
    def now(self):
        """The current simulated time."""
        return self._now

    @property
    def active_process(self):
        """The process currently being advanced, if any."""
        return self._active_process

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event factories ---------------------------------------------------
    def event(self):
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` that fires after ``delay``.

        Timeouts dominate most models' event mix, so this is the hottest
        allocation site in the kernel: when the free list has a recycled
        instance, reinitialise it inline (same validation and scheduling
        as ``Timeout.__init__``) instead of allocating.
        """
        free = self._free_timeouts
        if free:
            if delay < 0 or delay != delay:
                raise ValueError(f"invalid delay {delay}")
            event = free.pop()
            event.delay = delay
            event.callbacks = []
            event._value = value
            event._defused = False
            heappush(self._queue,
                     (self._now + delay, NORMAL_KEY | next(self._seq),
                      event))
            return event
        return Timeout(self, delay, value)

    def kick(self, callback):
        """Schedule ``callback`` to run once, urgently, at the current time.

        The pooled factory behind process initialisation and
        callback-driven state machines (see
        :class:`~repro.comm.network.Network`).  Returns the
        :class:`Initialize` event carrying the callback.
        """
        free = self._free_inits
        if free:
            event = free.pop()
            event.callbacks = [callback]
            heappush(self._queue,
                     (self._now, next(self._seq), event))  # URGENT: key=seq
            return event
        return Initialize(self, callback)

    def process(self, generator, name=None):
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Condition that succeeds once all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Condition that succeeds once any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event, priority=NORMAL, delay=0.0):
        """Place a triggered ``event`` on the agenda after ``delay``.

        The public arming call, for cold paths: process failure,
        interrupts and tests.  The hot triggers (``succeed``/``fail``,
        new and pooled ``Timeout``/``Initialize``, :meth:`handoff`'s
        fallback and the CPU's slice timer) push the entry this builds
        themselves, without the call.  A NaN delay would poison the heap
        order and a negative one would move the clock backwards, so both
        raise, as does a priority other than ``URGENT``/``NORMAL``.

        Deliberately unhooked: the kernel profiler derives push counts
        from the heap identity (every push is eventually popped or
        still queued) and samples agenda depth at timed steps.
        """
        if not delay >= 0:  # NaN fails this comparison too
            raise ValueError(f"invalid delay {delay}")
        if priority not in (URGENT, NORMAL):
            raise ValueError(f"invalid priority {priority!r}")
        heappush(self._queue,
                 (self._now + delay,
                  (priority << PRIORITY_SHIFT) | next(self._seq), event))

    def handoff(self, event, value=None):
        """Succeed ``event``; run its callbacks now if ordering permits.

        The direct-handoff fast path: when a completion is the last
        thing the currently dispatched callback does (*tail position*)
        and nothing else on the agenda is due at the current time,
        scheduling the event and popping it as the very next step is
        observably identical to dispatching its callbacks right here —
        same callback order, same clock — but costs a heap push, a heap
        pop and a loop iteration.  This method takes the shortcut when
        every guard holds and falls back to ordinary scheduling
        otherwise, so callers never depend on it for correctness.

        Guards (all conservative):

        - the caller must be in tail position, i.e. the loop's
          :attr:`_tail_ok` flag is set — a handoff from a non-final
          callback of a multi-callback event would run the waiters
          before the event's remaining callbacks;
        - the agenda must be empty or its head strictly in the future —
          a same-time entry was sequenced earlier and must run first;
        - the nesting depth must be under ``_HANDOFF_LIMIT`` (handoffs
          consume Python stack);
        - none of the callbacks may be :meth:`run`'s stop callback —
          raising ``_StopSimulation`` mid-model-code would skip the
          caller's remaining work;
        - the event must have callbacks at all (a fire-and-forget event
          must still be *processed* later for ``triggered``/``processed``
          semantics, so it takes the agenda).

        A handed-off event counts in :attr:`events_processed` (its
        callbacks ran) and in :attr:`handoffs` (it skipped the heap), so
        throughput metrics and agenda accounting both stay exact.
        """
        if event._value is not PENDING:
            raise SimulationError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        queue = self._queue
        callbacks = event.callbacks
        if (callbacks and self._tail_ok
                and self._handoff_depth < _HANDOFF_LIMIT
                and (not queue or queue[0][0] > self._now)
                and _STOP_CB not in callbacks):
            event.callbacks = None
            self.events_processed += 1
            self.handoffs += 1
            self._handoff_depth += 1
            try:
                n = len(callbacks)
                if n == 1:
                    callbacks[0](event)
                else:
                    self._tail_ok = False
                    n -= 1
                    for callback in callbacks[:n]:
                        callback(event)
                    self._tail_ok = True
                    callbacks[n](event)
            finally:
                self._handoff_depth -= 1
            return event
        heappush(queue,
                 (self._now, NORMAL_KEY | next(self._seq), event))
        return event

    def _recycle(self, event):
        """Return a just-processed event to its free list when safe.

        An event is recycled only when the step machinery holds the sole
        surviving references: from this frame the count is exactly 3 —
        the caller's local, this function's argument, and the probe
        argument (the inlined run loops use 2: loop local + probe).
        That proves no model code kept a handle, so reuse cannot be
        observed.  Only exact :class:`Timeout` / :class:`Initialize`
        instances are pooled; both are always-ok events, so the
        unhandled-failure check is skipped for them.
        """
        cls = event.__class__
        if cls is Timeout:
            if self._pooling and getrefcount(event) == 3:
                event._value = None
                self._free_timeouts.append(event)
        elif cls is Initialize:
            if self._pooling and getrefcount(event) == 3:
                self._free_inits.append(event)
        elif not event._ok and not event._defused:
            # An unhandled failure: surface it so bugs don't pass silently.
            raise event._value

    def step(self):
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        if self.kernel_profiler is not None:
            return self._step_profiled()
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None

        # Count the event *before* dispatch: the pop already happened,
        # so a raising callback (or the unhandled-failure re-raise
        # below) must not leave the counter understating the number of
        # events the loop consumed.
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        # Tail-flag discipline (here and in every loop below): the flag
        # is True while the callback being dispatched is the last of its
        # event, which is what licenses :meth:`handoff`'s shortcut.  The
        # single-callback case — the overwhelming majority — leaves the
        # flag untouched (it is True between events).
        n = len(callbacks)
        if n == 1:
            callbacks[0](event)
        elif n:
            self._tail_ok = False
            n -= 1
            for callback in callbacks[:n]:
                callback(event)
            self._tail_ok = True
            callbacks[n](event)
        self._recycle(event)

    def _step_profiled(self):
        """:meth:`step` with the kernel self-profiler's measurements.

        Identical event semantics to the unprofiled path — the profiler
        only reads host clocks and updates its own tallies, so the
        simulated trajectory is byte-identical either way.

        The common case pays only a countdown decrement: all per-type
        attribution is *sampled*, because even one dict operation per
        event costs a measurable fraction of the cheapest whole events.
        When the countdown expires, the event lands in one of two
        alternating sample streams — a step-timed stream (pop + dispatch
        clocked, attributed to the event's type; agenda depth observed)
        and a callback-timed stream (each callback clocked individually
        for callsite attribution) — kept separate so clock reads never
        pollute each other.  Gaps between samples are drawn from a
        deterministic PRNG so periodic event patterns (ubiquitous in a
        DES) cannot alias with a fixed sampling grid.  Exact totals come
        from elsewhere: events from ``events_processed`` deltas, pushes
        from heap accounting, loop time from :meth:`run`'s clocks.
        """
        kp = self.kernel_profiler
        k = kp._countdown - 1
        if k <= 0:
            return self._step_sampled(kp)
        kp._countdown = k
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        n = len(callbacks)
        if n == 1:
            callbacks[0](event)
        elif n:
            self._tail_ok = False
            n -= 1
            for callback in callbacks[:n]:
                callback(event)
            self._tail_ok = True
            callbacks[n](event)
        self._recycle(event)

    def _run_profiled(self):
        """The :meth:`run` event loop with the profiler's fast path inlined.

        Semantically one ``while True: self._step_profiled()`` loop, but
        with the common (countdown-only) case written inline and the
        countdown held in a local.  That removes a per-event method call
        and the profiler attribute loads — the difference between the
        <5 % overhead budget holding and not, since the cheapest events
        run only a few hundred nanoseconds.  The sampled branch stays a
        method call: its cost is amortised over the sampling gap.
        """
        kp = self.kernel_profiler
        queue = self._queue
        pop = heappop
        refs = getrefcount
        pooling = self._pooling
        free_timeouts = self._free_timeouts
        free_inits = self._free_inits
        timeout_cls = Timeout
        init_cls = Initialize
        k = kp._countdown
        try:
            while True:
                k -= 1
                if k <= 0:
                    try:
                        self._step_sampled(kp)
                    finally:
                        k = kp._countdown  # the freshly drawn gap
                    continue
                try:
                    self._now, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events") from None
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                n = len(callbacks)
                if n == 1:
                    callbacks[0](event)
                elif n:
                    self._tail_ok = False
                    n -= 1
                    for callback in callbacks[:n]:
                        callback(event)
                    self._tail_ok = True
                    callbacks[n](event)
                cls = event.__class__
                if cls is timeout_cls:
                    if pooling and refs(event) == 2:
                        event._value = None
                        free_timeouts.append(event)
                elif cls is init_cls:
                    if pooling and refs(event) == 2:
                        free_inits.append(event)
                elif not event._ok and not event._defused:
                    raise event._value
        finally:
            kp._countdown = k

    def _step_sampled(self, kp):
        """One sampled step: draw the next gap, alternate the streams."""
        # Deterministic 31-bit LCG (glibc constants — small ints keep
        # the arithmetic cheap): randomised gaps mean a model whose
        # event stream repeats with period p can never line up with the
        # sampling so that one event type soaks up every sample.  Mean
        # gap == sample_every / 2 per draw, and the two streams
        # alternate, so each stream samples roughly one event in
        # sample_every.
        rng = (kp._rng * 1103515245 + 12345) & 0x7FFFFFFF
        kp._rng = rng
        kp._countdown = 1 + (rng >> 16) % kp._gap_limit
        if kp._stream == 0:
            kp._stream = 1
            return self._step_timed(kp)
        kp._stream = 0
        return self._step_callbacks_timed(kp)

    def _step_timed(self, kp):
        """Sampled step: time pop + dispatch, charge the event's type.

        Sampled steps skip the free-list recycle on purpose: they are
        one step in thousands, so skipping keeps them identical to the
        pre-pooling code path and the timing attribution clean.
        """
        depth = len(self._queue)  # pre-pop agenda depth
        if not depth:
            raise EmptySchedule("no scheduled events")
        if depth > kp.max_depth:
            kp.max_depth = depth
        kp._depth_hist.observe(depth)
        t0 = perf_counter_ns()
        self._now, _, event = heappop(self._queue)
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        kp._sampled += 1
        rec = kp._types.get(event.__class__)
        if rec is None:
            rec = kp._types[event.__class__] = [0, 0, 0]
        rec[0] += 1
        rec[1] += len(callbacks)
        try:
            n = len(callbacks)
            if n == 1:
                callbacks[0](event)
            elif n:
                self._tail_ok = False
                n -= 1
                for callback in callbacks[:n]:
                    callback(event)
                self._tail_ok = True
                callbacks[n](event)
        finally:
            # finally: a raising callback still gets its time charged.
            t1 = perf_counter_ns()
            rec[2] += t1 - t0
            if kp.timeline_every and kp._sampled >= kp._next_mark:
                kp._mark(t1)
        if not event._ok and not event._defused:
            raise event._value

    def _step_callbacks_timed(self, kp):
        """Sampled step: time each callback, charge its callsite."""
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        kp._cb_sampled += 1
        rec = kp._types.get(event.__class__)
        if rec is None:
            rec = kp._types[event.__class__] = [0, 0, 0]
        rec[0] += 1
        rec[1] += len(callbacks)
        last = len(callbacks) - 1
        if last > 0:
            self._tail_ok = False
        for i, callback in enumerate(callbacks):
            if i == last:
                self._tail_ok = True
            c0 = perf_counter_ns()
            callback(event)
            kp.record_callback(callback, perf_counter_ns() - c0)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the agenda is empty;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed, then
            return its value (re-raising its exception if it failed).
        """
        if until is not None:
            if not isinstance(until, Event):
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                until = Event(self)
                until._ok = True
                until._value = None
                # URGENT so the deadline fires before same-time NORMAL
                # model events (URGENT == 0, so the packed key is the
                # bare sequence number).  The sequence number comes from
                # the same monotone counter as every other agenda entry:
                # a hard-coded sentinel (e.g. -1) could tie with another
                # same-time deadline and fall through to comparing the
                # Event objects themselves, breaking the class's
                # determinism guarantee.
                heappush(self._queue, (at, next(self._seq), until))
            elif until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_STOP_CB)

        # When profiling, the whole event loop is timed here — two clock
        # reads per run() call instead of two per event — which is what
        # lets the per-event hooks stay cheap enough for the <5%
        # overhead budget (per-type timings are sampled and extrapolated
        # against this exactly measured total).
        kp = self.kernel_profiler
        t0 = perf_counter_ns() if kp is not None else 0
        try:
            if kp is None:
                self._run_fast()
            else:
                self._run_profiled()
        except _StopSimulation as stop:
            ev = stop.event
            if ev._ok:
                return ev._value
            raise ev._value from None
        except EmptySchedule:
            if until is not None and until.callbacks is not None:
                raise SimulationError(
                    "simulation ran out of events before `until` fired"
                ) from None
            return None
        finally:
            if kp is not None:
                kp.kernel_ns += perf_counter_ns() - t0

    def _run_fast(self):
        """The unprofiled :meth:`run` event loop, fully inlined.

        Semantically ``while True: self.step()``, with every per-event
        attribute load hoisted into a local: the heap, ``heappop``,
        the free lists, the pooling flag and the class probes.  The
        events-processed counter is accumulated locally and flushed in
        the ``finally`` (exactly once per consumed event, even when a
        callback raises); nothing reads it mid-loop when the profiler
        is off — the profiler is its only consumer.
        """
        queue = self._queue
        pop = heappop
        refs = getrefcount
        pooling = self._pooling
        free_timeouts = self._free_timeouts
        free_inits = self._free_inits
        timeout_cls = Timeout
        init_cls = Initialize
        n = 0
        try:
            while True:
                try:
                    self._now, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events") from None
                n += 1
                callbacks, event.callbacks = event.callbacks, None
                ncb = len(callbacks)
                if ncb == 1:
                    callbacks[0](event)
                elif ncb:
                    self._tail_ok = False
                    ncb -= 1
                    for callback in callbacks[:ncb]:
                        callback(event)
                    self._tail_ok = True
                    callbacks[ncb](event)
                cls = event.__class__
                if cls is timeout_cls:
                    if pooling and refs(event) == 2:
                        event._value = None
                        free_timeouts.append(event)
                elif cls is init_cls:
                    if pooling and refs(event) == 2:
                        free_inits.append(event)
                elif not event._ok and not event._defused:
                    raise event._value
        finally:
            self.events_processed += n

    def run_all(self, max_events=None):
        """Run until the agenda is empty, optionally bounding event count.

        Returns the number of events processed during this call.  A
        ``max_events`` bound turns runaway models into a diagnosable
        :class:`SimulationError` instead of a hang.  The bound is exact:
        at most ``max_events`` events are processed before raising.
        """
        start = self.events_processed
        kp = self.kernel_profiler
        step = self.step if kp is None else self._step_profiled
        t0 = perf_counter_ns() if kp is not None else 0
        try:
            while self._queue:
                if (max_events is not None
                        and self.events_processed - start >= max_events):
                    raise SimulationError(f"exceeded {max_events} events")
                step()
        finally:
            if kp is not None:
                kp.kernel_ns += perf_counter_ns() - t0
        return self.events_processed - start

    def __repr__(self):
        return f"<Environment now={self._now} queued={len(self._queue)}>"
