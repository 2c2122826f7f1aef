"""The simulation environment: clock, agenda, and event loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from sys import getrefcount

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

#: Process-global toggle for the Timeout/Initialize free-list pools.
#: Captured per-environment at construction, so the equivalence suite
#: can run the same model with pooling on and off and compare
#: trajectories byte for byte.
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
        #: Events completed via :meth:`handoff` (no agenda round-trip);
        #: heap pops are ``events_processed - handoffs``.
        self.handoffs = 0
        #: True while the callback currently being dispatched is the
        #: *last* (or only) callback of its event — the only position
        #: from which :meth:`handoff` may dispatch synchronously without
        #: reordering the event's remaining callbacks.  Maintained by
        #: :meth:`step` and :meth:`run`'s loop.
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
        argument (the loop inlined in :meth:`run` uses 2: loop local +
        probe).  That proves no model code kept a handle, so reuse
        cannot be observed.  Only exact :class:`Timeout` / :class:`Initialize`
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
        # Tail-flag discipline (here and in :meth:`run`'s loop): the flag
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

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the agenda is empty;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed, then
            return its value (re-raising its exception if it failed).

        The loop is :meth:`step` inlined, with every per-event attribute
        load hoisted into a local: the heap, ``heappop``, the free
        lists, the pooling flag and the class probes.  The
        events-processed counter is accumulated locally and flushed in
        the ``finally`` (exactly once per consumed event, even when a
        callback raises); nothing reads it mid-run.
        """
        if until is not None:
            if not isinstance(until, Event):
                at = float(until)
                if not at >= self._now:  # NaN fails this comparison too
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
            self.events_processed += n

    def run_all(self, max_events=None):
        """Run until the agenda is empty, optionally bounding event count.

        Returns the number of events processed during this call.  A
        ``max_events`` bound turns runaway models into a diagnosable
        :class:`SimulationError` instead of a hang.  The bound is exact:
        at most ``max_events`` events are processed before raising.
        """
        start = self.events_processed
        step = self.step
        while self._queue:
            if (max_events is not None
                    and self.events_processed - start >= max_events):
                raise SimulationError(f"exceeded {max_events} events")
            step()
        return self.events_processed - start

    def __repr__(self):
        return f"<Environment now={self._now} queued={len(self._queue)}>"
