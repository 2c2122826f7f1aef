"""The simulation environment: clock, agenda, and event loop."""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from itertools import count
from math import inf
from sys import getrefcount
from types import MethodType

from repro.sim.events import (
    NORMAL,
    PENDING,
    URGENT,
    URGENT_KEY,
    AllOf,
    Event,
    Process,
    Timeout,
)
from repro.sim.exceptions import EmptySchedule, SimulationError

#: Maximum nesting depth of direct handoffs (see
#: :meth:`Environment.handoff`).  Each handoff dispatches its waiters on
#: the Python call stack instead of through the agenda; long completion
#: chains (a CPU slice resuming a process that completes another slice,
#: …) therefore consume stack frames.  Past this depth handoff falls
#: back to ordinary scheduling, bounding stack growth without changing
#: behaviour.
_HANDOFF_LIMIT = 64


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
    agenda ordered by ``(time, priority, sequence)`` — stored as
    ``(time, key, item)`` heap entries, where the key is the sequence
    number, offset by :data:`~repro.sim.events.URGENT_KEY` for an
    URGENT entry.  An entry's item is an
    :class:`Event`, whose processing runs its callbacks (which
    typically resume waiting processes, which trigger further events,
    and so on), or a bound method, a *continuation entry*, which the
    loop calls once with the entry's key (see :meth:`kick`).  Either
    kind counts as one processed event.  One entry may wait in the
    held slot in front of the heap (``_held``, filled by the CPU
    model's arms); the agenda is the heap plus that slot, and
    :meth:`peek`, :meth:`step`, :meth:`run`, :meth:`run_all`,
    :meth:`handoff` and ``repr`` read both.

    Determinism: the monotone sequence number guarantees FIFO processing
    of same-time, same-priority entries, so repeated runs of the same
    model produce identical traces.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (default ``0.0``); it must be
        finite, or ``ValueError`` is raised.
    """

    def __init__(self, initial_time=0.0):
        # A non-finite clock never advances, and entries would pop in
        # sequence order whatever their delays.
        if not -inf < initial_time < inf:
            raise ValueError(
                f"initial_time must be finite, got {initial_time!r}")
        self._now = initial_time
        self._queue = []  # heap of (time, key, item)
        #: One entry held in front of the heap, or ``None``: a CPU's arm
        #: waits here while the slot is free, and the loop pops with
        #: ``heappushpop(queue, held)``, which returns it without
        #: touching the heap when it is due first.
        self._held = None
        self._seq = count()
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
        #: Free list of processed Timeouts, reused by :meth:`timeout`
        #: (see :meth:`_recycle`).
        self._free_timeouts = []

    # -- introspection ---------------------------------------------------
    @property
    def now(self):
        """The current simulated time."""
        return self._now

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        queue, held = self._queue, self._held
        at = queue[0][0] if queue else inf
        if held is not None and held[0] < at:
            at = held[0]
        return at

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
            if not 0.0 <= delay < inf:
                raise ValueError(f"invalid delay {delay}")
            event = free.pop()
            event.delay = delay
            event.callbacks = []
            event._value = value
            event._defused = False
            heappush(self._queue, (self._now + delay, next(self._seq), event))
            return event
        return Timeout(self, delay, value)

    def kick(self, callback):
        """Run the bound method ``callback`` once, urgently, now.

        Pushes the continuation entry ``(now + 0.0, seq, callback)``:
        the time and URGENT key ``schedule(event, URGENT)`` would give
        an event, with ``callback`` in the event's place; the loop calls
        it with the key.  Process start-up, the CPU's boot and
        interrupts and the comm walkers' first steps are kicks.  The
        loop tells a continuation from an event by its class, so
        anything but a bound method raises ``TypeError``.
        """
        if callback.__class__ is not MethodType:
            raise TypeError(f"kick needs a bound method, got {callback!r}")
        heappush(self._queue,
                 (self._now + 0.0, next(self._seq) + URGENT_KEY, callback))

    def process(self, generator, name=None):
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """An :class:`AllOf` that succeeds once all ``events`` have."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event, priority=NORMAL, delay=0.0):
        """Place a triggered ``event`` on the agenda after ``delay``.

        The public arming call, for cold paths: process failure and
        tests.  The hot triggers (``succeed``/``fail``, new and pooled
        ``Timeout``, :meth:`handoff`'s fallback) push the entry this
        builds themselves, without the call, and :meth:`kick` and the
        CPU's arms push the same time and key with a continuation in
        the event's place.  A NaN delay would poison the heap order, a
        negative one would move the clock backwards and an infinite one
        would leave it at ``inf`` for good, so each raises, as does a
        priority other than ``URGENT``/``NORMAL``.
        """
        if not 0.0 <= delay < inf:  # NaN fails this comparison too
            raise ValueError(f"invalid delay {delay}")
        if priority not in (URGENT, NORMAL):
            raise ValueError(f"invalid priority {priority!r}")
        key = next(self._seq)
        if priority == URGENT:
            key += URGENT_KEY
        heappush(self._queue, (self._now + delay, key, event))

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
        - the agenda (the heap's head and the held entry) must be empty
          or strictly in the future — a same-time entry was sequenced
          earlier and must run first;
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
        held = self._held
        callbacks = event.callbacks
        if (callbacks and self._tail_ok
                and self._handoff_depth < _HANDOFF_LIMIT
                and (not queue or queue[0][0] > self._now)
                and (held is None or held[0] > self._now)
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
        heappush(queue, (self._now, next(self._seq), event))
        return event

    def _recycle(self, event):
        """Return a just-processed event to its free list when safe.

        An event is recycled only when the step machinery holds the sole
        surviving references: from this frame the count is exactly 3 —
        the caller's local, this function's argument, and the probe
        argument (the loop inlined in :meth:`run` uses 2: loop local +
        probe).  That proves no model code kept a handle, so reuse
        cannot be observed.  Only exact :class:`Timeout` instances are
        pooled; they are always-ok events, so the unhandled-failure
        check is skipped for them.
        """
        if event.__class__ is Timeout:
            if getrefcount(event) == 3:
                event._value = None
                self._free_timeouts.append(event)
        elif not event._ok and not event._defused:
            # An unhandled failure: surface it so bugs don't pass silently.
            raise event._value

    def step(self):
        """Process the next agenda entry: an event or a continuation.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        held = self._held
        if held is not None:
            self._held = None
            self._now, key, event = heappushpop(self._queue, held)
        else:
            try:
                self._now, key, event = heappop(self._queue)
            except IndexError:
                raise EmptySchedule("no scheduled events") from None

        # Count the event *before* dispatch: the pop already happened,
        # so a raising callback (or the unhandled-failure re-raise
        # below) must not leave the counter understating the number of
        # events the loop consumed.
        self.events_processed += 1
        if event.__class__ is MethodType:
            event(key)  # a continuation entry (see :meth:`kick`)
            return
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
            a finite number, not before :attr:`now` — run until the
            clock reaches that time;
            an :class:`Event` — run until that event is processed, then
            return its value (re-raising its exception if it failed).

        The loop is :meth:`step` inlined, with every per-event attribute
        load hoisted into a local: the heap, ``heappop``, the free list
        and the class probes.  A held entry pops with
        ``heappushpop(heap, held)``: the held entry itself, without
        touching the heap, when it is due first, and otherwise the
        heap's head, with the held entry sifted into its place.  The item's class is loaded once: a bound
        method is a continuation entry, called with its key and done;
        anything else is an event.  The events-processed counter is
        accumulated locally and flushed in the ``finally`` (exactly once
        per consumed entry, even when a callback raises); nothing reads
        it mid-run.
        """
        if until is not None:
            if not isinstance(until, Event):
                at = float(until)
                if not self._now <= at < inf:  # NaN fails this one too
                    raise ValueError(
                        f"until ({at}) must be finite and must not be "
                        f"before now ({self._now})"
                    )
                until = Event(self)
                until._ok = True
                until._value = None
                # URGENT so the deadline fires before same-time NORMAL
                # model events.  The sequence number comes from
                # the same monotone counter as every other agenda entry:
                # a hard-coded sentinel (e.g. -1) could tie with another
                # same-time deadline and fall through to comparing the
                # Event objects themselves, breaking the class's
                # determinism guarantee.
                heappush(self._queue,
                         (at, next(self._seq) + URGENT_KEY, until))
            elif until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_STOP_CB)

        queue = self._queue
        pop = heappop
        pushpop = heappushpop
        refs = getrefcount
        free_timeouts = self._free_timeouts
        timeout_cls = Timeout
        method_cls = MethodType
        n = 0
        try:
            while True:
                held = self._held
                if held is not None:
                    self._held = None
                    self._now, key, event = pushpop(queue, held)
                else:
                    try:
                        self._now, key, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule("no scheduled events") from None
                n += 1
                cls = event.__class__
                if cls is method_cls:
                    event(key)
                    continue
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
                if cls is timeout_cls:
                    if refs(event) == 2:
                        event._value = None
                        free_timeouts.append(event)
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
        while self._queue or self._held is not None:
            if (max_events is not None
                    and self.events_processed - start >= max_events):
                raise SimulationError(f"exceeded {max_events} events")
            step()
        return self.events_processed - start

    def __repr__(self):
        queued = len(self._queue) + (self._held is not None)
        return f"<Environment now={self._now} queued={queued}>"
