"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with an attached list of
callbacks.  Triggering an event (``succeed`` / ``fail``) schedules it on
the environment's agenda; when the environment processes it, every
callback runs exactly once and the callback list is retired.

A :class:`Process` wraps a Python generator.  The generator *yields*
events; the process resumes (the generator is advanced) when the yielded
event is processed.  A process is itself an event that triggers when its
generator returns, so processes can wait for each other, and
:class:`AllOf` joins several events into one.
"""

from __future__ import annotations

from heapq import heappush
from math import inf

from repro.sim.exceptions import SimulationError

#: Scheduling priority for entries that must run before same-time
#: normal ones: kicks (process start-up, the CPU's interrupts) and
#: :meth:`~repro.sim.environment.Environment.run`'s numeric deadline.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Agenda entries are ``(time, key, item)`` tuples, on the heap or in
#: the environment's one held slot.  The item is an :class:`Event`, or
#: a bound method (a *continuation entry*, see
#: :meth:`Environment.kick`) that the loop calls once with the key.  A
#: NORMAL entry's key is its bare sequence number; an URGENT entry's is
#: ``seq + URGENT_KEY``, negative for any feasible run (the sequence
#: stays far below 2**62).  Integer comparison of the keys is therefore
#: the lexicographic comparison of a ``(priority, seq)`` tuple tail: the
#: same total order, with nothing to pack on the commonest, NORMAL,
#: push.  Keys are unique, so a comparison never reaches the item.  A
#: key's sequence number is ``key - URGENT_KEY if key < 0 else key``.
URGENT_KEY = -(1 << 62)

#: Sentinel for "event has not been triggered yet".
PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.environment.Environment` the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with the event when it is processed.  ``None``
        #: once the event has been processed.
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self):
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self):
        """The event's value (or failure exception). Only once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    @property
    def defused(self):
        """True if a failure has been marked as handled."""
        return self._defused

    def defuse(self):
        """Mark a failed event's exception as handled.

        Failed events that are never waited on would otherwise crash the
        simulation when processed.
        """
        self._defused = True

    # -- triggering ----------------------------------------------------
    # The triggers below push their agenda entry themselves instead of
    # calling ``Environment.schedule``: the entry is the one ``schedule``
    # builds (``+ 0.0`` is its default delay), without a call per event.
    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now + 0.0, next(env._seq), self))
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now + 0.0, next(env._seq), self))
        return self

    def trigger(self, event):
        """Trigger this event with the state of another (for chaining)."""
        if event._value is PENDING:
            # Without this check an untriggered source (``_ok is None``)
            # falls through to ``fail(PENDING)`` and surfaces as a
            # baffling ``TypeError: <object> is not an exception``.
            raise SimulationError(
                f"cannot trigger {self!r} from {event!r}, which has not "
                f"itself been triggered"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self):
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        # NaN fails the comparison too: it would poison the agenda heap
        # (it compares false against everything, so sifts stop ordering).
        # An infinite delay would leave the clock at ``inf`` for good,
        # after which entries pop in push order whatever their delays.
        if not 0.0 <= delay < inf:
            raise ValueError(f"invalid delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        heappush(env._queue, (env._now + delay, next(env._seq), self))

    def __repr__(self):
        return f"<Timeout({self.delay}) at {id(self):#x}>"


class _Started:
    """What every process starts from: ok, with the value ``None``."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A generator-driven simulation process.

    The process is an event that triggers when the generator returns
    (successfully, with the generator's return value) or raises
    (failed, with the exception).
    """

    __slots__ = ("_generator", "_send", "_resume_cb", "name")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Cache the two bound methods the resume hot path needs:
        # ``generator.send`` is called once per resumption and
        # ``self._resume`` is parked on every event the process waits
        # for — creating them fresh each time costs an allocation per
        # event in the kernel's hottest loop.
        self._send = generator.send
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        env.kick(self._start)

    # -- internal ------------------------------------------------------
    def _start(self, _key):
        """The kicked continuation that first advances the generator."""
        self._resume(_STARTED)

    def _resume(self, event):
        """Advance the generator with the outcome of ``event``."""
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                # A bound method of this process: dropped at the end so a
                # finished process is freed by reference counting.
                self._resume_cb = None
                # Tail position by construction: resuming the waiters is
                # the last thing this resumption does, so the process's
                # completion may be handed off (dispatched synchronously)
                # when the environment's ordering guards allow it.
                self.env.handoff(self, exc.value)
                return
            except BaseException as exc:
                self._resume_cb = None
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                return

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._generator.close()
                self._resume_cb = None
                self._ok = False
                self._value = err
                self.env.schedule(self)
                return

            if callbacks is not None:
                # Event pending or triggered-but-unprocessed: park.
                callbacks.append(self._resume_cb)
                return
            # Already processed: consume its outcome immediately.
            event = next_event

    def __repr__(self):
        return f"<Process({self.name}) at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of the events an :class:`AllOf` has collected."""

    def __init__(self):
        self.events = []

    def __getitem__(self, event):
        if event not in self.events:
            raise KeyError(str(event))
        return event._value

    def __contains__(self, event):
        return event in self.events

    def __eq__(self, other):
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return self.todict() == other

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self):
        return {e: e._value for e in self.events}

    def __repr__(self):
        return f"<ConditionValue {self.todict()!r}>"


class AllOf(Event):
    """Event that succeeds once all of ``events`` have succeeded.

    Its value is a :class:`ConditionValue` of the events.  A failed
    sub-event fails it at once (and is defused).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = events = list(events)
        self._count = 0
        for event in events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not events:
            self.succeed(ConditionValue())
            return
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        value = ConditionValue()
        for event in self._events:
            if event.callbacks is None and event._ok:
                value.events.append(event)
        return value

    def _check(self, event):
        if self._value is not PENDING:  # already triggered
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            # Tail position: completing the join is the last thing this
            # check does, so the completion may be handed straight to
            # the join's waiters when ordering permits.  (The direct
            # calls from ``__init__`` reach here before any waiter could
            # have registered, so they always fall back to ordinary
            # scheduling — handoff requires callbacks.)
            self.env.handoff(self, self._collect())
