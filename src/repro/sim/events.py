"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with an attached list of
callbacks.  Triggering an event (``succeed`` / ``fail``) schedules it on
the environment's agenda; when the environment processes it, every
callback runs exactly once and the callback list is retired.

A :class:`Process` wraps a Python generator.  The generator *yields*
events; the process resumes (the generator is advanced) when the yielded
event is processed.  A process is itself an event that triggers when its
generator returns, so processes can wait for each other.
"""

from __future__ import annotations

from heapq import heappush

from repro.sim.exceptions import SimulationError, StopProcess

#: Scheduling priority for events that must run before same-time normal
#: events (used for interrupts and process initialisation).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Agenda entries are ``(time, key, item)`` heap tuples whose integer
#: key packs ``(priority << PRIORITY_SHIFT) | seq``.  The item is an
#: :class:`Event`, or a bound method (a *continuation entry*, see
#: :meth:`Environment.kick`) that the loop calls once with the key.
#: With priorities limited to URGENT (0) and NORMAL (1) and the
#: monotone sequence far below 2**56 for any feasible run, integer
#: comparison of the packed key is exactly the lexicographic comparison
#: of a ``(priority, seq)`` tuple tail — same total order, one less
#: tuple slot per entry and one comparison instead of up to two during
#: heap sifts.  Keys are unique, so a comparison never reaches the item.
PRIORITY_SHIFT = 56
#: A NORMAL entry's key is ``NORMAL_KEY | seq``; an URGENT entry's key
#: is the bare sequence number.  Hot triggers push their entry with
#: these directly; :meth:`Environment.schedule` builds the same entry.
NORMAL_KEY = NORMAL << PRIORITY_SHIFT

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
        heappush(env._queue, (env._now + 0.0, NORMAL_KEY | next(env._seq),
                              self))
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
        heappush(env._queue, (env._now + 0.0, NORMAL_KEY | next(env._seq),
                              self))
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

    # -- composition ---------------------------------------------------
    def __and__(self, other):
        return AllOf(self.env, [self, other])

    def __or__(self, other):
        return AnyOf(self.env, [self, other])

    def __repr__(self):
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        # ``delay != delay`` catches NaN, which would otherwise poison
        # the agenda heap: NaN compares false against everything, so
        # sift-up/sift-down stop comparing and ordering silently breaks.
        if delay < 0 or delay != delay:
            raise ValueError(f"invalid delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        heappush(env._queue, (env._now + delay, NORMAL_KEY | next(env._seq),
                              self))

    def __repr__(self):
        return f"<Timeout({self.delay}) at {id(self):#x}>"


class Interrupt(Exception):
    """Asynchronous exception thrown into an interrupted process.

    ``cause`` carries arbitrary context supplied by the interrupter (for
    example a :class:`~repro.sim.resources.Preempted` record).
    """

    @property
    def cause(self):
        return self.args[0]

    def __str__(self):
        return f"Interrupt({self.cause!r})"


class _InterruptEvent(Event):
    """Internal urgent event that delivers an Interrupt to a process."""

    __slots__ = ()

    def __init__(self, env, process, cause):
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [process._resume_interrupt]
        env.schedule(self, priority=URGENT)


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

    __slots__ = ("_generator", "_send", "_target", "_resume_cb", "name")

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
        #: The event this process is currently waiting on (None while
        #: running or before start).
        self._target = None
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        env.kick(self._start)

    @property
    def target(self):
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self):
        """True until the generator has returned or raised."""
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process or a process from within itself is an
        error.  The interrupted process stops waiting for its current
        target (the target's callback is removed) and resumes with the
        Interrupt raised at its current ``yield``.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- internal ------------------------------------------------------
    def _start(self, _key):
        """The kicked continuation that first advances the generator."""
        self._resume(_STARTED)

    def _resume_interrupt(self, event):
        """Deliver an interrupt, detaching from the current target."""
        if not self.is_alive:  # terminated between scheduling and delivery
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event):
        """Advance the generator with the outcome of ``event``."""
        if self._value is not PENDING:  # interrupted before its start ran
            return
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            self._target = None
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(
                        type(event._value), event._value, None
                    )
            except (StopIteration, StopProcess) as exc:
                env._active_process = None
                # A bound method of this process: dropped at the end so a
                # finished process is freed by reference counting.
                self._resume_cb = None
                # Tail position by construction: resuming the waiters is
                # the last thing this resumption does, so the process's
                # completion may be handed off (dispatched synchronously)
                # when the environment's ordering guards allow it.
                env.handoff(self, exc.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._resume_cb = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                env._active_process = None
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._generator.close()
                self._resume_cb = None
                self._ok = False
                self._value = err
                env.schedule(self)
                return

            if callbacks is not None:
                # Event pending or triggered-but-unprocessed: park.
                callbacks.append(self._resume_cb)
                self._target = next_event
                break
            # Already processed: consume its outcome immediately.
            event = next_event

        env._active_process = None

    def __repr__(self):
        return f"<Process({self.name}) at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of the events a condition has collected so far."""

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


class Condition(Event):
    """Event that triggers when ``evaluate(events, n_done)`` is true.

    Failed sub-events fail the condition immediately (and are defused).
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(self, env, evaluate, events):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(ConditionValue())
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if self._value is PENDING and self._evaluate(self._events,
                                                     self._count):
            self.succeed(self._collect())

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
        if self._evaluate(self._events, self._count):
            # Tail position: completing the condition is the last thing
            # this check does, so the completion may be handed straight
            # to the condition's waiters when ordering permits.  (The
            # direct calls from ``__init__`` reach here before any
            # waiter could have registered, so they always fall back to
            # ordinary scheduling — handoff requires callbacks.)
            self.env.handoff(self, self._collect())

    @staticmethod
    def all_events(events, count):
        return len(events) == count

    @staticmethod
    def any_events(events, count):
        return count > 0 or not events


class AllOf(Condition):
    """Condition that succeeds when all of ``events`` have succeeded."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that succeeds when any of ``events`` has succeeded."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.any_events, events)
