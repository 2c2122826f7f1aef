"""Regression coverage for the kernel fast path.

The hot-path speed pass (sign-split agenda keys, pooled Timeout events,
callback-based packet walkers, agenda entries pushed without a call to
``Environment.schedule``, continuation entries: kicks and the CPU's
arms push a bound method in an event's place, and the held entry a
CPU's arm waits in ahead of the heap) must be *observably free*: every
test here pins behaviour that the optimisations could plausibly have
changed — agenda ordering and entry contents, event-object lifecycle,
abandoned CPU slices.  Whole-model runs are pinned by the golden
digests (``tests/test_results_golden.py`` and the CPU, obs and
transport goldens).
"""

import dataclasses
from collections import deque
from types import MethodType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, SimulationError, Timeout
from repro.sim.events import NORMAL, URGENT, URGENT_KEY
from repro.transputer import TransputerConfig
from repro.transputer.cpu import HIGH, LOW, Cpu


# -- agenda ordering under the sign-split key -----------------------------
def test_same_time_same_priority_events_fire_in_schedule_order():
    """FIFO among equals: the key (the sequence number, offset by
    ``URGENT_KEY`` for an URGENT entry) must preserve schedule order for
    same-time, same-priority events exactly as a (time, priority, seq)
    tuple does."""
    env = Environment()
    fired = []
    for i in range(50):
        env.timeout(1.0).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run_all()
    assert fired == list(range(50))


def test_urgent_beats_normal_at_the_same_time_regardless_of_seq():
    env = Environment()
    fired = []
    normal = env.event()
    normal._ok, normal._value = True, None
    normal.callbacks.append(lambda e: fired.append("normal"))
    urgent = env.event()
    urgent._ok, urgent._value = True, None
    urgent.callbacks.append(lambda e: fired.append("urgent"))
    # NORMAL scheduled first (lower seq) must still lose to URGENT.
    env.schedule(normal, priority=NORMAL, delay=2.0)
    env.schedule(urgent, priority=URGENT, delay=2.0)
    env.run_all()
    assert fired == ["urgent", "normal"]


def test_mixed_delays_and_priorities_interleave_deterministically():
    env = Environment()
    fired = []
    for i, delay in enumerate([3.0, 1.0, 2.0, 1.0, 3.0, 2.0]):
        env.timeout(delay).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run_all()
    # Sorted by time, then schedule order within each time.
    assert fired == [1, 3, 2, 5, 0, 4]


# Every way of putting an entry on the agenda, drawn at random, checked
# against a reference agenda that orders entries by time, URGENT before
# NORMAL, then push order.  The CPUs carry identical one-quantum bursts,
# so their switch and slice ends tie with each other and with the
# entries pushed at those times.  Nothing here reads a key.
_OV = TransputerConfig().context_switch_overhead
_Q = TransputerConfig().quantum
_DELAYS = (0.0, _OV, _Q, _OV + _Q)
_ORDER_CPUS = 3
_DEADLINE = ("deadline", None)
_ORDER_OPS = st.one_of(
    st.tuples(st.sampled_from(["kick", "succeed"])),
    st.tuples(st.sampled_from(["urgent", "normal", "timeout", "until"]),
              st.sampled_from(_DELAYS)),
    st.tuples(st.just("execute"), st.integers(0, _ORDER_CPUS - 1)),
)


class _Logger:
    """A kick's owner: its continuation logs the pop time and a label."""

    def __init__(self, env, log, label):
        self.env = env
        self.log = log
        self.label = label

    def cont(self, _key):
        self.log.append((self.env.now, self.label))


class _LoggedCpu(Cpu):
    """A Cpu that logs the pops of its agenda continuations.  The loop
    calls a continuation with its entry's key; the CPU's inline calls
    pass none."""

    def __init__(self, env, config, log, index):
        self.log = log
        self.index = index
        super().__init__(env, config, node_id=index)

    def _dispatch_next(self, _key=None):
        if _key is not None:
            self.log.append((self.env.now, ("cpu", self.index)))
        super()._dispatch_next(_key)

    def _cb_overhead(self, _key=None):
        if _key is not None:
            self.log.append((self.env.now, ("switch", self.index)))
        super()._cb_overhead(_key)

    def _cb_low_end(self, key, preempted=False):
        if key is not None:
            self.log.append((self.env.now, ("slice", self.index)))
        super()._cb_low_end(key, preempted)


class _ReferenceAgenda:
    """Entries ordered by ``(time, priority, push order)``, and the
    CPUs' dispatch steps for one-quantum LOW bursts."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.pushes = 0
        self.popped = []
        self.state = ["boot"] * _ORDER_CPUS
        self.ready = [deque() for _ in range(_ORDER_CPUS)]
        self.running = [None] * _ORDER_CPUS
        for c in range(_ORDER_CPUS):
            self.push(0.0, URGENT, ("cpu", c))  # the boot kick

    def push(self, time, priority, label):
        self.entries.append((time, priority, self.pushes, label))
        self.pushes += 1

    def pop(self):
        entry = min(self.entries)
        self.entries.remove(entry)
        self.now, _, _, label = entry
        self.popped.append((self.now, label))
        kind, c = label[:2]  # the CPU's index for a CPU's entry
        if kind == "slice":
            done = self.running[c]
            self._dispatch(c)
            self.push(self.now, NORMAL, done)  # the completion
        elif kind == "switch":
            self.state[c] = "slice"
            self.push(self.now + _Q, NORMAL, ("slice", c))
        elif kind == "cpu":
            self._dispatch(c)
        return label

    def _dispatch(self, c):
        if self.ready[c]:
            self.running[c] = self.ready[c].popleft()
            self.state[c] = "switch"
            self.push(self.now + _OV, NORMAL, ("switch", c))
        else:
            self.state[c] = "idle"


@given(ops=st.lists(_ORDER_OPS, max_size=30))
@settings(max_examples=200, deadline=None)
def test_property_equal_time_entries_pop_urgent_first_in_push_order(ops):
    env = Environment()
    log = []
    ref = _ReferenceAgenda()
    cpus = [_LoggedCpu(env, TransputerConfig(), log, c)
            for c in range(_ORDER_CPUS)]

    def logged(event, label):
        event.callbacks.append(lambda e: log.append((env.now, label)))

    for i, op in enumerate(ops):
        kind, label = op[0], ("entry", i)
        if kind == "kick":
            env.kick(_Logger(env, log, label).cont)
            ref.push(env.now, URGENT, label)
        elif kind == "succeed":
            logged(env.event().succeed(), label)
            ref.push(env.now, NORMAL, label)
        elif kind in ("urgent", "normal"):
            event = env.event()
            event._ok, event._value = True, None
            logged(event, label)
            priority = URGENT if kind == "urgent" else NORMAL
            env.schedule(event, priority=priority, delay=op[1])
            ref.push(env.now + op[1], priority, label)
        elif kind == "timeout":
            logged(env.timeout(op[1]), label)
            ref.push(env.now + op[1], NORMAL, label)
        elif kind == "until":
            at = env.now + op[1]
            env.run(until=at)
            log.append((env.now, _DEADLINE))
            ref.push(at, URGENT, _DEADLINE)
            while ref.pop() != _DEADLINE:
                pass
        else:
            # One quantum of LOW work, submitted outside a slice so that
            # no arrival preempts one.
            c = op[1]
            if ref.state[c] == "slice":
                continue
            logged(cpus[c].execute(_Q, LOW), ("done", c, i))
            ref.ready[c].append(("done", c, i))
            if ref.state[c] == "idle":  # the wakeup arm
                ref.state[c] = "woken"
                ref.push(env.now, NORMAL, ("cpu", c))
    env.run()
    while ref.entries:
        ref.pop()
    assert log == ref.popped


# -- pooled event lifecycle ----------------------------------------------
def test_timeouts_are_recycled_and_reused():
    env = Environment()

    def ticker(env):
        for _ in range(20):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run_all()
    assert env._free_timeouts, "drained timeouts should land in the pool"
    recycled = env._free_timeouts[-1]
    again = env.timeout(5.0)
    assert again is recycled  # reuse, not reallocation
    assert again.delay == 5.0
    # Like any fresh Timeout it is triggered (value set, scheduled) but
    # not yet processed, with a clean callback list.
    assert again.callbacks == [] and not again.processed


def test_referenced_timeouts_are_not_recycled():
    """A Timeout the model still holds must never be reset under it."""
    env = Environment()
    held = env.timeout(1.0)
    env.run_all()
    assert held not in env._free_timeouts
    assert held.ok and held.processed


def test_pooled_timeout_still_validates_delay():
    env = Environment()

    def ticker(env):
        yield env.timeout(1.0)

    env.process(ticker(env))
    env.run_all()
    assert env._free_timeouts  # the pooled path is the one under test
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(-1.0)
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(float("nan"))


def test_pooled_timeout_rejects_infinite_delay():
    """An infinite delay from the free list used to be accepted: once it
    popped, the clock stayed at ``inf`` and later timeouts of 1.0 and
    0.5 fired in push order."""
    env = Environment()
    env.timeout(1.0)
    env.run_all()
    assert env._free_timeouts  # the pooled path is the one under test
    with pytest.raises(ValueError, match="invalid delay inf"):
        env.timeout(float("inf"))
    assert env._queue == [] and env._free_timeouts


# -- satellite bugfixes ---------------------------------------------------
def test_fresh_timeout_rejects_infinite_delay():
    """A fresh Timeout with an infinite delay used to be accepted, with
    the same result as a pooled one."""
    env = Environment()
    with pytest.raises(ValueError, match="invalid delay inf"):
        Timeout(env, float("inf"))
    assert not env._free_timeouts  # ``timeout`` allocates a fresh one
    with pytest.raises(ValueError, match="invalid delay inf"):
        env.timeout(float("inf"))
    assert env._queue == []


def test_timeout_rejects_nan_delay():
    """NaN used to sail through the `delay < 0` check and poison the
    agenda heap (every comparison with NaN is False, so heap order
    silently broke)."""
    env = Environment()
    with pytest.raises(ValueError, match="invalid delay"):
        Timeout(env, float("nan"))


def test_trigger_from_untriggered_source_raises():
    """Event.trigger used to copy PENDING out of an untriggered source,
    corrupting the target (triggered-but-pending)."""
    env = Environment()
    src, dst = env.event(), env.event()
    with pytest.raises(SimulationError, match="not itself been triggered"):
        dst.trigger(src)
    assert not dst.triggered  # target untouched by the failed call


@pytest.mark.parametrize("kwargs, match", [
    ({"delay": float("nan")}, "invalid delay nan"),
    ({"delay": -1e-9}, "invalid delay -1e-09"),
    ({"priority": 2}, "invalid priority 2"),
    ({"priority": -1}, "invalid priority -1"),
    ({"delay": float("inf")}, "invalid delay inf"),
])
def test_schedule_rejects_bad_delay_and_priority(kwargs, match):
    """A NaN delay used to poison the heap order, a negative one moved
    the clock backwards, an infinite one left it at ``inf`` for good,
    and any priority packed silently into the key; now each raises
    before anything is pushed."""
    env = Environment()
    event = env.event()
    event._ok, event._value = True, None
    with pytest.raises(ValueError, match=match):
        env.schedule(event, **kwargs)
    assert env._queue == []


# -- agenda entries pushed without a call --------------------------------
# Every hot trigger pushes its own agenda entry.  The contract: the entry
# is exactly the one ``Environment.schedule`` builds, i.e.
# ``(now + delay, key, event)`` with ``key = seq`` for NORMAL and
# ``seq + URGENT_KEY`` for URGENT, drawing one sequence number at the
# point of the trigger.  A kick or a CPU arm pushes the
# same time and key with its continuation, a bound method, in the
# event's place; a CPU arm goes to the held slot when it is free, so
# the helpers look at the heap and the slot together.
def _reference_entry(env, item, priority, delay, seq):
    """The entry ``schedule(item, priority, delay)`` builds."""
    key = seq + URGENT_KEY if priority == URGENT else seq
    return (env._now + delay, key, item)


def _seq(key):
    """The sequence number of an agenda entry's key."""
    return key - URGENT_KEY if key < 0 else key


def _agenda(env):
    """Every agenda entry: the heap's, then the held one if any."""
    return env._queue + ([] if env._held is None else [env._held])


class _Sink:
    """Owner of a continuation that records the keys it is called with."""

    def __init__(self):
        self.keys = []

    def cont(self, key):
        self.keys.append(key)


def _armed(env, trigger):
    """Run ``trigger``; return its result, the one agenda entry it
    pushed and the sequence number that entry must carry, checking that
    exactly one sequence number was drawn."""
    seq = next(env._seq) + 1
    keys = {key for _, key, _ in _agenda(env)}
    result = trigger()
    (entry,) = [e for e in _agenda(env) if e[1] not in keys]
    assert next(env._seq) == seq + 1
    assert type(entry[0]) is float
    return result, entry, seq


def _clock_at(t):
    """An environment whose clock has advanced to ``t``."""
    env = Environment()
    env.run(until=t)
    return env


def test_succeed_and_fail_push_the_schedule_entry():
    env = _clock_at(1.25)
    event, entry, seq = _armed(env, lambda: env.event().succeed("v"))
    assert entry == _reference_entry(env, event, NORMAL, 0.0, seq)
    event, entry, seq = _armed(env, lambda: env.event().fail(KeyError()))
    assert entry == _reference_entry(env, event, NORMAL, 0.0, seq)
    event.defuse()


def test_fresh_and_pooled_timeouts_push_the_schedule_entry():
    env = _clock_at(1.25)
    assert not env._free_timeouts
    event, entry, seq = _armed(env, lambda: env.timeout(0.375))
    assert entry == _reference_entry(env, event, NORMAL, 0.375, seq)
    event, entry, seq = _armed(env, lambda: Timeout(env, 0.5))
    assert entry == _reference_entry(env, event, NORMAL, 0.5, seq)
    del event, entry
    env.run_all()
    assert env._free_timeouts
    recycled = env._free_timeouts[-1]
    event, entry, seq = _armed(env, lambda: env.timeout(0.125))
    assert event is recycled
    assert entry == _reference_entry(env, event, NORMAL, 0.125, seq)


def test_kick_pushes_the_schedule_entry_with_the_continuation():
    env = _clock_at(1.25)
    sink = _Sink()
    callback = sink.cont
    result, entry, seq = _armed(env, lambda: env.kick(callback))
    assert result is None
    assert entry == _reference_entry(env, callback, URGENT, 0.0, seq)
    assert entry[2] is callback
    # The loop calls the continuation once, with the entry's key.
    env.run_all()
    assert sink.keys == [entry[1]]
    assert env.events_processed == 2  # the clock's deadline and the kick


@pytest.mark.parametrize("callback", [lambda e: None, print, [].append,
                                      _Sink.cont, None],
                         ids=["lambda", "builtin", "builtin-method",
                              "function", "none"])
def test_kick_refuses_anything_but_a_bound_method(callback):
    """The loop tells a continuation from an event by its class, so a
    kick of anything but a bound method fails at the call."""
    env = Environment()
    with pytest.raises(TypeError, match="bound method"):
        env.kick(callback)
    assert env._queue == []
    assert next(env._seq) == 0  # no sequence number drawn


def test_step_runs_a_continuation_entry():
    env = _clock_at(1.25)
    processed = env.events_processed
    sink = _Sink()
    env.kick(sink.cont)
    ((_, key, _),) = env._queue
    env.step()
    assert sink.keys == [key]
    assert env.events_processed == processed + 1
    assert env.handoffs == 0
    assert env.now == 1.25 and env._queue == []


def test_handoff_fallback_pushes_the_schedule_entry():
    env = _clock_at(1.25)
    # No waiter to hand the event to: it must take the agenda.
    event, entry, seq = _armed(env, lambda: env.handoff(env.event(), 7))
    assert entry == _reference_entry(env, event, NORMAL, 0.0, seq)
    # A waiter, but a same-time entry is already queued ahead of it.
    waited = env.event()
    waited.callbacks.append(lambda e: None)
    event, entry, seq = _armed(env, lambda: env.handoff(waited, 8))
    assert event is waited
    assert entry == _reference_entry(env, event, NORMAL, 0.0, seq)


def test_cpu_wakeup_switch_and_slice_arms_push_the_schedule_entry():
    env = _clock_at(1.25)
    config = TransputerConfig()
    overhead = config.context_switch_overhead
    cpu = Cpu(env, config, node_id=0)
    env.run_all()  # boot: the CPU finds no work and goes idle
    # Wakeup: an arrival at an idle CPU arms the wakeup with no delay.
    _, entry, seq = _armed(env, lambda: cpu.execute(0.005, LOW))
    cpu.execute(0.005, LOW)
    assert entry == _reference_entry(env, cpu._wakeup, NORMAL, 0.0, seq)
    # Switch after a dispatch: the wakeup pops and the CPU pays the
    # context switch before the first slice.
    _, entry, seq = _armed(env, env.step)
    assert entry == _reference_entry(env, cpu._switch_end, NORMAL,
                                     overhead, seq)
    # Slice: one quantum, since another request is waiting.  Its key is
    # the armed one.
    _, entry, seq = _armed(env, env.step)
    assert cpu._slice_len == config.quantum
    assert entry == _reference_entry(env, cpu._low_end, NORMAL,
                                     config.quantum, seq)
    assert cpu._armed == entry[1]
    # Switch after a requeue: the quantum expires, the request goes to
    # the back of the queue and the next one pays the switch.
    _, entry, seq = _armed(env, env.step)
    assert entry == _reference_entry(env, cpu._switch_end, NORMAL,
                                     overhead, seq)
    # A high burst waits for the switch, then runs its whole length.
    env.run_all()
    burst = 1e-4
    cpu.execute(burst, HIGH)
    env.step()  # the wakeup
    env.step()  # the switch
    (entry,) = _agenda(env)
    assert entry[1] == cpu._armed
    assert entry == (env._now + burst, entry[1], cpu._high_end)


def test_cpu_arm_takes_the_free_held_slot_and_every_reader_sees_it():
    """A CPU's arm waits in the held slot while it is free; ``peek``,
    ``repr``, ``handoff``'s guard, ``step`` and ``run_all`` read it."""
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    env.run_all()  # boot: idle
    cpu.execute(0.005, LOW)  # the wakeup arm takes the free slot
    assert env._queue == [] and env._held[2] is cpu._wakeup
    assert env.peek() == env.now
    assert repr(env) == f"<Environment now={env.now} queued=1>"
    # The held wakeup is due now and was sequenced first: a handoff
    # must not run its waiter ahead of it.
    fired = []
    waited = env.event()
    waited.callbacks.append(lambda e: fired.append(env.now))
    env.handoff(waited)
    assert fired == [] and [e[2] for e in env._queue] == [waited]
    env.step()  # the wakeup; the switch arm takes the freed slot
    assert fired == [] and env._held[2] is cpu._switch_end
    env.step()  # the waiter, from the heap; the held entry moves there
    assert fired == [env.now] and env._held is None
    assert [e[2] for e in env._queue] == [cpu._switch_end]
    # The switch end, the slice end and the completion, which has no
    # waiter and so takes the agenda.
    assert env.run_all() == 3
    assert env._queue == [] and env._held is None


def _cpu_state(cpu):
    """Everything a CPU continuation could change, by value."""
    state = {name: list(value) if isinstance(value, deque) else value
             for name, value in vars(cpu).items()}
    state["stats"] = dataclasses.astuple(cpu.stats)
    state["_paused"] = {tag: list(q) for tag, q in cpu._paused.items()}
    for name in ("_running", "_cur"):
        req = state[name]
        if req is not None:
            state[name] = (req, req.remaining, req.cpu_time, req.slices)
    return state


def test_preempted_slice_entry_pops_as_one_counted_no_op():
    """A preemption ends the low slice early and leaves its entry on the
    agenda; when that entry pops, it counts as one event and changes
    nothing."""
    env = Environment()
    config = TransputerConfig()
    cpu = Cpu(env, config, node_id=0)
    env.run_all()  # boot: idle
    low = cpu.execute(0.01, LOW)
    env.step()  # the wakeup
    env.step()  # the switch: the sole request runs one extended slice
    (abandoned,) = _agenda(env)
    assert abandoned[2] is cpu._low_end
    assert abandoned[1] == cpu._armed
    cpu.execute(1e-4, HIGH)
    env.step()  # the kicked interrupt: the slice is credited
    assert cpu.stats.preemptions == 1
    assert cpu._armed is None
    while min(_agenda(env)) is not abandoned:
        env.step()
    state = _cpu_state(cpu)
    rest = sorted(e for e in _agenda(env) if e is not abandoned)
    processed = env.events_processed
    env.step()
    assert env.events_processed == processed + 1
    assert env.now == abandoned[0]
    assert _cpu_state(cpu) == state
    assert sorted(_agenda(env)) == rest  # nothing pushed
    env.run_all()
    assert low.processed and low.cpu_time == pytest.approx(0.01)
    assert cpu.stats.preemptions == 1


# A random interleaving of every trigger above, each checked against the
# reference formula: the agenda entries one trigger (or one step of the
# event loop) pushes must carry the next sequence numbers, in order, and
# equal ``_reference_entry`` with the priority and delay the event
# stands for.
_KERNEL_OPS = st.one_of(
    st.tuples(st.just("succeed")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("timeout"),
              st.sampled_from([0.0, 2.5e-5, 0.002]) | st.floats(0.0, 0.004)),
    st.tuples(st.just("kick")),
    st.tuples(st.just("handoff"), st.booleans()),
)
_CPU_OPS = st.one_of(
    st.tuples(st.just("execute"), st.sampled_from([0.0, 1e-4, 0.003]),
              st.sampled_from([HIGH, LOW, LOW])),
    # Step the event loop through everything due within ``dt``.
    st.tuples(st.just("advance"), st.floats(0.0, 0.004)),
)
_OPS = _KERNEL_OPS | _CPU_OPS


def _expected(cpu, item):
    """The priority and delay of the entry that carries ``item``."""
    if type(item) is MethodType:
        if item is cpu._wakeup:
            return NORMAL, 0.0
        if item is cpu._switch_end:
            return NORMAL, cpu._overhead
        if item is cpu._low_end or item is cpu._high_end:
            return NORMAL, cpu._slice_len
        return URGENT, 0.0  # a kick
    if type(item) is Timeout:
        return NORMAL, item.delay
    return NORMAL, 0.0


def _trigger(env, cpu, op):
    kind = op[0]
    if kind == "succeed":
        env.event().succeed(kind)
    elif kind == "fail":
        env.event().fail(KeyError(kind)).defuse()
    elif kind == "timeout":
        env.timeout(op[1])
    elif kind == "kick":
        env.kick(_Sink().cont)
    elif kind == "handoff":
        event = env.event()
        if op[1]:
            event.callbacks.append(lambda e: None)
        env.handoff(event, kind)
    else:
        cpu.execute(op[1], op[2])


@given(ops=st.lists(_OPS, max_size=40))
@settings(max_examples=150, deadline=None)
def test_property_interleaved_triggers_push_the_schedule_entries(ops):
    env = Environment()
    cpu = Cpu(env, TransputerConfig(), node_id=0)
    next_seq = 1  # the CPU's boot kick drew sequence number 0

    def check(action):
        nonlocal next_seq
        keys = {key for _, key, _ in _agenda(env)}
        action()
        pushed = sorted((e for e in _agenda(env) if e[1] not in keys),
                        key=lambda e: _seq(e[1]))
        for entry in pushed:
            item = entry[2]
            priority, delay = _expected(cpu, item)
            assert type(entry[0]) is float
            assert entry == _reference_entry(env, item, priority, delay,
                                             next_seq)
            next_seq += 1

    for op in ops:
        if op[0] == "advance":
            until = env._now + op[1]
            while env.peek() <= until:
                check(env.step)
        else:
            check(lambda: _trigger(env, cpu, op))
    # No sequence number was drawn without an entry to show for it.
    assert next(env._seq) == next_seq


# -- request events set their Event slots themselves ---------------------
def test_request_events_start_in_the_state_event_init_gives():
    """``WorkRequest``, ``BufferRequest`` and ``AllocRequest`` set the
    ``Event`` slots without calling ``Event.__init__``: each fresh
    request must match a fresh ``Event`` in every one of them."""
    from repro.transputer.cpu import WorkRequest
    from repro.transputer.memory import AllocRequest, BufferPool, \
        BufferRequest, Mmu

    env = Environment()
    cpu = Cpu(env, TransputerConfig())
    pool = BufferPool(env, num_classes=2, buffers_per_class=1,
                      buffer_bytes=64)
    requests = [WorkRequest(cpu, 1.0, HIGH, 1.0, "tag"),
                BufferRequest(pool, 0), AllocRequest(Mmu(env, 64), 8)]
    fresh = Event(env)
    for request in requests:
        for slot in Event.__slots__:
            assert getattr(request, slot) == getattr(fresh, slot), slot
        assert request.callbacks is not fresh.callbacks
