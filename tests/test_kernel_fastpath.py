"""Regression coverage for the kernel fast path.

The hot-path speed pass (packed agenda keys, pooled Timeout events,
callback-based packet walkers, agenda entries pushed without a call to
``Environment.schedule``, and continuation entries: kicks and the CPU's
arms push a bound method in an event's place) must be *observably
free*: every test here pins behaviour that the optimisations could
plausibly have changed — agenda ordering and entry contents,
event-object lifecycle, abandoned CPU slices.  Whole-model runs are
pinned by the golden digests
(``tests/test_results_golden.py`` and the CPU, obs and transport
goldens).
"""

import dataclasses
from collections import deque
from types import MethodType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, SimulationError, Timeout
from repro.sim.environment import _SEQ_MASK
from repro.sim.events import NORMAL, URGENT
from repro.transputer import TransputerConfig
from repro.transputer.cpu import HIGH, LOW, Cpu


# -- agenda ordering under the packed key --------------------------------
def test_same_time_same_priority_events_fire_in_schedule_order():
    """FIFO among equals: the packed (priority << 56) | seq key must
    preserve schedule order for same-time, same-priority events exactly
    as the old (time, priority, seq) tuple did."""
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
# ``(now + delay, (priority << 56) | seq, event)``, drawing one sequence
# number at the point of the trigger.  A kick or a CPU arm pushes the
# same time and key with its continuation, a bound method, in the
# event's place.
def _reference_entry(env, item, priority, delay, seq):
    """The entry ``schedule(item, priority, delay)`` builds."""
    return (env._now + delay, (priority << 56) | seq, item)


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
    keys = {key for _, key, _ in env._queue}
    result = trigger()
    (entry,) = [e for e in env._queue if e[1] not in keys]
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
    assert sink.keys == [seq]
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
    (entry,) = env._queue
    assert entry[1] == cpu._armed
    assert entry == (env._now + burst, entry[1], cpu._high_end)


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
    (abandoned,) = env._queue
    assert abandoned[2] is cpu._low_end
    assert abandoned[1] == cpu._armed
    cpu.execute(1e-4, HIGH)
    env.step()  # the kicked interrupt: the slice is credited
    assert cpu.stats.preemptions == 1
    assert cpu._armed is None
    while env._queue[0] is not abandoned:
        env.step()
    state = _cpu_state(cpu)
    rest = sorted(e for e in env._queue if e is not abandoned)
    processed = env.events_processed
    env.step()
    assert env.events_processed == processed + 1
    assert env.now == abandoned[0]
    assert _cpu_state(cpu) == state
    assert sorted(env._queue) == rest  # nothing pushed
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
        keys = {key for _, key, _ in env._queue}
        action()
        pushed = sorted((e for e in env._queue if e[1] not in keys),
                        key=lambda e: e[1] & _SEQ_MASK)
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
            while env._queue and env._queue[0][0] <= until:
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
