"""Failure injection and robustness tests.

The simulator must fail loudly and precisely — a silent hang or a
swallowed exception in a 10^5-event run is undebuggable.
"""

import re

import pytest

from repro.core import (
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.sim import Environment, SimulationError
from repro.workload import BatchWorkload, JobSpec
from repro.workload.application import Application

from tests.conftest import ideal_transputer


class ExplodingApp(Application):
    """Application that raises partway through execution."""

    name = "exploder"

    def __init__(self, when="coordinator", **kwargs):
        super().__init__(**kwargs)
        self.when = when

    def total_ops(self, num_processes):
        return 1000.0

    def run(self, ctx):
        if self.when == "immediately":
            raise RuntimeError("boom at launch")
        yield ctx.compute(0, 500)
        if self.when == "coordinator":
            raise RuntimeError("boom mid-run")
        worker = ctx.spawn(self._bad_worker(ctx), name="bad-worker")
        yield worker

    def _bad_worker(self, ctx):
        yield ctx.compute(1 % ctx.job.num_processes, 100)
        raise RuntimeError("boom in worker")


def make_system(policy=None, num_nodes=4):
    cfg = SystemConfig(num_nodes=num_nodes, topology="linear",
                       transputer=ideal_transputer())
    return MulticomputerSystem(cfg, policy or StaticSpaceSharing(num_nodes))


def test_application_exception_at_launch_surfaces():
    system = make_system()
    batch = BatchWorkload([JobSpec(ExplodingApp(when="immediately"), "bad")])
    with pytest.raises(RuntimeError, match="boom at launch"):
        system.run_batch(batch)


def test_application_exception_mid_run_surfaces():
    system = make_system()
    batch = BatchWorkload([JobSpec(ExplodingApp(when="coordinator"), "bad")])
    with pytest.raises(RuntimeError, match="boom mid-run"):
        system.run_batch(batch)


def test_worker_exception_surfaces():
    system = make_system()
    batch = BatchWorkload([JobSpec(ExplodingApp(when="worker"), "bad")])
    with pytest.raises(RuntimeError, match="boom in worker"):
        system.run_batch(batch)


def test_failed_job_not_marked_completed():
    system = make_system()
    batch = BatchWorkload([JobSpec(ExplodingApp(when="coordinator"), "bad")])
    try:
        system.run_batch(batch)
    except RuntimeError:
        pass
    sched = system.super_scheduler
    assert sched._completed == 0
    assert not sched.all_done.triggered


def test_hung_batch_detectable_via_event_exhaustion():
    """A model that can never finish must raise, not hang."""

    class Stuck(Application):
        name = "stuck"

        def total_ops(self, num_processes):
            return 1.0

        def run(self, ctx):
            # Wait for a message nobody will ever send.
            yield ctx.recv(0, tag="never")

    system = make_system()
    with pytest.raises(SimulationError, match="ran out of events"):
        system.run_batch(BatchWorkload([JobSpec(Stuck(), "stuck")]))


def test_oversized_job_memory_fails_with_clear_error():
    """A job whose single allocation exceeds node memory must fail with
    the memory error, not deadlock."""
    from repro.transputer.memory import MemoryError_

    class Hog(Application):
        name = "hog"

        def total_ops(self, num_processes):
            return 1.0

        def run(self, ctx):
            node = ctx.node(0)
            yield ctx.alloc(0, node.memory.capacity + 1)

    system = make_system()
    with pytest.raises(MemoryError_, match="exceeds node memory"):
        system.run_batch(BatchWorkload([JobSpec(Hog(), "hog")]))


def test_message_larger_than_mailbox_region_fails_loudly():
    class BigTalker(Application):
        name = "bigtalker"

        def __init__(self):
            super().__init__(architecture="adaptive")

        def total_ops(self, num_processes):
            return 1.0

        def run(self, ctx):
            ctx.send(0, 1, 10 * 1024 * 1024, tag="huge")
            yield ctx.recv(1, tag="huge")

    from repro.transputer.memory import MemoryError_

    system = make_system()
    with pytest.raises(MemoryError_):
        system.run_batch(BatchWorkload([JobSpec(BigTalker(), "big")]))


def _deadlocking_batch():
    """Fixed matmul jobs on a 4-node linear array, time-shared: node 0's
    job and mailbox regions fill up and the run stops at t = 14.89 s."""
    from repro.workload import standard_batch

    system = MulticomputerSystem(
        SystemConfig(num_nodes=4, topology="linear"), TimeSharing())
    return system, standard_batch("matmul", "fixed", small_size=55,
                                  large_size=110)


_STUCK_NODE_0 = (
    "node 0 job region: 46 queued requests, head 290400B, "
    "289216B of 2031616B free\n"
    "  node 0 mailbox region: 51 queued requests, head 1320B, "
    "808B of 196608B free\n"
    "  network of partition 0 (nodes [0, 1, 2, 3]): 51 of 540 messages "
    "undelivered")


def test_deadlocked_batch_says_where_it_is_stuck():
    """A deadlocked batch used to raise only "simulation ran out of
    events before `until` fired"; the error now names the incomplete
    jobs, each region with queued requests and the undelivered
    messages."""
    system, batch = _deadlocking_batch()
    with pytest.raises(SimulationError) as info:
        system.run_batch(batch)
    message = str(info.value)
    assert message.startswith("simulation ran out of events at t = 14.885")
    assert "with 16 of 16 submitted jobs incomplete\n" in message
    assert re.search(r"\n  incomplete jobs: (job\d+, ){15}job\d+\n", message)
    assert message.endswith(_STUCK_NODE_0)
    assert "ran out of events before `until` fired" in str(
        info.value.__cause__)


@pytest.mark.parametrize("collect_jobs", [True, False])
def test_deadlocked_open_run_says_where_it_is_stuck(collect_jobs):
    system, batch = _deadlocking_batch()
    with pytest.raises(SimulationError) as info:
        system.run_open([(0.0, spec) for spec in batch],
                        collect_jobs=collect_jobs)
    message = str(info.value)
    assert "with 16 of 16 submitted jobs incomplete\n" in message
    assert ("incomplete jobs: " in message) == collect_jobs
    assert message.endswith(_STUCK_NODE_0)


def test_oversized_allocation_names_its_memory_region():
    """The oversize error used to give only the capacity, which for a
    mailbox allocation is the mailbox region's size, not the node's."""
    from repro.transputer.memory import Mmu

    env = Environment()
    request = Mmu(env, 196608, node_id=2, region="mailbox").alloc(196609)
    request.defuse()
    assert str(request.value) == (
        "request of 196609B exceeds node memory: the mailbox region "
        "holds 196608B on node 2")


def test_reuse_of_system_object_resets_state():
    """run_batch twice on the same MulticomputerSystem: the second run
    starts from a clean machine (fresh environment and nodes)."""
    from repro.workload import standard_batch

    system = make_system(StaticSpaceSharing(2))
    batch = standard_batch("matmul", num_small=2, num_large=0, small_size=16)
    r1 = system.run_batch(batch)
    first_nodes = system.nodes
    r2 = system.run_batch(batch)
    assert system.nodes is not first_nodes
    assert r1.mean_response_time == pytest.approx(r2.mean_response_time)


def test_empty_batch_completes_immediately_or_rejects():
    system = make_system()
    with pytest.raises(ValueError):
        system.run_batch([])


def test_interrupting_cpu_slice_conserves_partial_work():
    """Preempting a slice at an arbitrary instant never loses or
    duplicates CPU time."""
    from repro.transputer import Cpu, HIGH, LOW, TransputerConfig

    env = Environment()
    cpu = Cpu(env, TransputerConfig(context_switch_overhead=0.0), node_id=0)
    low = cpu.execute(1.0, LOW)

    def interferer(env):
        for _ in range(7):
            yield env.timeout(0.0731)
            yield cpu.execute(0.013, HIGH)

    env.process(interferer(env))
    env.run(until=low)
    assert low.cpu_time == pytest.approx(1.0, rel=1e-9)
    assert cpu.stats.low_time == pytest.approx(1.0, rel=1e-9)
