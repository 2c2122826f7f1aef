"""Direct tests of the ExecutionContext, Partition, and LocalScheduler."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.job import Job
from repro.core.local_scheduler import LocalScheduler
from repro.core.partition import Partition
from repro.sim import Environment
from repro.transputer import TransputerNode
from repro.workload import MatMulApplication

from tests.conftest import ideal_transputer


def make_partition(env, n=4, topology="linear", switching="store_forward",
                   cfg=None):
    cfg = cfg or ideal_transputer()
    nodes = {i: TransputerNode(env, i, cfg) for i in range(n)}
    for node in nodes.values():
        node.local_scheduler = LocalScheduler(node)
    part = Partition(env, 0, nodes, topology, cfg, switching=switching)
    return part, cfg


def make_ctx(env, part, cfg, quantum=None, offset=0):
    job = Job(MatMulApplication(16), size_class="t")
    job.num_processes = part.size
    return ExecutionContext(env, job, part, cfg, quantum=quantum,
                            placement_offset=offset), job


# ---------------------------------------------------------------- partition
def test_partition_invalid_switching():
    env = Environment()
    cfg = ideal_transputer()
    nodes = {i: TransputerNode(env, i, cfg) for i in range(2)}
    with pytest.raises(ValueError, match="unknown switching"):
        Partition(env, 0, nodes, "linear", cfg, switching="carrier-pigeon")


def test_partition_placement_rotation():
    env = Environment()
    part, _ = make_partition(env, 4)
    assert [part.place(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]
    assert [part.place(i, offset=2) for i in range(4)] == [2, 3, 0, 1]


def test_partition_wormhole_switching_builds():
    env = Environment()
    part, _ = make_partition(env, 4, switching="wormhole")
    from repro.comm import WormholeNetwork

    assert isinstance(part.network, WormholeNetwork)


# ------------------------------------------------------------------ context
def test_context_compute_charges_hosting_node():
    env = Environment()
    part, cfg = make_partition(env)
    ctx, job = make_ctx(env, part, cfg)

    def proc(env):
        yield ctx.compute(2, 5e5)  # 0.5s on node 2

    env.process(proc(env))
    env.run()
    assert part.node(2).cpu.stats.low_time == pytest.approx(0.5)
    assert part.node(0).cpu.stats.low_time == 0.0


def test_context_send_recv_scoped_by_job():
    """Two jobs using the same tag never receive each other's messages."""
    env = Environment()
    part, cfg = make_partition(env)
    ctx_a, _ = make_ctx(env, part, cfg)
    ctx_b, _ = make_ctx(env, part, cfg)
    got = {}

    def receiver(env, name, ctx):
        msg = yield ctx.recv(1, tag="data")
        got[name] = msg.payload

    env.process(receiver(env, "a", ctx_a))
    env.process(receiver(env, "b", ctx_b))
    ctx_a.send(0, 1, 100, tag="data", payload="for-a")
    ctx_b.send(0, 1, 100, tag="data", payload="for-b")
    env.run()
    assert got == {"a": "for-a", "b": "for-b"}


def test_context_recv_takes_one_tag_in_arrival_order():
    """Related messages sent under one tag are received oldest first,
    whichever process sent them."""
    env = Environment()
    part, cfg = make_partition(env)
    ctx, _ = make_ctx(env, part, cfg)
    got = []

    def receiver(env):
        for _ in range(2):
            msg = yield ctx.recv(0, tag=("sorted", 0))
            got.append((msg.payload, msg.delivered_at))

    env.process(receiver(env))
    ctx.send(3, 0, 10, tag=("sorted", 0), payload="far")
    ctx.send(1, 0, 10, tag=("sorted", 0), payload="near")
    env.run()
    assert [payload for payload, _ in got] == ["near", "far"]
    assert got[0][1] < got[1][1]


def test_context_release_all_idempotent():
    env = Environment()
    part, cfg = make_partition(env)
    ctx, _ = make_ctx(env, part, cfg)

    def proc(env):
        yield ctx.alloc(0, 1000)
        yield ctx.alloc(1, 2000)

    env.process(proc(env))
    env.run()
    assert part.node(0).memory.in_use == 1000
    ctx.release_all()
    assert part.node(0).memory.in_use == 0
    ctx.release_all()  # second call is harmless
    assert part.node(1).memory.in_use == 0


def test_context_release_all_skips_explicitly_freed():
    env = Environment()
    part, cfg = make_partition(env)
    ctx, _ = make_ctx(env, part, cfg)
    holder = {}

    def proc(env):
        alloc = yield ctx.alloc(0, 500)
        holder["a"] = alloc
        alloc.free()

    env.process(proc(env))
    env.run()
    ctx.release_all()  # must not double-free
    assert part.node(0).memory.in_use == 0


def test_context_quantum_passed_to_cpu():
    env = Environment()
    part, cfg = make_partition(env)
    ctx, job = make_ctx(env, part, cfg, quantum=0.007)
    seen = {}

    def proc(env):
        req = ctx.compute(0, 1e4)
        seen["q"] = req.quantum
        yield req

    env.process(proc(env))
    env.run()
    assert seen["q"] == 0.007


# ----------------------------------------------------------- local scheduler
def test_local_scheduler_accounts_per_job():
    env = Environment()
    part, cfg = make_partition(env)
    sched = part.node(0).local_scheduler
    job_a = Job(MatMulApplication(16), size_class="a")
    job_b = Job(MatMulApplication(16), size_class="b")

    def proc(env):
        yield sched.execute(job_a, 0.3)
        yield sched.execute(job_b, 0.1)

    env.process(proc(env))
    env.run()
    assert sched.job_cpu_time[job_a.job_id] == pytest.approx(0.3)
    assert sched.job_cpu_time[job_b.job_id] == pytest.approx(0.1)
    assert sched.cpu_share(job_a.job_id) == pytest.approx(0.75)
    assert sched.job_dispatches[job_a.job_id] == 1


def test_local_scheduler_share_empty():
    env = Environment()
    part, cfg = make_partition(env)
    sched = part.node(0).local_scheduler
    assert sched.cpu_share(12345) == 0.0
    assert sched.node_id == 0
