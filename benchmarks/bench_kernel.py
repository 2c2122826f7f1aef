"""Micro-benchmarks of the simulation substrate itself.

Not a paper artefact — these track the event-processing throughput of
the DES kernel and the cost of a full system build, so performance
regressions in the substrate are visible independently of the
experiment harness.  Each scenario runs bare, asserts its exact
``env.events_processed`` (fixed by the model: a change to it is a
behaviour change, not a speed change) and prints its rate from a
``time.perf_counter`` pair.
"""

import time

from repro.comm import Network
from repro.core import MulticomputerSystem, SystemConfig, TimeSharing
from repro.obs import attach, attach_ledger
from repro.sim import Environment, FilterStore
from repro.topology import make_topology
from repro.transputer import HIGH, LOW, Cpu, TransputerConfig, TransputerNode
from repro.workload import standard_batch


def test_kernel_event_throughput(benchmark):
    """Ping-pong timeouts: raw events per second of the kernel.

    One process yields 20,000 timeouts: each is one agenda entry, plus
    the process's initialisation and its completion.
    """
    EVENTS = 20_002

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(20_000):
                yield env.timeout(1)

        env.process(ticker(env))
        start = time.perf_counter()
        env.run()
        return env, time.perf_counter() - start

    env, seconds = benchmark(run)
    assert env.events_processed == EVENTS
    print(f"\nkernel: {EVENTS / seconds:,.0f} events/s, "
          f"{EVENTS} events, {env.handoffs} handoffs")


def test_store_churn(benchmark):
    """Keyed FilterStore under churn: the model-layer matching hot path.

    Producers and consumers churn through hot tags *past a standing
    backlog* of messages whose tags nobody is currently receiving —
    the mailbox pathology the issue profile showed: every legacy
    ``get`` rescans the whole backlog before finding its match, so the
    scan cost is O(backlog) per receive where the per-key index pays
    O(1).  The backlog is drained at the end so the run still
    terminates with an empty store (GUIDE §16).
    """
    TAGS = 16
    ROUNDS = 1_500
    BACKLOG = 512
    EVENTS = 73_091

    def run():
        env = Environment()
        store = FilterStore(env, key=lambda item: item[0])
        # Standing backlog under tags no consumer asks for until the
        # drain phase: replies parked in a mailbox while the receiver
        # works through other traffic.
        for i in range(BACKLOG):
            store.put((("cold", i % TAGS), i))

        def producer(env, tag):
            for i in range(ROUNDS):
                yield store.put((tag, i))
                yield env.timeout(1)

        def consumer(env, tag):
            for _ in range(ROUNDS):
                yield store.get(key=tag)

        def drainer(env):
            yield env.timeout(ROUNDS + 1)
            for i in range(BACKLOG):
                yield store.get(key=("cold", i % TAGS))

        for tag in range(TAGS):
            env.process(producer(env, tag))
            # Consumers wait on a different tag's producer cadence, so
            # gets routinely outpace their puts and park.
            env.process(consumer(env, (tag * 7 + 3) % TAGS))
        env.process(drainer(env))
        start = time.perf_counter()
        env.run()
        assert len(store) == 0
        return env, time.perf_counter() - start

    env, seconds = benchmark(run)
    assert env.events_processed == EVENTS
    print(f"\nstore_churn: {EVENTS / seconds:,.0f} events/s, "
          f"{EVENTS} events, {env.handoffs} handoffs")


def test_mailbox_pingpong(benchmark):
    """Mailbox round-trips over the network: tag matching + transport.

    Pairs of nodes bounce a message back and forth through the full
    store-and-forward stack (send software, link crossings, mailbox
    memory, tagged receive).  Exercises the keyed mailbox index and the
    flattened message/packet walkers together.
    """
    PAIRS = 4
    ROUNDS = 400
    EVENTS = 48_024

    def run():
        env = Environment()
        cfg = TransputerConfig(context_switch_overhead=0.0)
        n = 2 * PAIRS
        nodes = {i: TransputerNode(env, i, cfg) for i in range(n)}
        net = Network(env, nodes, make_topology("ring", range(n)), cfg)

        def pinger(env, me, peer):
            for i in range(ROUNDS):
                net.send(me, peer, 256, tag="ping", payload=i)
                yield net.recv(me, tag="pong")

        def ponger(env, me, peer):
            for _ in range(ROUNDS):
                yield net.recv(me, tag="ping")
                net.send(me, peer, 256, tag="pong")

        for p in range(PAIRS):
            a, b = 2 * p, 2 * p + 1
            env.process(pinger(env, a, b))
            env.process(ponger(env, b, a))
        start = time.perf_counter()
        env.run()
        return env, net, time.perf_counter() - start

    env, net, seconds = benchmark(run)
    assert env.events_processed == EVENTS
    assert net.stats.messages_sent == 2 * PAIRS * ROUNDS
    print(f"\nmailbox_pingpong: {EVENTS / seconds:,.0f} events/s, "
          f"{EVENTS} events, {env.handoffs} handoffs")


def test_buffer_pool_backlog(benchmark):
    """Store-and-forward transit buffers under a standing backlog.

    Every node of a 16-node linear array sends one multi-packet message
    to every node at least two hops away, all at once.  Large mailbox
    regions let nearly all of that traffic into the network together,
    so transit-buffer queues at the inner nodes hold hundreds of
    packets of many hop classes — the 16L time-sharing cells' hot spot,
    condensed.  The hop-class index grants in O(classes) per acquire and
    release.  A single waiter queue rescanned on every call pays
    O(waiters) instead and runs this scenario about ten times slower, so
    a regression to it shows as an order-of-magnitude drop (GUIDE §16).
    The event count is fixed by the model; a change to it is a
    behaviour change, not a speed change.
    """
    N = 16
    MESSAGE_BYTES = 32 * 1024
    MAILBOX_BYTES = 2 * 1024 * 1024
    CHECKPOINT = 1.0  # simulated seconds: the backlog is standing
    EVENTS = 200_919

    def peers(me):
        return [p for p in range(N) if abs(p - me) > 1]

    def run():
        env = Environment()
        cfg = TransputerConfig(context_switch_overhead=0.0,
                               packet_bytes=1024)
        nodes = {i: TransputerNode(env, i, cfg, mailbox_bytes=MAILBOX_BYTES)
                 for i in range(N)}
        net = Network(env, nodes, make_topology("linear", range(N)), cfg)

        def receiver(env, me):
            for _ in peers(me):
                yield net.recv(me, tag="bulk")

        for i in range(N):
            for peer in peers(i):
                net.send(i, peer, MESSAGE_BYTES, tag="bulk")
            env.process(receiver(env, i))
        start = time.perf_counter()
        env.run(until=CHECKPOINT)
        depth = max(node.buffers.queue_length for node in nodes.values())
        env.run()
        seconds = time.perf_counter() - start
        assert sum(len(node.mailbox) for node in nodes.values()) == 0
        return env, net, depth, seconds

    env, net, depth, seconds = benchmark(run)
    assert env.events_processed == EVENTS
    assert depth >= 200
    assert net.stats.messages_sent == sum(len(peers(i)) for i in range(N))
    print(f"\nbuffer_pool_backlog: {EVENTS / seconds:,.0f} events/s, "
          f"{EVENTS} events, deepest transit queue {depth}")


def test_cpu_round_robin(benchmark):
    """Round-robin time slicing: the CPU dispatch path.

    Each of 16 CPUs holds 16 long low-priority bursts at the default
    25 us context switch and 2 ms quantum, so every quantum costs two
    agenda events (switch, slice) and two continuations of the CPU's
    dispatch machine.  Every 10 ms a 100 us high-priority burst arrives
    on each CPU and preempts the running slice, so the interrupt path
    (abandoned slice timer, credited partial slice) runs too.  The event
    count is fixed by the model; a change to it is a behaviour change,
    not a speed change (GUIDE §16).
    """
    CPUS = 16
    BURSTS = 16
    LOW_WORK = 0.1
    HIGH_PERIOD = 0.01
    HIGH_WORK = 1e-4
    HIGH_BURSTS = 150
    EVENTS = 38_928

    def run():
        env = Environment()
        cfg = TransputerConfig()
        cpus = [Cpu(env, cfg, node_id=i) for i in range(CPUS)]
        for cpu in cpus:
            for tag in range(BURSTS):
                cpu.execute(LOW_WORK, LOW, tag=tag)

        def high_source(env, cpu):
            for _ in range(HIGH_BURSTS):
                yield env.timeout(HIGH_PERIOD)
                cpu.execute(HIGH_WORK, HIGH)

        for cpu in cpus:
            env.process(high_source(env, cpu))
        start = time.perf_counter()
        env.run()
        return env, cpus, time.perf_counter() - start

    env, cpus, seconds = benchmark(run)
    assert env.events_processed == EVENTS
    for cpu in cpus:
        assert cpu.stats.completed == BURSTS + HIGH_BURSTS
        assert cpu.stats.preemptions > 0
    print(f"\ncpu_round_robin: {EVENTS / seconds:,.0f} events/s, "
          f"{sum(c.stats.dispatches for c in cpus)} dispatches, "
          f"{sum(c.stats.preemptions for c in cpus)} preemptions")


def test_observed_transport(benchmark):
    """Store-and-forward transport with telemetry and the ledger on.

    Every node of a 4x4 mesh sends a 32 KB message to every other node
    while a long low-priority burst runs on each CPU.  Each packet hop
    records a link transfer and two link gauge samples, each forwarding
    burst a CPU slice that preempts the low burst (a preemption, a
    requeue wait and the ledger's slice tallies), queued packets and
    senders record buffer and mailbox waits, and each message a
    ``net.msg`` span: the record mix of the instrumented figure runs,
    condensed, so this times the recording path (GUIDE §9).  Event and
    record counts are fixed by the model; a change to either is a
    behaviour change, not a speed change.
    """
    N = 16
    MESSAGE_BYTES = 32 * 1024
    LOW_WORK = 0.5
    EVENTS = 33_234
    RECORDS = 16_320

    def run():
        env = Environment()
        tel = attach(env)
        attach_ledger(env, telemetry=tel)
        cfg = TransputerConfig()
        nodes = {i: TransputerNode(env, i, cfg) for i in range(N)}
        net = Network(env, nodes, make_topology("mesh", range(N)), cfg)

        def receiver(env, me):
            for _ in range(N - 1):
                yield net.recv(me, tag="all")

        for i in range(N):
            nodes[i].cpu.execute(LOW_WORK, LOW, tag="compute")
            for peer in range(N):
                if peer != i:
                    net.send(i, peer, MESSAGE_BYTES, tag="all")
            env.process(receiver(env, i))
        start = time.perf_counter()
        env.run()
        return env, tel, time.perf_counter() - start

    env, tel, seconds = benchmark(run)
    records = len(tel.recorder) + tel.recorder.dropped
    assert env.events_processed == EVENTS
    assert records == RECORDS
    assert tel.recorder.categories()["cpu.preempt"] > 0
    print(f"\nobserved_transport: {records / seconds:,.0f} "
          f"records/s, {records} records, {EVENTS} events")


def test_open_stream_jobs(benchmark):
    """Open-system job lifecycles: the per-job host cost.

    A fixed-seed Poisson stream of one-process synthetic jobs at
    offered load 0.85 on four single-node static partitions, streamed
    through a ``SteadyStateSink``: ``perfbench``'s static
    ``open_stream`` cell, shortened.  A job needs only seven events, so
    the host time goes to arrival, the three scheduler tiers, the job
    body, completion and the sink rather than to the event loop
    (GUIDE §16, "What a job costs").  The event count is fixed by the
    model; a change to it is a behaviour change, not a speed change.
    """
    import numpy as np

    from repro.core import StaticSpaceSharing
    from repro.obs.streaming import SteadyStateSink
    from repro.workload import JobSpec, SyntheticForkJoin, poisson_arrivals

    MEAN_OPS = 1.65e5            # 0.5 s on one node
    RATE = 0.85 * 4 * 3.3e5 / MEAN_OPS
    DURATION = 400.0
    SEED = 2026
    JOBS = 2_622
    EVENTS = 18_361

    def factory(rng):
        ops = max(float(rng.exponential(MEAN_OPS)), 1.0)
        return JobSpec(SyntheticForkJoin(ops, architecture="adaptive",
                                         message_bytes=64), "exp")

    def run():
        rng = np.random.default_rng(SEED)
        system = MulticomputerSystem(
            SystemConfig(num_nodes=4, topology="mesh"),
            StaticSpaceSharing(1))
        start = time.perf_counter()
        result = system.run_open(
            poisson_arrivals(RATE, DURATION, factory, rng),
            collect_jobs=False,
            sink=SteadyStateSink(window=DURATION / 50.0))
        return result, system.env, time.perf_counter() - start

    result, env, seconds = benchmark(run)
    assert result.jobs_completed == result.jobs_arrived == JOBS
    assert env.events_processed == EVENTS
    print(f"\nopen_stream_jobs: {JOBS / seconds:,.0f} jobs/s, "
          f"{EVENTS} events, {env.handoffs} handoffs")


def test_system_build_cost(benchmark):
    """Time to assemble 16 nodes + partitions + schedulers."""

    def build():
        cfg = SystemConfig(num_nodes=16, topology="mesh")
        return MulticomputerSystem(cfg, TimeSharing()).build()

    system = benchmark(build)
    assert len(system.nodes) == 16


def test_small_batch_simulation_cost(benchmark):
    """A complete miniature batch: end-to-end simulator throughput."""
    batch = standard_batch("matmul", num_small=3, num_large=1,
                           small_size=24, large_size=48)

    def run():
        cfg = SystemConfig(num_nodes=16, topology="mesh")
        return MulticomputerSystem(cfg, TimeSharing()).run_batch(batch)

    result = benchmark(run)
    assert result.mean_response_time > 0
