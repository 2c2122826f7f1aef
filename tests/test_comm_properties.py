"""Property-based tests for the communication subsystem.

Random traffic over random topologies must always satisfy the transport
invariants: every message delivered exactly once, to the right node,
with non-negative latency; all transit buffers and mailbox memory
returned; byte counts conserved.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network, WormholeNetwork
from repro.sim import Environment
from repro.topology import hypercube, linear_array, make_topology, mesh, ring
from repro.transputer import TransputerConfig, TransputerNode


TOPOLOGY_MAKERS = {
    "linear": linear_array,
    "ring": ring,
    "mesh": mesh,
}


@st.composite
def traffic_patterns(draw):
    n = draw(st.sampled_from([2, 4, 8]))
    topo_name = draw(st.sampled_from(sorted(TOPOLOGY_MAKERS)))
    messages = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),   # src
            st.integers(min_value=0, max_value=n - 1),   # dst (self ok)
            st.integers(min_value=1, max_value=30_000),  # bytes
            st.floats(min_value=0.0, max_value=0.01),    # send delay
        ),
        min_size=1, max_size=25,
    ))
    return n, topo_name, messages


def run_traffic(n, topo_name, messages, network_cls=Network):
    env = Environment()
    cfg = TransputerConfig(context_switch_overhead=0.0)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(n)}
    topo = TOPOLOGY_MAKERS[topo_name](range(n))
    net = network_cls(env, nodes, topo, cfg)
    delivered = []

    def sender(env, src, dst, nbytes, delay, idx):
        yield env.timeout(delay)
        net.send(src, dst, nbytes, tag=("t", idx), payload=idx)

    def receiver(env, dst, idx):
        msg = yield net.recv(dst, tag=("t", idx))
        delivered.append((idx, msg))

    for idx, (src, dst, nbytes, delay) in enumerate(messages):
        env.process(sender(env, src, dst, nbytes, delay, idx))
        env.process(receiver(env, dst, idx))
    env.run()
    return net, nodes, delivered


@given(traffic_patterns())
@settings(max_examples=40, deadline=None)
def test_property_store_forward_transport_invariants(pattern):
    n, topo_name, messages = pattern
    net, nodes, delivered = run_traffic(n, topo_name, messages)

    # Exactly-once delivery to the right node.
    assert len(delivered) == len(messages)
    for idx, msg in delivered:
        src, dst, nbytes, _ = messages[idx]
        assert msg.src == src and msg.dst == dst
        assert msg.nbytes == nbytes
        assert msg.latency is not None and msg.latency >= 0
        assert msg.payload == idx

    # Byte accounting.
    assert net.stats.bytes_sent == sum(m[2] for m in messages)
    assert net.stats.messages_delivered == len(messages)

    # Everything returned: buffers, mailbox memory, mailboxes empty.
    for node in nodes.values():
        cap = node.buffers.num_classes * node.buffers._capacity_per_class
        assert node.buffers.free_count() == cap
        assert node.mailbox_memory.in_use == 0
        assert len(node.mailbox) == 0


@given(traffic_patterns())
@settings(max_examples=20, deadline=None)
def test_property_wormhole_transport_invariants(pattern):
    n, topo_name, messages = pattern
    if topo_name == "ring" and n > 2:
        # Wormhole without virtual channels can deadlock on rings; the
        # model documents this limitation, so skip that combination.
        topo_name = "linear"
    net, nodes, delivered = run_traffic(n, topo_name, messages,
                                        network_cls=WormholeNetwork)
    assert len(delivered) == len(messages)
    for node in nodes.values():
        assert node.mailbox_memory.in_use == 0


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=50_000))
@settings(max_examples=30, deadline=None)
def test_property_latency_monotone_in_distance(n, nbytes):
    """On an uncontended linear array, farther destinations never have
    lower latency (store-and-forward accumulates per-hop cost)."""
    latencies = []
    for dst in range(1, n):
        env = Environment()
        cfg = TransputerConfig(context_switch_overhead=0.0)
        nodes = {i: TransputerNode(env, i, cfg) for i in range(n)}
        net = Network(env, nodes, linear_array(range(n)), cfg)
        done = net.send(0, dst, nbytes, tag="x")
        msg = env.run(until=done)
        latencies.append(msg.latency)
    assert all(a <= b + 1e-12 for a, b in zip(latencies, latencies[1:]))


def test_hypercube_traffic_all_pairs_heavy():
    """Deterministic stress: every pair exchanges a large message on an
    8-node hypercube; everything must drain."""
    env = Environment()
    cfg = TransputerConfig(context_switch_overhead=0.0, buffers_per_class=1)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(8)}
    net = Network(env, nodes, hypercube(range(8)), cfg)
    count = 0

    def receiver(env, node):
        yield env.all_of([net.recv(node, tag=("p", src, node))
                          for src in range(8) if src != node])

    for src in range(8):
        for dst in range(8):
            if src != dst:
                net.send(src, dst, 40_000, tag=("p", src, dst))
                count += 1
    for node in range(8):
        env.process(receiver(env, node))
    env.run()
    assert net.stats.messages_delivered == count
    for node in nodes.values():
        assert node.mailbox_memory.in_use == 0
