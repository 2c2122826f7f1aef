"""Tests for the store-and-forward mailbox network."""

import pytest

from repro.comm import Channel, ChannelError, Message, Network, WormholeNetwork
from repro.comm.message import fragment
from repro.sim import Environment
from repro.topology import linear_array, make_topology, ring
from repro.transputer import TransputerConfig, TransputerNode


def build(env, n, topo_name="linear", cfg=None, cls=Network):
    cfg = cfg or TransputerConfig(context_switch_overhead=0.0)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(n)}
    topo = make_topology(topo_name, range(n))
    net = cls(env, nodes, topo, cfg)
    return nodes, net


# ----------------------------------------------------------------- message
def test_fragmentation():
    msg = Message(0, 1, 10000)
    pkts = fragment(msg, 4096)
    assert [p.nbytes for p in pkts] == [4096, 4096, 1808]
    assert [p.is_last for p in pkts] == [False, False, True]
    assert pkts[0].index == 0


def test_zero_byte_message_one_packet():
    msg = Message(0, 1, 0)
    pkts = fragment(msg, 4096)
    assert len(pkts) == 1 and pkts[0].is_last


def test_message_latency_unset_until_delivered():
    msg = Message(0, 1, 10)
    assert msg.latency is None


# ----------------------------------------------------------------- network
def test_simple_send_recv():
    env = Environment()
    nodes, net = build(env, 2)
    out = []

    def receiver(env):
        msg = yield net.recv(1, tag="data")
        out.append((msg.payload, env.now))

    env.process(receiver(env))
    net.send(0, 1, 1000, tag="data", payload="hello")
    env.run()
    assert len(out) == 1
    assert out[0][0] == "hello"
    assert out[0][1] > 0  # transfer takes time
    assert net.stats.messages_delivered == 1


def test_multi_hop_latency_grows_with_distance():
    """On a linear array, farther destinations take longer (store-and-
    forward accumulates per-hop costs)."""
    latencies = {}
    for dst in (1, 3):
        env = Environment()
        nodes, net = build(env, 4)
        done = net.send(0, dst, 8000, tag="x")
        msg = env.run(until=done)
        latencies[dst] = msg.latency
        assert msg.hops == dst
    assert latencies[3] > latencies[1]


def test_self_message_pays_software_path():
    env = Environment()
    nodes, net = build(env, 2)
    done = net.send(1, 1, 500, tag="self")
    msg = env.run(until=done)
    assert msg.hops == 0
    assert msg.latency > 0
    assert net.stats.self_messages == 1
    # Mailbox memory is held until receipt.
    assert nodes[1].mailbox_memory.in_use > 0

    def receiver(env):
        yield net.recv(1, tag="self")

    env.process(receiver(env))
    env.run()
    assert nodes[1].mailbox_memory.in_use == 0


def test_mailbox_memory_freed_after_recv():
    env = Environment()
    nodes, net = build(env, 3)

    def receiver(env):
        yield net.recv(2, tag="m")

    env.process(receiver(env))
    net.send(0, 2, 6000, tag="m")
    env.run()
    assert nodes[2].mailbox_memory.in_use == 0
    assert nodes[2].mailbox.received == 1


def test_transit_buffers_all_released():
    env = Environment()
    nodes, net = build(env, 4, "linear")

    def receiver(env):
        yield net.recv(3, tag="m")

    env.process(receiver(env))
    net.send(0, 3, 20000, tag="m")
    env.run()
    for node in nodes.values():
        assert node.buffers.free_count() == (
            node.buffers.num_classes * node.buffers._capacity_per_class
        )


def test_messages_with_same_tag_fifo_per_receiver():
    env = Environment()
    nodes, net = build(env, 2)
    got = []

    def receiver(env):
        for _ in range(3):
            msg = yield net.recv(1, tag="seq")
            got.append(msg.payload)

    env.process(receiver(env))
    for i in range(3):
        net.send(0, 1, 100, tag="seq", payload=i)
    env.run()
    assert got == [0, 1, 2]


def test_recv_takes_only_its_tag():
    env = Environment()
    nodes, net = build(env, 2)
    got = []

    def receiver(env):
        msg = yield net.recv(1, tag=("job", 7))
        got.append(msg.tag)

    env.process(receiver(env))
    net.send(0, 1, 10, tag=("job", 3))
    net.send(0, 1, 10, tag=("job", 7))
    env.run(until=2.0)
    assert got == [("job", 7)]
    assert len(nodes[1].mailbox) == 1  # ("job", 3) still waits


def test_send_to_non_member_rejected():
    env = Environment()
    nodes, net = build(env, 2)
    with pytest.raises(ValueError, match="not part"):
        net.send(0, 9, 10)
    with pytest.raises(ValueError, match="not part"):
        net.recv(9, "x")


def test_route_over_missing_link_fails_at_the_send():
    """A message walker resolves its route's links once, so a route over
    a missing link raises ``link_to``'s error before any packet moves:
    no mailbox reserved, no transit buffer granted, no link crossed."""
    env = Environment()
    nodes, net = build(env, 4, "linear")
    del nodes[1].links[2]
    net.send(0, 3, 9000, tag="m")
    with pytest.raises(ValueError, match="node 1 has no link to 2"):
        env.run()
    assert nodes[3].mailbox_memory.stats.total_allocs == 0
    for node in nodes.values():
        assert node.buffers.stats.grants == 0
        assert all(link.stats.transfers == 0
                   for link in node.links.values())


def test_walkers_need_no_cyclic_gc():
    """Message and packet walkers keep no bound method of their own, so
    reference counting frees each one once its last event is processed:
    with the cyclic collector off, none is left after the run."""
    import gc

    from repro.comm.network import _MessageWalker, _PacketWalker

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        nodes, net = build(env, 4, "linear")

        def receiver(env, me, count):
            for _ in range(count):
                yield net.recv(me, tag="m")

        for src, dst in ((0, 3), (3, 0), (1, 1), (2, 1)):
            net.send(src, dst, 9000, tag="m")
        for me, count in ((0, 1), (1, 2), (3, 1)):
            env.process(receiver(env, me, count))
        env.run()
        assert net.stats.messages_delivered == 4
        left = [o for o in gc.get_objects()
                if isinstance(o, (_MessageWalker, _PacketWalker))]
    finally:
        gc.enable()
    assert not left


def test_ring_all_to_all_no_deadlock():
    """Saturating burst on a ring: the structured hop-class pool must
    prevent store-and-forward deadlock."""
    env = Environment()
    cfg = TransputerConfig(context_switch_overhead=0.0, buffers_per_class=1)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(8)}
    net = Network(env, nodes, ring(range(8)), cfg)
    n_msgs = 0

    def receiver(env, node, count):
        for _ in range(count):
            yield net.recv(node, tag="blast")

    for src in range(8):
        for dst in range(8):
            if src != dst:
                net.send(src, dst, 12000, tag="blast")
                n_msgs += 1
    for node in range(8):
        env.process(receiver(env, node, 7))
    env.run()
    assert net.stats.messages_delivered == n_msgs
    for node in nodes.values():
        assert node.mailbox_memory.in_use == 0
        assert node.buffers.free_count() == (
            node.buffers.num_classes * node.buffers._capacity_per_class
        )


def test_link_contention_slows_delivery():
    """Ten concurrent messages over one link take longer than one."""
    def run(n_msgs):
        env = Environment()
        nodes, net = build(env, 2)
        dones = [net.send(0, 1, 50000, tag=i) for i in range(n_msgs)]

        def receiver(env):
            for i in range(n_msgs):
                yield net.recv(1, tag=i)

        env.process(receiver(env))
        env.run()
        return env.now

    assert run(10) > 5 * run(1)


def test_forwarding_charges_cpu_on_intermediates():
    env = Environment()
    nodes, net = build(env, 3, "linear")

    def receiver(env):
        yield net.recv(2, tag="m")

    env.process(receiver(env))
    net.send(0, 2, 8000, tag="m")
    env.run()
    assert nodes[1].cpu.stats.high_time > 0


# ---------------------------------------------------------------- wormhole
def test_wormhole_delivers():
    env = Environment()
    nodes, net = build(env, 4, "linear", cls=WormholeNetwork)
    done = net.send(0, 3, 8000, tag="w")

    def receiver(env):
        yield net.recv(3, tag="w")

    env.process(receiver(env))
    msg = env.run(until=done)
    assert msg.hops == 3
    env.run()
    assert nodes[3].mailbox_memory.in_use == 0


def test_wormhole_distance_insensitive_vs_store_forward():
    """Wormhole latency grows far more slowly with distance than
    store-and-forward — the paper's Section 5.2 prediction."""
    def latency(cls, dst):
        env = Environment()
        nodes, net = build(env, 8, "linear", cls=cls)
        done = net.send(0, dst, 32000)
        msg = env.run(until=done)
        return msg.latency

    sf_ratio = latency(Network, 7) / latency(Network, 1)
    wh_ratio = latency(WormholeNetwork, 7) / latency(WormholeNetwork, 1)
    assert wh_ratio < sf_ratio
    assert wh_ratio < 1.5  # nearly distance-insensitive


def test_wormhole_channel_blocking():
    """Two wormhole messages sharing a link serialise."""
    env = Environment()
    nodes, net = build(env, 3, "linear", cls=WormholeNetwork)
    d1 = net.send(0, 2, 100000, tag="a")
    d2 = net.send(0, 2, 100000, tag="b")

    def receiver(env):
        yield net.recv(2, tag="a")
        yield net.recv(2, tag="b")

    env.process(receiver(env))
    env.run()
    m1, m2 = d1.value, d2.value
    assert abs(m2.delivered_at - m1.delivered_at) >= 0.9 * (
        100000 / TransputerConfig().link_bandwidth
    )


# ----------------------------------------------------------------- channel
def test_channel_rendezvous():
    env = Environment()
    cfg = TransputerConfig(context_switch_overhead=0.0)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(2)}
    net = Network(env, nodes, linear_array(range(2)), cfg)
    chan = Channel(env, nodes[0], nodes[1], cfg)
    log = []

    def sender(env):
        yield chan.send(1000, payload="ping")
        log.append(("sent", env.now))

    def receiver(env):
        yield env.timeout(5)
        value = yield chan.recv()
        log.append(("recv", value, env.now))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert log[0][0] == "sent"
    assert log[1][:2] == ("recv", "ping")
    assert log[0][1] == log[1][2] > 5  # rendezvous completes together


def test_channel_requires_adjacency():
    env = Environment()
    cfg = TransputerConfig()
    nodes = {i: TransputerNode(env, i, cfg) for i in range(3)}
    Network(env, nodes, linear_array(range(3)), cfg)
    with pytest.raises(ChannelError):
        Channel(env, nodes[0], nodes[2], cfg)
