"""Golden trajectories of the store-and-forward and wormhole transports.

Each case drives a partition :class:`~repro.comm.Network` directly, or
for the ``wormhole-*`` cases a :class:`~repro.comm.WormholeNetwork`,
whose single-occupancy channels are the models' one use of
:class:`~repro.sim.resources.Resource`.  It serialises what the
transport decides: every message's send and delivery times and hop
count, every directed link's accounting and ready time, every node's
transit-buffer, mailbox-memory and CPU accounting and its share of
forwarded packets and bytes, and the event counts.  Each case runs
twice, with telemetry off and on; the two runs must agree on all of
that, and the telemetry run adds the count and total duration of each
trace category and the time average of every link gauge.  The SHA-256
digest of each document is pinned below, so a change to any hop's
timing, buffer grant, channel grant, forwarding burst or recorded span
fails here.  A speed change to the transport must leave every digest
alone; only a change meant to alter simulated results may re-pin them,
by pasting the output of
``PYTHONPATH=src python tests/test_transport_golden.py`` into
``GOLDEN``.
"""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.comm import Network, WormholeNetwork
from repro.sim import Environment
from repro.topology import make_topology
from repro.transputer import TransputerConfig, TransputerNode
from repro.transputer.cpu import LOW

GOLDEN = {
    "mesh-preempt":
        "b1ea867d6e14027c23a940008aaf3bfdda01c48da1e0c66a775950cd682fb53f",
    "linear-backlog":
        "f99364ea7e8458e4fee31399ee3e11fe654d72b2ff1014ea02562df8ed9b697c",
    "ring-valiant":
        "d89be83f2002db666c420e77e8af6d8186a32f029931fe9161af14c6db4cdc86",
    "self-messages":
        "a5a3e36dd5f35ec80c38350a2c207bbbfe767343da27b5555034cdfd16aca016",
    "wormhole-linear":
        "5246311529703aedcfcdb1f1831b87a6f295f417d8795bc6d54ba6989bc25268",
    "wormhole-mesh":
        "e4d937fa489ec2ccef65de3d7155ba9265df0d65a81090a69771a4ab4a130c5c",
}


def _run(n, topology, traffic, cfg, routing="auto", mailbox_bytes=None,
         low_work=0.0, telemetry=False, network=Network):
    """Send ``traffic`` (``(src, dst, nbytes)`` in send order) at t = 0.

    Every node receives its messages under one tag and, when
    ``low_work`` is set, runs a low-priority burst of that length that
    the forwarding software preempts.
    """
    env = Environment()
    tel = None
    if telemetry:
        from repro.obs.telemetry import attach

        tel = attach(env)
    extra = {} if mailbox_bytes is None else {"mailbox_bytes": mailbox_bytes}
    nodes = {i: TransputerNode(env, i, cfg, **extra) for i in range(n)}
    net = network(env, nodes, make_topology(topology, range(n)), cfg,
                  routing=routing)
    inbound = {i: 0 for i in range(n)}
    for _, dst, _ in traffic:
        inbound[dst] += 1

    def receiver(env, me):
        for _ in range(inbound[me]):
            yield net.recv(me, tag="golden")

    for i in range(n):
        if low_work:
            nodes[i].cpu.execute(low_work, LOW, tag="compute")
        env.process(receiver(env, i))
    sends = [net.send(src, dst, nbytes, tag="golden")
             for src, dst, nbytes in traffic]
    env.run()
    messages = [[done.value.sent_at, done.value.delivered_at,
                 done.value.hops] for done in sends]
    links = [[node.node_id, dst, dataclasses.asdict(link.stats),
              link._ready_at]
             for node in nodes.values() for dst, link in node.links.items()]
    stats = net.stats
    node_docs = [{
        "buffers": dataclasses.asdict(node.buffers.stats),
        "mailbox": dataclasses.asdict(node.mailbox_memory.stats),
        "cpu": dataclasses.asdict(node.cpu.stats),
        "packets": stats.node_packets.get(i),
        "bytes": stats.node_bytes.get(i),
    } for i, node in nodes.items()]
    doc = {
        "messages": messages,
        "links": links,
        "nodes": node_docs,
        "network": [stats.messages_sent, stats.messages_delivered,
                    stats.bytes_sent, stats.packet_hops, stats.total_latency,
                    stats.self_messages, list(stats.node_packets),
                    list(stats.node_bytes)],
        "events": env.events_processed,
        "handoffs": env.handoffs,
    }
    if tel is None:
        return doc
    recorder = tel.recorder
    records = {}
    for category in sorted(recorder.categories()):
        events = recorder.by_category(category)
        records[category] = [
            len(events), math.fsum(e.detail.get("dur", 0.0) for e in events)]
    gauges = {name: gauge.time_average()
              for name, gauge in sorted(tel.metrics.gauges().items())
              if name.startswith("link.")}
    return doc, {"records": records, "link_gauges": gauges,
                 "dropped": recorder.dropped}


def _mesh_preempt():
    # All-to-all on a 4x4 mesh while a long low-priority burst runs on
    # every CPU: each forwarding burst preempts it.
    traffic = [(i, j, 12 * 1024) for i in range(16) for j in range(16)
               if i != j]
    return (16, "mesh", traffic, TransputerConfig()), {"low_work": 0.5}


def _linear_backlog():
    # Every node of a 16-node linear array sends to every node at least
    # two hops away, with one transit buffer per hop class and small
    # mailbox regions: packets queue for buffers, ``_drain`` grants
    # them, and senders wait for mailbox memory.
    traffic = [(i, j, 4 * 1024) for i in range(16) for j in range(16)
               if abs(i - j) > 1]
    cfg = TransputerConfig(context_switch_overhead=0.0, packet_bytes=1024,
                           buffers_per_class=1)
    return (16, "linear", traffic, cfg), {"mailbox_bytes": 16 * 1024}


def _ring_valiant():
    # Valiant's two-phase routing on a 16-node ring: detours up to twice
    # the diameter, so hop classes run up to 15.
    traffic = [(i, (i + k) % 16, 6 * 1024) for k in (1, 3, 8, 13)
               for i in range(16)]
    return (16, "ring", traffic, TransputerConfig()), {"routing": "valiant"}


def _self_messages():
    # Messages from a node to itself (zero bytes, one and several
    # packets) mixed with neighbour traffic, under low-priority bursts
    # and with mailbox regions small enough that some senders wait.
    traffic = []
    for i in range(4):
        for nbytes in (0, 100, 9000, 9000):
            traffic.append((i, i, nbytes))
        traffic.append((i, (i + 1) % 4, 5000))
    return (4, "mesh", traffic, TransputerConfig()), {
        "low_work": 0.05, "mailbox_bytes": 16 * 1024}


def _all_to_all_wormhole(n, topology):
    # All-to-all 6 KB messages, two worms each: worms queue for the
    # single-occupancy channels of busy links while holding the links
    # behind them, so the FIFO order of every channel's waiters decides
    # the delivery times.  (Not a ring: all-to-all wormhole traffic on a
    # ring can deadlock in this model.)
    traffic = [(i, j, 6 * 1024) for i in range(n) for j in range(n)
               if i != j]
    return (n, topology, traffic, TransputerConfig()), {
        "network": WormholeNetwork}


CASES = {
    "mesh-preempt": _mesh_preempt,
    "linear-backlog": _linear_backlog,
    "ring-valiant": _ring_valiant,
    "self-messages": _self_messages,
    "wormhole-linear": lambda: _all_to_all_wormhole(8, "linear"),
    "wormhole-mesh": lambda: _all_to_all_wormhole(16, "mesh"),
}


def _document(name):
    args, kwargs = CASES[name]()
    off = _run(*args, **kwargs)
    on, recorded = _run(*args, telemetry=True, **kwargs)
    # Recording must not perturb the simulation.
    assert on == off
    return {"run": off, "telemetry": recorded}


def digest(doc):
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transport_golden_trajectory(name):
    """The transport document serialises to exactly the pinned digest."""
    assert digest(_document(name)) == GOLDEN[name]


if __name__ == "__main__":
    for name in CASES:
        print(f"    {name!r}:\n        {digest(_document(name))!r},")
