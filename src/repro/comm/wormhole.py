"""Wormhole-switched network variant (ablation E6).

The paper's discussion (Section 5.2) predicts that wormhole routing
would (a) eliminate the buffer demand at intermediate processors and
(b) largely remove the policies' sensitivity to network topology, since
a message's latency becomes nearly distance-insensitive once the
pipeline fills.

Model: a message acquires the links of its route *in path order*; once
the header holds a link it is not released until the whole message has
passed (tail flit), which reproduces wormhole's characteristic channel
blocking.  With the path held, the transfer takes::

    hops * hop_latency + nbytes / bandwidth

— header pipeline latency plus serialisation once.  No transit buffers
and no per-hop mailbox memory are needed; only the destination's
reassembly memory is allocated.  Forwarding software per hop is replaced
by a single receive overhead at the destination, reflecting that
wormhole switching is done in hardware.
"""

from __future__ import annotations

from repro.comm.mailbox import Mailbox
from repro.comm.message import Message
from repro.comm.network import NetworkStats
from repro.sim import Resource
from repro.topology.routing import build_router
from repro.transputer.cpu import HIGH


class WormholeNetwork:
    """Wormhole-switched network over the nodes of one partition."""

    def __init__(self, env, nodes, topology, config, routing="auto"):
        missing = [n for n in topology.nodes if n not in nodes]
        if missing:
            raise ValueError(f"nodes missing from mapping: {missing}")
        self.env = env
        self.config = config
        self.topology = topology
        self.nodes = {n: nodes[n] for n in topology.nodes}
        self.router = build_router(topology, routing)
        self.stats = NetworkStats()
        # Fast-path bindings (observability is attached before the
        # system's components are constructed; see ``system.build``).
        self._tel = env.telemetry
        #: One single-occupancy channel per directed edge.
        self._channels = {}
        for u, v in topology.graph.edges:
            self._channels[(u, v)] = Resource(env, capacity=1)
            self._channels[(v, u)] = Resource(env, capacity=1)
        for node_id in topology.nodes:
            self.nodes[node_id].mailbox = Mailbox(env, self.nodes[node_id])

    def send(self, src, dst, nbytes, tag=None, payload=None,
             src_proc=None, dst_proc=None):
        """Asynchronously send a message; returns the delivery event."""
        for n in (src, dst):
            if n not in self.nodes:
                raise ValueError(f"node {n!r} is not part of this network")
        message = Message(src, dst, nbytes, tag=tag, payload=payload,
                          src_proc=src_proc, dst_proc=dst_proc)
        return self.env.process(
            self._transport(message), name=f"whmsg{message.msg_id}"
        )

    def recv(self, node_id, match=None, tag=None):
        if node_id not in self.nodes:
            raise ValueError(f"node {node_id!r} is not part of this network")
        return self.nodes[node_id].mailbox.recv(match=match, tag=tag)

    def link_utilizations(self, elapsed):
        """Wormhole channels are modelled as resources, not timed links."""
        return {}

    def _transport(self, message):
        env = self.env
        cfg = self.config
        src_node = self.nodes[message.src]
        dst_node = self.nodes[message.dst]
        message.sent_at = env.now
        self.stats.messages_sent += 1
        self.stats.bytes_sent += message.nbytes

        yield src_node.cpu.execute(cfg.message_overhead, HIGH, tag="comm")

        if message.src == message.dst:
            message.hops = 0
            self.stats.self_messages += 1
            alloc = yield dst_node.mailbox_memory.alloc(
                max(message.nbytes, 1), owner=message.job_id
            )
            yield dst_node.cpu.execute(cfg.message_overhead, HIGH, tag="comm")
            self._deliver(message, alloc)
            return message

        path = self.router.path(message.src, message.dst)
        message.hops = len(path) - 1

        # Reassembly memory at the destination, then stream the message
        # as a sequence of worms (one per packet).  Each worm claims the
        # links of its route in path order, holds them from header
        # arrival to tail departure, and releases them; packet-sized
        # worms keep channel-holding times short, as real wormhole
        # implementations do.
        alloc = yield dst_node.mailbox_memory.alloc(
            max(message.nbytes, 1), owner=message.job_id
        )
        remaining = max(message.nbytes, 1)
        while remaining > 0:
            worm = min(remaining, cfg.packet_bytes)
            remaining -= worm
            requests = []
            try:
                for u, v in zip(path, path[1:]):
                    req = self._channels[(u, v)].request()
                    requests.append(req)
                    yield req  # header advances; earlier links stay held
                    yield env.timeout(cfg.wormhole_hop_latency)
                    self.stats.packet_hops += 1
                # Path held end to end: stream the worm's body once.
                yield env.timeout(cfg.transfer_time(worm))
            finally:
                for req in requests:
                    req.cancel()

        # Receive software at the destination only: wormhole switching
        # never copies the body through intermediate nodes' memories.
        yield dst_node.cpu.execute(
            cfg.message_overhead + cfg.copy_time(message.nbytes),
            HIGH, tag="comm",
        )
        self._deliver(message, alloc)
        return message

    def _deliver(self, message, allocation):
        self.stats.messages_delivered += 1
        self.nodes[message.dst].mailbox.deliver(message, allocation)
        self.stats.total_latency += message.delivered_at - message.sent_at
        tel = self._tel
        if tel is not None:
            latency = message.delivered_at - message.sent_at
            tel.metrics.counter("net.messages").inc()
            tel.metrics.counter("net.packet_hops").inc(message.hops)
            tel.metrics.histogram("net.msg_latency").observe(latency)
            # Wormhole holds whole channel paths, not per-hop buffers, so
            # the natural span is the message itself on the source node.
            tel.slice("link.transfer", f"worm{message.src}->{message.dst}",
                      message.sent_at, latency, node=message.src,
                      dst=message.dst, nbytes=message.nbytes, wait=0.0)
            tel.slice("net.msg", f"msg{message.msg_id}",
                      message.sent_at, latency,
                      src=message.src, dst=message.dst,
                      src_proc=message.src_proc, dst_proc=message.dst_proc,
                      job=message.job_id, nbytes=message.nbytes)
