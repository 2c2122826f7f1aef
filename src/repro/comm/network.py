"""The store-and-forward interconnection network of one partition.

Each partition of the machine is configured as its own topology (the
paper's ``8L`` label means two partitions, each an 8-node linear array),
so a :class:`Network` instance wires exactly one partition: it attaches
a pair of unidirectional links per topology edge, builds the routing
function, installs a mailbox on every node, and implements message
transport:

1. the sender pays a fixed software overhead (high-priority CPU work);
2. the message fragments into packets which pipeline along the route;
3. before a packet crosses a link, a transit buffer must be acquired at
   the receiving node (structured hop-class pool — deadlock-free); on
   the final hop, reassembly memory is allocated from the destination's
   mailbox MMU region instead;
4. every arrival charges per-packet forwarding software to the receiving
   node's high-priority CPU queue;
5. when the last packet arrives the message is delivered to the
   destination mailbox; its reassembly memory is freed when a process
   receives it.

A message from a node to itself skips the links but still pays the
software overheads and mailbox memory — the paper calls this out as a
real cost of the fixed software architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.mailbox import Mailbox
from repro.comm.message import Message, fragment
from repro.sim.events import AllOf, Event
from repro.topology.routing import build_router
from repro.transputer.cpu import HIGH
from repro.transputer.link import Link
from repro.transputer.memory import BufferPool

#: Detail keys of the network probe's trace records.
_TRANSFER_KEYS = ("dur", "node", "dst", "nbytes", "wait")
_MSG_KEYS = ("dur", "src", "dst", "src_proc", "dst_proc", "job", "nbytes")


@dataclass
class NetworkStats:
    """Aggregate transport statistics for one partition network."""

    messages_sent: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    packet_hops: int = 0
    total_latency: float = 0.0
    self_messages: int = 0
    #: Packets handled (received or forwarded) per node — the hotspot map.
    node_packets: dict = field(default_factory=dict)
    #: Bytes handled per node.
    node_bytes: dict = field(default_factory=dict)

    def hotspot(self):
        """(node_id, packets) of the busiest forwarding node, or None."""
        if not self.node_packets:
            return None
        node = max(self.node_packets, key=self.node_packets.get)
        return node, self.node_packets[node]

    @property
    def mean_latency(self):
        if not self.messages_delivered:
            return 0.0
        return self.total_latency / self.messages_delivered


class Network:
    """Store-and-forward network over the nodes of one partition."""

    def __init__(self, env, nodes, topology, config, routing="auto"):
        """
        Parameters
        ----------
        env: simulation environment.
        nodes: mapping node_id -> TransputerNode covering topology.nodes.
        topology: a :class:`~repro.topology.topologies.Topology`.
        config: the shared :class:`TransputerConfig`.
        routing: "auto" (structured router where available) or "bfs".
        """
        missing = [n for n in topology.nodes if n not in nodes]
        if missing:
            raise ValueError(f"nodes missing from mapping: {missing}")
        self.env = env
        self.config = config
        self.topology = topology
        self.nodes = {n: nodes[n] for n in topology.nodes}
        self.router = build_router(topology, routing)
        self.stats = NetworkStats()

        diameter = topology.graph.diameter() if len(topology.nodes) > 1 else 0
        # Hop classes 0 .. max_hops-1 are enough: a packet that has made
        # `max_hops` hops is at its destination and uses mailbox memory.
        # Valiant routing detours through an intermediate, so its paths
        # reach up to twice the diameter.
        max_hops = diameter * (2 if routing == "valiant" else 1)
        num_classes = max(1, max_hops)
        for node_id in topology.nodes:
            node = self.nodes[node_id]
            node.buffers = BufferPool(
                env,
                num_classes=num_classes,
                buffers_per_class=config.buffers_per_class,
                buffer_bytes=config.packet_bytes,
                node_id=node_id,
            )
            node.mailbox = Mailbox(env, node)
            node.links = {}
        for u, v in topology.graph.edges:
            self.nodes[u].links[v] = Link(
                env, u, v, config.link_bandwidth, config.link_startup
            )
            self.nodes[v].links[u] = Link(
                env, v, u, config.link_bandwidth, config.link_startup
            )
        # Observability is attached to the environment before the
        # system's components are constructed (see ``system.build``), so
        # one binding here replaces a per-packet-hop ``env.telemetry``
        # attribute chain.
        tel = env.telemetry
        self._probe = (_NetworkProbe(env, tel, self.nodes.values())
                       if tel is not None else None)

    # -- public API -----------------------------------------------------
    def send(self, src, dst, nbytes, tag=None, payload=None,
             src_proc=None, dst_proc=None):
        """Asynchronously send a message; returns the delivery event.

        The event's value is the :class:`Message` (with timing fields
        filled in).  The caller need not wait on it — mailbox receive on
        the destination is the usual synchronisation point.
        ``src_proc``/``dst_proc`` carry the job-local process indices of
        the endpoints for telemetry attribution.
        """
        nodes = self.nodes
        if src not in nodes:
            raise self._not_member(src)
        if dst not in nodes:
            raise self._not_member(dst)
        message = Message(src, dst, nbytes, tag=tag, payload=payload,
                          src_proc=src_proc, dst_proc=dst_proc)
        return _MessageWalker(self, message).done

    def recv(self, node_id, tag):
        """Receive a message at ``node_id`` (see :meth:`Mailbox.recv`)."""
        if node_id not in self.nodes:
            raise self._not_member(node_id)
        return self.nodes[node_id].mailbox.recv(tag)

    def link_utilizations(self, elapsed):
        """Per-link utilisation mapping {(src, dst): fraction}."""
        out = {}
        for node in self.nodes.values():
            for dst, link in node.links.items():
                out[(link.src, dst)] = link.stats.utilization(elapsed)
        return out

    # -- internals ------------------------------------------------------
    def _not_member(self, node_id):
        return ValueError(
            f"node {node_id!r} is not part of this partition network "
            f"(members: {list(self.nodes)})"
        )

    def _deliver(self, message, allocation):
        self.stats.messages_delivered += 1
        self.nodes[message.dst].mailbox.deliver(message, allocation)
        self.stats.total_latency += message.delivered_at - message.sent_at
        if self._probe is not None:
            self._probe.deliver(message)


class _LinkTrack:
    """One directed link's trace subject and gauges (bound on first use)."""

    __slots__ = ("src", "dst", "subject", "backlog_name", "busy_name",
                 "backlog", "busy")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.subject = f"link{src}->{dst}"
        self.backlog_name = f"link.backlog.node{src}->{dst}"
        self.busy_name = f"link.busy.node{src}->{dst}"
        self.backlog = None
        self.busy = None


class _NetworkProbe:
    """A partition network's recording state; ``None`` when telemetry is off.

    Per-link names are built once, when the network is wired.  Every
    instrument handle is bound on its first use, never at construction:
    a gauge's time average and first series point start when it is
    created, and an instrument that never records must not appear in
    the metrics export.
    """

    __slots__ = ("env", "append", "metrics", "links", "_messages",
                 "_latency", "_packet_hops")

    def __init__(self, env, tel, nodes):
        self.env = env
        self.append = tel.recorder.append
        self.metrics = tel.metrics
        self.links = {link: _LinkTrack(link.src, link.dst)
                      for node in nodes for link in node.links.values()}
        self._messages = None
        self._latency = None
        self._packet_hops = None

    def transfer(self, link, nbytes):
        """A packet entering ``link``: its span and the link's gauges."""
        track = self.links[link]
        wait = link.backlog
        service = link.startup + nbytes / link.bandwidth
        self.append(self.env._now + wait, "link.transfer", track.subject,
                    _TRANSFER_KEYS, service, track.src, track.dst, nbytes,
                    wait)
        metrics = self.metrics
        hops = self._packet_hops
        if hops is None:
            hops = self._packet_hops = metrics.counter("net.packet_hops")
        hops.inc()
        backlog = track.backlog
        if backlog is None:
            backlog = track.backlog = metrics.gauge(track.backlog_name)
        backlog.set(wait + service)
        busy = track.busy
        if busy is None:
            busy = track.busy = metrics.gauge(track.busy_name)
        busy.set(link.stats.busy_time + service)

    def deliver(self, message):
        """A delivered message: its count, latency and span."""
        latency = message.delivered_at - message.sent_at
        metrics = self.metrics
        messages = self._messages
        if messages is None:
            messages = self._messages = metrics.counter("net.messages")
        messages.inc()
        hist = self._latency
        if hist is None:
            hist = self._latency = metrics.histogram("net.msg_latency")
        hist.observe(latency)
        # One interval per message for the causal profiler: which job
        # was in flight, between which of its processes.
        self.append(message.sent_at, "net.msg", f"msg{message.msg_id}",
                    _MSG_KEYS, latency, message.src, message.dst,
                    message.src_proc, message.dst_proc, message.job_id,
                    message.nbytes)


class _MessageWalker:
    """Drive one message's transport as a callback state machine.

    The successor of the old per-message ``_transport`` generator
    process, in the same style as :class:`_PacketWalker`: each
    continuation mirrors one of the generator's ``yield`` points
    exactly — same events created at the same execution points — so the
    simulated trajectory is byte-identical, but a message costs no
    :class:`~repro.sim.events.Process` bookkeeping and no generator
    suspensions.  ``done`` stands in for the old transport Process's
    completion event: it triggers with the message after delivery (via
    the environment's direct handoff when ordering permits) or fails
    with the first awaited event's failure.

    Once the route is known the walker resolves, hop by hop, the link
    the packets cross, the transit-buffer pool they wait on (``None``
    where a hop lands on the destination: the packet goes straight
    into the reserved reassembly region) and the CPU that runs the
    forwarding software.  Every packet walker shares these lists, so a
    hop looks nothing up by node id, and a route over a missing link
    fails at the send with :meth:`TransputerNode.link_to`'s error,
    before any packet moves.
    """

    __slots__ = ("network", "message", "owner", "alloc", "path", "links",
                 "pools", "cpus", "done")

    def __init__(self, network, message):
        self.network = network
        self.message = message
        #: The owning job's id (``Message.job_id``), derived once and
        #: charged for the mailbox reservation and every transit buffer.
        self.owner = message.job_id
        self.alloc = None
        self.path = self.links = self.pools = self.cpus = None
        env = network.env
        self.done = Event(env)
        env.kick(self._start)

    def _start(self, _key):
        network = self.network
        message = self.message
        cfg = network.config
        message.sent_at = network.env._now
        stats = network.stats
        stats.messages_sent += 1
        stats.bytes_sent += message.nbytes
        # Sender-side software: packetisation and the copy of the
        # payload out of job memory into message buffers.
        work = network.nodes[message.src].cpu.execute(
            cfg.message_overhead + cfg.copy_time(message.nbytes),
            HIGH, tag="comm",
        )
        work.callbacks.append(self._on_send_sw)

    def _on_send_sw(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        network = self.network
        message = self.message
        nodes = network.nodes
        dst_node = nodes[message.dst]
        # Reassembly space: zero-byte messages still carry a header.
        nbytes = message.nbytes or 1
        if message.src == message.dst:
            # Self-message: no links, but the same software path and the
            # same mailbox memory demand (see paper, Section 5.2).
            message.hops = 0
            network.stats.self_messages += 1
            request = dst_node.mailbox_memory.alloc(nbytes, self.owner)
            request.callbacks.append(self._on_self_alloc)
            return
        path = self.path = network.router.path(message.src, message.dst)
        message.hops = len(path) - 1
        links = self.links = []
        pools = self.pools = []
        cpus = self.cpus = []
        node = nodes[message.src]
        for v in path[1:]:
            links.append(node.link_to(v))
            node = nodes[v]
            pools.append(None if node is dst_node else node.buffers)
            cpus.append(node.cpu)
        # Reserve the whole message's reassembly space at the
        # destination *before* any packet leaves.  Allocating per packet
        # instead invites classic reassembly deadlock: fragments of
        # several messages fill the mailbox region and none can
        # complete.  The message-level reservation doubles as the
        # mailbox protocol's flow control — a sender stalls while the
        # destination is full, which is the paper's "a message can
        # suffer a delay if [a] processor delays allocation of memory
        # for the mailbox".
        request = dst_node.mailbox_memory.alloc(nbytes, self.owner)
        request.callbacks.append(self._on_alloc)

    def _on_self_alloc(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self.alloc = event._value
        network = self.network
        message = self.message
        work = network.nodes[message.dst].cpu.execute(
            network.config.hop_cpu_cost(message.nbytes), HIGH, tag="comm"
        )
        work.callbacks.append(self._on_self_cpu)

    def _on_self_cpu(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self.network._deliver(self.message, self.alloc)
        self.network.env.handoff(self.done, self.message)

    def _on_alloc(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self.alloc = event._value
        network = self.network
        packets = fragment(self.message, network.config.packet_bytes)
        path = self.path
        links = self.links
        pools = self.pools
        cpus = self.cpus
        owner = self.owner
        done = [_PacketWalker(network, pkt, path, links, pools, cpus,
                              owner).done
                for pkt in packets]
        gather = AllOf(network.env, done)
        gather.callbacks.append(self._on_packets)

    def _on_packets(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self.network._deliver(self.message, self.alloc)
        self.network.env.handoff(self.done, self.message)


class _PacketWalker:
    """Move one packet along its path as a callback state machine.

    The successor of the old per-packet ``_packet_transit`` generator
    process: each continuation mirrors one of the generator's ``yield``
    points exactly — same events created at the same execution points
    with callbacks appended in the same order — so the simulated
    trajectory is byte-identical, but each hop costs three plain
    function calls instead of three generator suspensions plus the
    :class:`Process` bookkeeping around them.  The walker stays alive
    between continuations through the bound-method callback parked on
    the event it waits for; it keeps no bound method of its own, so it
    sits in no reference cycle and is freed as soon as its last event is.

    Per hop (store-and-forward): acquire a transit buffer at the
    receiving node (skipped where the hop lands on the destination —
    the packet goes into the message's pre-reserved reassembly region),
    transmit across the link, release the buffer held at the previous
    node, then charge the per-packet forwarding software to the
    receiving node's high-priority CPU queue.  The hop's link, pool and
    CPU come from the route its message walker resolved.  ``done``
    triggers with the packet after the last hop (taking the place of
    the old packet Process's end event, one for one) or fails with the
    first awaited event's failure.
    """

    __slots__ = ("network", "packet", "path", "links", "pools", "cpus",
                 "owner", "hop_cost", "hop", "held", "slot", "done")

    def __init__(self, network, packet, path, links, pools, cpus, owner):
        self.network = network
        self.packet = packet
        self.path = path
        self.links = links
        self.pools = pools
        self.cpus = cpus
        #: The owning job's id, charged for each transit buffer.
        self.owner = owner
        #: Forwarding software charged at every node the packet reaches:
        #: the same at each hop, so computed once.
        self.hop_cost = network.config.hop_cpu_cost(packet.nbytes)
        self.hop = 0
        #: Transit buffer occupied at the current node, released only
        #: after the packet has crossed the next link (store-and-forward).
        self.held = None
        #: Buffer granted at the next node, adopted as ``held`` there.
        self.slot = None
        env = network.env
        self.done = Event(env)
        env.kick(self._next_hop)

    def _next_hop(self, _key=None):
        hop = self.hop
        pools = self.pools
        if hop == len(pools):
            # Arrived.  The last hop lands on the destination, whose
            # pool is ``None``, so no transit buffer is held here.
            self.done.succeed(self.packet)
            return
        pool = pools[hop]
        if pool is None:
            # The hop lands on the destination: straight to the link.
            self._transmit(None)
            return
        request = pool.acquire(hop, self.owner)
        request.callbacks.append(self._on_buffer)

    def _on_buffer(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self._transmit(event._value)

    def _transmit(self, slot):
        self.slot = slot
        link = self.links[self.hop]
        nbytes = self.packet.nbytes
        probe = self.network._probe
        if probe is not None:
            probe.transfer(link, nbytes)
        link.transmit(nbytes).callbacks.append(self._on_link)

    def _on_link(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        hop = self.hop
        v = self.path[hop + 1]
        nbytes = self.packet.nbytes
        # The hop's ``NetworkStats`` update.
        stats = self.network.stats
        stats.packet_hops += 1
        handled = stats.node_packets
        handled[v] = handled.get(v, 0) + 1
        handled = stats.node_bytes
        handled[v] = handled.get(v, 0) + nbytes
        held = self.held
        if held is not None:
            held.pool.release(held)
        self.held = self.slot
        # Per-packet forwarding/receive software at the arriving node:
        # fixed overhead plus the store-and-forward memory copy.
        work = self.cpus[hop].execute(self.hop_cost, HIGH, tag="comm")
        work.callbacks.append(self._on_cpu)

    def _on_cpu(self, event):
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self.hop += 1
        self._next_hop()
