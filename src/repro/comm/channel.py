"""Occam-style synchronous channels between *adjacent* processors.

The Transputer's native software library only supports channel
communication between directly connected processors; the mailbox system
in :mod:`repro.comm.network` is built to lift that restriction.  This
module models the underlying primitive for completeness (and for tests
that exercise the link layer directly): a rendezvous channel where the
sender blocks until the receiver is ready and the transfer has crossed
the single connecting link.
"""

from __future__ import annotations

from collections import deque

from repro.sim import Event
from repro.transputer.cpu import HIGH


class ChannelError(Exception):
    """Raised for protocol misuse (e.g. non-adjacent endpoints)."""


class Channel:
    """Synchronous (rendezvous) channel over one physical link.

    ``send`` and ``recv`` each return an event; a send completes only
    when a matching receive has been posted *and* the data has crossed
    the link.  The receive completes at the same instant with the
    payload as its value.
    """

    def __init__(self, env, src_node, dst_node, config):
        if dst_node.node_id not in src_node.links:
            raise ChannelError(
                f"nodes {src_node.node_id} and {dst_node.node_id} are not "
                "adjacent; channels require a direct link"
            )
        self.env = env
        self.src = src_node
        self.dst = dst_node
        self.config = config
        self._senders = deque()   # (event, nbytes, payload)
        self._receivers = deque()  # event

    def send(self, nbytes, payload=None):
        """Offer ``nbytes``; completes when a receiver has taken it."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        ev = Event(self.env)
        self._senders.append((ev, nbytes, payload))
        self._match()
        return ev

    def recv(self):
        """Wait for the next send; the event's value is the payload."""
        ev = Event(self.env)
        self._receivers.append(ev)
        self._match()
        return ev

    def _match(self):
        while self._senders and self._receivers:
            send_ev, nbytes, payload = self._senders.popleft()
            recv_ev = self._receivers.popleft()
            _TransferWalker(self, send_ev, recv_ev, nbytes, payload)


class _TransferWalker:
    """Drive one rendezvous transfer as a callback state machine.

    Replaces the old ``chan-xfer`` generator process: the channel
    software overhead and the link crossing are chained by callbacks, so
    a transfer costs no Process bookkeeping.  The continuations mirror
    the generator's two ``yield`` points exactly, keeping the simulated
    trajectory byte-identical.
    """

    __slots__ = ("channel", "send_ev", "recv_ev", "nbytes", "payload")

    def __init__(self, channel, send_ev, recv_ev, nbytes, payload):
        self.channel = channel
        self.send_ev = send_ev
        self.recv_ev = recv_ev
        self.nbytes = nbytes
        self.payload = payload
        channel.env.kick(self._start)

    def _start(self, _key):
        channel = self.channel
        work = channel.src.cpu.execute(
            channel.config.message_overhead, HIGH, tag="chan"
        )
        work.callbacks.append(self._after_overhead)

    def _after_overhead(self, event):
        if not event._ok:
            event._defused = True
            self.send_ev.fail(event._value)
            return
        channel = self.channel
        crossing = channel.src.link_to(channel.dst.node_id).transmit(
            self.nbytes
        )
        crossing.callbacks.append(self._after_transmit)

    def _after_transmit(self, event):
        if not event._ok:
            event._defused = True
            self.send_ev.fail(event._value)
            return
        self.send_ev.succeed(self.nbytes)
        self.recv_ev.succeed(self.payload)
