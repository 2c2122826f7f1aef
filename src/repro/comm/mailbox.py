"""Per-node mailboxes.

A mailbox holds fully reassembled messages until a process receives
them.  Every receive names a tag and takes the oldest delivered message
with exactly that tag, so multiple logical channels share one mailbox —
exactly the asynchronous any-to-any scheme the paper's runtime
implemented.  A receiver that wants related messages in arrival order
has them sent under one tag.

Reassembly memory is charged to the node's mailbox MMU region by the
network layer on delivery and released here when the message is
consumed.
"""

from __future__ import annotations

from operator import attrgetter

from repro.sim import FilterStore

#: The mailbox store's key: a message's tag, read without a Python call.
_TAG = attrgetter("tag")


class Mailbox:
    """Mailbox of one node: delivered messages awaiting receipt."""

    def __init__(self, env, node):
        self.env = env
        self.node = node
        # Keyed by tag: a receive is served from its tag's deque in O(1)
        # however many other messages are pending.
        self._store = FilterStore(env, _TAG)
        #: Live mailbox-memory allocations keyed by message id.
        self._allocations = {}
        self.delivered = 0
        self.received = 0

    def __len__(self):
        return len(self._store)

    def deliver(self, message, allocation=None):
        """Called by the network when a message finishes reassembly."""
        message.delivered_at = self.env._now
        if allocation is not None:
            self._allocations[message.msg_id] = allocation
        self.delivered += 1
        self._store.put(message)

    def recv(self, tag):
        """Wait for the oldest message tagged ``tag``.

        Returns an event yielding the :class:`Message`.  The match is
        equality on the whole tag, so ``None`` matches only messages
        sent without one.
        """
        get = self._store.get(tag)
        get.callbacks.append(self._on_recv)
        return get

    def _on_recv(self, event):
        if not event._ok:
            return
        message = event._value
        self.received += 1
        allocation = self._allocations.pop(message.msg_id, None)
        if allocation is not None:
            allocation.free()

    def __repr__(self):
        return f"<Mailbox node={self.node.node_id} pending={len(self)}>"
