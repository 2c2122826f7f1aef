"""Per-node mailboxes.

A mailbox holds fully reassembled messages until a process receives
them.  Receives may match on any predicate over the message (typically
its ``tag``), so multiple logical channels share one mailbox — exactly
the asynchronous any-to-any scheme the paper's runtime implemented.

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
        # Keyed store: tag receives — the overwhelmingly common case —
        # are served from per-tag deques in O(1) instead of a
        # predicate scan over every pending message and waiter.
        self._store = FilterStore(env, key=_TAG)
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

    def recv(self, match=None, tag=None):
        """Wait for a message; returns an event yielding the Message.

        Parameters
        ----------
        match:
            Predicate over the message; mutually exclusive with ``tag``.
        tag:
            Shorthand for ``match=lambda m: m.tag == tag``.
        """
        if match is not None and tag is not None:
            raise ValueError("pass either match or tag, not both")
        if tag is not None:
            # Keyed fast path: served from the store's per-tag index.
            get = self._store.get(key=tag)
        else:
            get = self._store.get(match)
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
