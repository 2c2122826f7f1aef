"""Message and packet descriptors."""

from __future__ import annotations

from itertools import count

_msg_ids = count()


class Message:
    """An application-level message between two processors.

    The simulator carries sizes and descriptors, not real data; the
    ``payload`` field is an opaque object handed to the receiver (task
    results, sub-array descriptors, ...).
    """

    __slots__ = ("msg_id", "src", "dst", "nbytes", "tag", "payload",
                 "sent_at", "delivered_at", "hops", "src_proc", "dst_proc")

    def __init__(self, src, dst, nbytes, tag=None, payload=None,
                 src_proc=None, dst_proc=None):
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.msg_id = next(_msg_ids)
        self.src = src
        self.dst = dst
        self.nbytes = int(nbytes)
        self.tag = tag
        self.payload = payload
        self.sent_at = None
        self.delivered_at = None
        #: Hop count of the route the message took (0 for self-messages).
        self.hops = None
        #: Job-local process indices of the communicating endpoints
        #: (telemetry/critical-path attribution; None outside a job).
        self.src_proc = src_proc
        self.dst_proc = dst_proc

    @property
    def job_id(self):
        """Owning job id for job-scoped tags ``(job_id, ...)``, or None."""
        if isinstance(self.tag, tuple) and self.tag:
            owner = self.tag[0]
            if isinstance(owner, int):
                return owner
        return None

    @property
    def latency(self):
        """End-to-end delay, available once delivered."""
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self):
        return (f"<Message #{self.msg_id} {self.src}->{self.dst} "
                f"{self.nbytes}B tag={self.tag!r}>")


class Packet:
    """One store-and-forward fragment of a message."""

    __slots__ = ("message", "index", "nbytes", "is_last")

    def __init__(self, message, index, nbytes, is_last):
        self.message = message
        self.index = index
        self.nbytes = nbytes
        self.is_last = is_last

    def __repr__(self):
        return f"<Packet {self.index} of msg#{self.message.msg_id}>"


def fragment(message, packet_bytes):
    """Split a message into packets of at most ``packet_bytes``."""
    # Zero-byte messages still carry a header.  Sizes are clamped by
    # comparison rather than ``max``/``min``: this runs for every message.
    total = message.nbytes or 1
    packets = []
    offset = 0
    index = 0
    while offset < total:
        size = total - offset
        if size > packet_bytes:
            size = packet_bytes
        offset += size
        packets.append(Packet(message, index, size, offset >= total))
        index += 1
    return packets
