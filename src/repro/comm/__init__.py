"""Inter-processor communication.

Implements the paper's mailbox-based asynchronous any-to-any
communication system over point-to-point links:

- messages are fragmented into packets and forwarded hop by hop using
  **store-and-forward** switching;
- every intermediate node must provide a transit buffer from its
  structured (hop-class, deadlock-free) buffer pool;
- per-packet forwarding software runs as *high-priority* CPU work on the
  forwarding node, so heavy traffic steals cycles from applications —
  exactly the congestion coupling the paper observes;
- at the destination, reassembly memory comes from the node's mailbox
  region of the MMU ("a message can suffer a delay if an intermediate
  processor delays allocation of memory for the mailbox");
- a message from a node to itself still pays the software path
  (overhead + mailbox memory), as the paper notes.

:class:`~repro.comm.wormhole.WormholeNetwork` provides the wormhole-
switched alternative discussed in the paper's Section 5.2 (ablation E6):
no intermediate buffering, but a message holds every link on its path
from header arrival to tail departure.
"""

from repro import _lazy_exports

# Names resolve on first use: a store-and-forward run loads none of the
# wormhole network, the channels or the collectives.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "channel": ("Channel", "ChannelError"),
    "collectives": ("CollectiveContext", "barrier", "broadcast", "gather",
                    "reduce", "scatter"),
    "mailbox": ("Mailbox",),
    "message": ("Message", "Packet"),
    "network": ("Network", "NetworkStats"),
    "wormhole": ("WormholeNetwork",),
})

__all__ = [
    "Channel",
    "ChannelError",
    "CollectiveContext",
    "barrier",
    "broadcast",
    "gather",
    "reduce",
    "scatter",
    "Mailbox",
    "Message",
    "Network",
    "NetworkStats",
    "Packet",
    "WormholeNetwork",
]
