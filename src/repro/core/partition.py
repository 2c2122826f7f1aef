"""Partitions: disjoint processor sets, each wired as its own topology.

Sharing processing power equally among jobs implies equal partition
sizes (paper, Section 2), so the standard split of a P-processor system
at partition size p is P/p contiguous blocks.  Each partition's
processors are configured (via the C4 crossbar switches on the real
machine) as an instance of the experiment's topology — the figure label
``8L`` means two partitions, each an 8-node linear array.
"""

from __future__ import annotations

from repro.comm import Network
from repro.topology import make_topology


def equal_partition_node_sets(num_nodes, partition_size):
    """Split ``num_nodes`` processors into equal contiguous partitions."""
    if partition_size < 1 or partition_size > num_nodes:
        raise ValueError(
            f"partition size {partition_size} out of range 1..{num_nodes}"
        )
    if num_nodes % partition_size:
        raise ValueError(
            f"{num_nodes} processors cannot be split into equal partitions "
            f"of {partition_size}"
        )
    return [
        tuple(range(base, base + partition_size))
        for base in range(0, num_nodes, partition_size)
    ]


class Partition:
    """A set of processors with its own topology, network, and scheduler."""

    def __init__(self, env, partition_id, nodes, topology_name, config,
                 routing="auto", switching="store_forward",
                 topology_kwargs=None):
        """
        Parameters
        ----------
        nodes: mapping node_id -> TransputerNode restricted to this
            partition's processors (insertion order = partition order).
        topology_name: name or letter code of the partition topology.
        switching: "store_forward" (paper hardware) or "wormhole" (E6).
        """
        self.env = env
        self.partition_id = partition_id
        self.node_ids = tuple(nodes)
        self.nodes = dict(nodes)
        self.topology = make_topology(
            topology_name, self.node_ids, **(topology_kwargs or {})
        )
        if switching == "store_forward":
            cls = Network
        elif switching == "wormhole":
            # Only the wormhole ablation (E6) loads its network.
            from repro.comm.wormhole import WormholeNetwork

            cls = WormholeNetwork
        else:
            raise ValueError(
                f"unknown switching {switching!r}; expected one of "
                f"['store_forward', 'wormhole']"
            )
        self.network = cls(env, self.nodes, self.topology, config,
                           routing=routing)
        #: Set by the MulticomputerSystem once schedulers exist.
        self.scheduler = None

    @property
    def size(self):
        return len(self.node_ids)

    def node(self, node_id):
        return self.nodes[node_id]

    def place(self, process_index, offset=0):
        """Round-robin placement of a job's processes onto the partition.

        Process 0 (the coordinator) lands on processor ``offset``; with
        more processes than processors (fixed software architecture)
        several processes share each node.  The partition scheduler
        staggers ``offset`` across jobs so that multiprogrammed jobs'
        coordinators spread over the partition instead of stacking on
        one node.
        """
        node_ids = self.node_ids
        return node_ids[(process_index + offset) % len(node_ids)]

    def __repr__(self):
        return (f"<Partition {self.partition_id} "
                f"{self.topology.label} nodes={self.node_ids}>")
