"""Interconnection-network topologies and routing.

This package provides the graph substrate for the Transputer network
model: generators for the four topologies evaluated in the paper
(linear array ``L``, ring ``R``, 2-D mesh ``M``, hypercube ``H``), the
hard-wired four-processor "nap" pipelines of the physical machine, and
deterministic shortest-path routing (generic BFS plus dimension-order and
e-cube strategies).
"""

from repro import _lazy_exports

# Names resolve on first use: a run builds its topologies without
# loading the extra generators and graph metrics.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "extra": ("average_distance", "binary_tree", "bisection_width",
              "compare_topologies", "degree_histogram", "fully_connected",
              "link_count", "star", "torus"),
    "graph": ("Graph",),
    "routing": ("DimensionOrderRouter", "EcubeRouter", "RoutingTable",
                "ValiantRouter", "build_router"),
    "topologies": ("TOPOLOGY_CODES", "Topology", "hypercube",
                   "linear_array", "make_topology", "mesh", "mesh_dims",
                   "nap_pipelines", "ring"),
})

__all__ = [
    "DimensionOrderRouter",
    "EcubeRouter",
    "Graph",
    "average_distance",
    "binary_tree",
    "bisection_width",
    "compare_topologies",
    "degree_histogram",
    "fully_connected",
    "link_count",
    "star",
    "torus",
    "RoutingTable",
    "ValiantRouter",
    "TOPOLOGY_CODES",
    "Topology",
    "build_router",
    "hypercube",
    "linear_array",
    "make_topology",
    "mesh",
    "mesh_dims",
    "nap_pipelines",
    "ring",
]
