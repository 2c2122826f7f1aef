"""Tests for Valiant routing and gang-exclusivity properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network
from repro.core import GangScheduling, MulticomputerSystem, SystemConfig
from repro.sim import Environment
from repro.topology import ValiantRouter, build_router, mesh, ring
from repro.transputer import TransputerConfig, TransputerNode
from repro.workload import BatchWorkload, JobSpec, SyntheticForkJoin

from tests.conftest import ideal_transputer


# ------------------------------------------------------------------ valiant
def test_valiant_paths_are_valid_walks():
    topo = mesh(range(16))
    router = build_router(topo, strategy="valiant")
    assert isinstance(router, ValiantRouter)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src == dst:
                continue
            path = router.path(src, dst)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert topo.graph.has_edge(a, b)
            assert len(path) - 1 <= 2 * topo.graph.diameter()


def test_valiant_deterministic_per_instance():
    topo = ring(range(8))
    r1 = build_router(topo, strategy="valiant")
    r2 = build_router(topo, strategy="valiant")
    seq1 = [r1.path(0, 4) for _ in range(10)]
    seq2 = [r2.path(0, 4) for _ in range(10)]
    assert seq1 == seq2  # same seed, same call sequence


def test_valiant_spreads_over_intermediates():
    topo = mesh(range(16))
    router = build_router(topo, strategy="valiant")
    paths = {tuple(router.path(0, 15)) for _ in range(30)}
    assert len(paths) > 3  # different detours over repeated sends


def test_valiant_tiny_networks_fall_back():
    topo = ring(range(2))
    router = build_router(topo, strategy="valiant")
    assert router.path(0, 1) == [0, 1]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown routing strategy"):
        build_router(mesh(range(4)), strategy="telepathy")


def test_valiant_network_delivers_under_hotspot_traffic():
    """All-to-one traffic (the coordinator pattern) must drain under
    Valiant routing, with buffer classes sized for the longer paths."""
    env = Environment()
    cfg = TransputerConfig(context_switch_overhead=0.0)
    nodes = {i: TransputerNode(env, i, cfg) for i in range(8)}
    net = Network(env, nodes, ring(range(8)), cfg, routing="valiant")

    def receiver(env):
        for src in range(1, 8):
            yield net.recv(0, tag=("h", src))

    for src in range(1, 8):
        net.send(src, 0, 20_000, tag=("h", src))
    env.process(receiver(env))
    env.run()
    assert net.stats.messages_delivered == 7
    for node in nodes.values():
        cap = node.buffers.num_classes * node.buffers._capacity_per_class
        assert node.buffers.free_count() == cap


def test_valiant_diffuses_link_load():
    """Under one-pair flood on a ring, shortest-path routing hammers the
    links of one path; Valiant spreads bytes over more links."""
    def busiest_link_share(routing):
        env = Environment()
        cfg = TransputerConfig(context_switch_overhead=0.0)
        nodes = {i: TransputerNode(env, i, cfg) for i in range(8)}
        net = Network(env, nodes, ring(range(8)), cfg, routing=routing)

        def receiver(env):
            for k in range(20):
                yield net.recv(4, tag=("f", k))

        for k in range(20):
            net.send(0, 4, 8_000, tag=("f", k))
        env.process(receiver(env))
        env.run()
        carried = [
            link.stats.bytes_carried
            for node in nodes.values()
            for link in node.links.values()
        ]
        return max(carried) / max(sum(carried), 1)

    assert busiest_link_share("valiant") < busiest_link_share("bfs")


# ------------------------------------------------------------- gang property
@given(
    st.lists(st.floats(min_value=5e4, max_value=4e5), min_size=2,
             max_size=5),
    st.sampled_from([0.01, 0.03, 0.08]),
)
@settings(max_examples=15, deadline=None)
def test_property_gang_never_overlaps_jobs(ops_list, slot):
    """At every instant at most one job's application work runs per
    partition: per-node low-priority time can never exceed the makespan
    (overlap would double-book the CPU), and completions serialise at
    slot granularity."""
    cfg = SystemConfig(num_nodes=4, topology="linear",
                       transputer=ideal_transputer())
    batch = BatchWorkload([
        JobSpec(SyntheticForkJoin(ops, architecture="adaptive",
                                  message_bytes=128), f"j{i}")
        for i, ops in enumerate(ops_list)
    ])
    system = MulticomputerSystem(cfg, GangScheduling(4, gang_slot=slot))
    result = system.run_batch(batch)
    for node in system.nodes.values():
        assert node.cpu.stats.low_time <= result.makespan * (1 + 1e-9)
    total_work = sum(ops_list) / 1e6 / 4  # per-node share
    assert result.makespan >= total_work * 0.999