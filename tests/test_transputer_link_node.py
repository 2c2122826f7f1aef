"""Tests for the link model and node assembly."""

import pytest

from repro.sim import Environment
from repro.transputer import Link, TransputerConfig, TransputerNode

NAN = float("nan")
INF = float("inf")


def test_link_transfer_time():
    env = Environment()
    link = Link(env, 0, 1, bandwidth=1000.0, startup=0.5)

    def proc(env):
        yield link.transmit(2000)
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == pytest.approx(0.5 + 2.0)


def test_link_fifo_queueing():
    """Two back-to-back transfers serialise; the second waits."""
    env = Environment()
    link = Link(env, 0, 1, bandwidth=1000.0, startup=0.0)
    done = []

    def sender(env, name, nbytes):
        yield link.transmit(nbytes)
        done.append((name, env.now))

    env.process(sender(env, "a", 1000))
    env.process(sender(env, "b", 1000))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]
    assert link.stats.queue_time == pytest.approx(1.0)


def test_link_idle_gap_not_counted_busy():
    env = Environment()
    link = Link(env, 0, 1, bandwidth=1000.0)

    def sender(env):
        yield link.transmit(500)
        yield env.timeout(10)
        yield link.transmit(500)

    env.process(sender(env))
    env.run()
    assert link.stats.busy_time == pytest.approx(1.0)
    assert link.stats.utilization(env.now) == pytest.approx(1.0 / 11.0)
    assert link.stats.bytes_carried == 1000
    assert link.stats.transfers == 2


def test_link_rejects_bad_params():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, 0, 1, bandwidth=0)
    with pytest.raises(ValueError):
        Link(env, 0, 1, bandwidth=10, startup=-1)
    # NaN used to pass both checks and fail later as an invalid delay
    # inside the event loop.
    with pytest.raises(ValueError, match="bandwidth"):
        Link(env, 0, 1, bandwidth=NAN)
    with pytest.raises(ValueError, match="startup"):
        Link(env, 0, 1, bandwidth=10, startup=NAN)
    with pytest.raises(ValueError, match="startup"):
        Link(env, 0, 1, bandwidth=10, startup=INF)
    link = Link(env, 0, 1, bandwidth=10)
    with pytest.raises(ValueError):
        link.transmit(-5)


def test_link_backlog_reporting():
    env = Environment()
    link = Link(env, 0, 1, bandwidth=100.0)

    def proc(env):
        link.transmit(200)  # 2 seconds of service
        assert link.backlog == pytest.approx(2.0)
        yield env.timeout(1)
        assert link.backlog == pytest.approx(1.0)

    env.process(proc(env))
    env.run()


# -------------------------------------------------------------------- Node
def test_node_memory_regions_sum_to_total():
    env = Environment()
    cfg = TransputerConfig()
    node = TransputerNode(env, 3, cfg, mailbox_bytes=256 * 1024)
    assert node.memory.capacity == (
        cfg.memory_bytes - cfg.os_reserved_bytes - cfg.buffer_pool_bytes
        - 256 * 1024
    )
    assert node.mailbox_memory.capacity == 256 * 1024


def test_node_rejects_memory_overcommit():
    env = Environment()
    cfg = TransputerConfig(memory_bytes=1024, buffer_pool_bytes=512)
    with pytest.raises(ValueError):
        TransputerNode(env, 0, cfg, mailbox_bytes=512)


def test_node_link_to_unknown_neighbor():
    env = Environment()
    node = TransputerNode(env, 0, TransputerConfig())
    with pytest.raises(ValueError, match="no link"):
        node.link_to(7)


def test_node_memory_pressure():
    env = Environment()
    node = TransputerNode(env, 0, TransputerConfig())

    def proc(env):
        a = yield node.memory.alloc(node.memory.capacity // 2)
        assert node.memory_pressure() == pytest.approx(0.5, rel=0.01)
        a.free()

    env.process(proc(env))
    env.run()
    assert node.memory_pressure() == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        TransputerConfig(quantum=-1).validate()
    with pytest.raises(ValueError):
        TransputerConfig(cpu_ops_per_second=0).validate()
    with pytest.raises(ValueError):
        TransputerConfig(buffer_pool_bytes=10**9).validate()
    with pytest.raises(ValueError):
        TransputerConfig(buffers_per_class=0).validate()
    assert TransputerConfig().validate() is not None


@pytest.mark.parametrize("field, value", [
    ("link_bandwidth", NAN),
    ("link_bandwidth", -1.0),
    ("link_startup", NAN),
    ("link_startup", -1e-6),
    ("link_startup", INF),
    ("copy_bytes_per_second", NAN),
    ("copy_bytes_per_second", -1.0),
    ("hop_software_overhead", NAN),
    ("hop_software_overhead", -1e-6),
    ("hop_software_overhead", INF),
    ("message_overhead", NAN),
    ("message_overhead", -1e-6),
    ("message_overhead", INF),
    ("host_bandwidth", NAN),
    ("host_bandwidth", -1.0),
    ("host_startup", NAN),
    ("host_startup", -1e-6),
    ("host_startup", INF),
    ("wormhole_hop_latency", NAN),
    ("wormhole_hop_latency", -1e-6),
    ("wormhole_hop_latency", INF),
])
def test_config_validate_rejects_bad_transport_fields(field, value):
    """Each used to pass ``validate`` and fail only at the first send
    or hop, ten frames deep in the event loop."""
    with pytest.raises(ValueError, match=field):
        TransputerConfig(**{field: value}).validate()


def test_config_validate_accepts_infinite_transport_rates():
    """An infinitely fast link, copy or host link is a valid (ideal)
    model."""
    assert TransputerConfig(link_bandwidth=INF, copy_bytes_per_second=INF,
                            host_bandwidth=INF).validate()


def test_bad_transport_config_fails_when_the_system_is_built():
    from repro.core import MulticomputerSystem, SystemConfig, TimeSharing

    config = SystemConfig(
        num_nodes=4, topology="mesh",
        transputer=TransputerConfig(hop_software_overhead=NAN))
    with pytest.raises(ValueError, match="hop_software_overhead"):
        MulticomputerSystem(config, TimeSharing())


def test_config_helpers():
    cfg = TransputerConfig(cpu_ops_per_second=1e6, link_bandwidth=1e6,
                           packet_bytes=1024)
    assert cfg.ops_time(5e5) == pytest.approx(0.5)
    assert cfg.transfer_time(2e6) == pytest.approx(2.0)
    assert cfg.packets_for(1024) == 1
    assert cfg.packets_for(1025) == 2
    assert cfg.packets_for(0) == 1
