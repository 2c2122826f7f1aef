"""End-to-end tests for the multicomputer system and scheduler hierarchy."""

import pytest

from repro.core import (
    DynamicSpaceSharing,
    HybridPolicy,
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
    equal_partition_node_sets,
)
from repro.core.job import JobState
from repro.workload import MatMulApplication, SortApplication, standard_batch
from repro.workload.batch import BatchWorkload, JobSpec

from tests.conftest import ideal_transputer


def small_batch(arch="adaptive", n_small=3, n_large=1, small=20, large=40):
    return standard_batch("matmul", architecture=arch, num_small=n_small,
                          num_large=n_large, small_size=small,
                          large_size=large)


def make_system(policy, topology="linear", num_nodes=4, **overrides):
    cfg = SystemConfig(num_nodes=num_nodes, topology=topology,
                       transputer=ideal_transputer(), **overrides)
    return MulticomputerSystem(cfg, policy)


# ---------------------------------------------------------------- memory
@pytest.mark.parametrize("make_policy",
                         [TimeSharing, lambda: StaticSpaceSharing(2)],
                         ids=["timesharing", "static"])
def test_finished_processes_and_requests_need_no_cyclic_gc(make_policy):
    """A finished process or CPU request is in no reference cycle, so
    reference counting frees it: with the cyclic collector off, none of
    a run's is left once the run is over."""
    import gc

    from repro.sim.events import Process
    from repro.transputer.cpu import WorkRequest

    def alive():
        return {id(o) for o in gc.get_objects()
                if isinstance(o, (Process, WorkRequest))}

    gc.collect()
    gc.disable()
    try:
        before = alive()
        system = MulticomputerSystem(
            SystemConfig(num_nodes=4, topology="linear"), make_policy())
        result = system.run_batch(small_batch())
        assert all(job.state is JobState.COMPLETED for job in result.jobs)
        del system, result
        left = alive() - before
    finally:
        gc.enable()
    assert not left


# ------------------------------------------------------------- partitioning
def test_equal_partition_node_sets():
    assert equal_partition_node_sets(16, 4) == [
        (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)
    ]
    assert equal_partition_node_sets(16, 16) == [tuple(range(16))]
    with pytest.raises(ValueError):
        equal_partition_node_sets(16, 3)
    with pytest.raises(ValueError):
        equal_partition_node_sets(16, 0)


def test_system_builds_partitions_per_policy():
    system = make_system(StaticSpaceSharing(2), num_nodes=4).build()
    assert len(system.partitions) == 2
    assert [p.size for p in system.partitions] == [2, 2]
    system = make_system(TimeSharing(), num_nodes=4).build()
    assert len(system.partitions) == 1
    assert system.partitions[0].size == 4


def test_system_rejects_transputer_config_directly():
    with pytest.raises(TypeError):
        MulticomputerSystem(ideal_transputer(), TimeSharing())


# ---------------------------------------------------------------- execution
def test_all_jobs_complete_and_states_progress():
    system = make_system(StaticSpaceSharing(2))
    result = system.run_batch(small_batch())
    assert len(result.jobs) == 4
    for job in result.jobs:
        assert job.state is JobState.COMPLETED
        assert job.submitted_at == 0
        assert job.response_time > 0
        assert job.wait_time >= 0
        assert job.execution_time > 0


def test_static_runs_one_job_per_partition():
    """Under static space-sharing, jobs wait in FCFS until a partition
    frees; later jobs have strictly positive wait times."""
    system = make_system(StaticSpaceSharing(4), num_nodes=4)
    result = system.run_batch(small_batch())
    waits = sorted(j.wait_time for j in result.jobs)
    assert waits[0] == 0
    assert waits[-1] > 0  # somebody queued


def test_timesharing_starts_all_jobs_immediately():
    system = make_system(TimeSharing(), num_nodes=4)
    result = system.run_batch(small_batch())
    assert all(j.wait_time == 0 for j in result.jobs)


def test_hybrid_distributes_equitably():
    system = make_system(HybridPolicy(2), num_nodes=4)
    result = system.run_batch(small_batch())
    parts = {}
    for job in result.jobs:
        parts.setdefault(job.partition.partition_id, 0)
        parts[job.partition.partition_id] += 1
    assert sorted(parts.values()) == [2, 2]


def test_jobs_record_partition_and_process_count():
    system = make_system(StaticSpaceSharing(2), num_nodes=4)
    result = system.run_batch(small_batch(arch="fixed"))
    for job in result.jobs:
        assert job.partition is not None
        assert job.num_processes == 16  # fixed architecture
    system = make_system(StaticSpaceSharing(2), num_nodes=4)
    result = system.run_batch(small_batch(arch="adaptive"))
    for job in result.jobs:
        assert job.num_processes == 2  # adaptive: equals partition size


def test_memory_fully_released_after_batch():
    system = make_system(TimeSharing(), num_nodes=4)
    system.run_batch(small_batch(arch="fixed"))
    for node in system.nodes.values():
        assert node.memory.in_use == 0
        assert node.mailbox_memory.in_use == 0


def test_deterministic_repeat_runs():
    r1 = make_system(HybridPolicy(2), num_nodes=4).run_batch(small_batch())
    r2 = make_system(HybridPolicy(2), num_nodes=4).run_batch(small_batch())
    assert r1.response_times == r2.response_times
    assert r1.makespan == r2.makespan


def test_paper_finding_f3_p1_static_equals_timesharing():
    """At partition size 1 (16 partitions), static and hybrid coincide."""
    batch = small_batch(arch="adaptive", n_small=3, n_large=1)
    static = make_system(StaticSpaceSharing(1), num_nodes=4).run_batch(batch)
    hybrid = make_system(HybridPolicy(1), num_nodes=4).run_batch(batch)
    assert static.mean_response_time == pytest.approx(
        hybrid.mean_response_time, rel=0.02
    )


def test_zero_comm_single_job_makespan_equals_work_over_p():
    """Closed form: with free communication, one adaptive matmul job on
    p processors finishes in ~total_ops / (p * rate)."""
    n, p = 64, 4
    app = MatMulApplication(n, architecture="adaptive")
    batch = BatchWorkload([JobSpec(app, "only")])
    system = make_system(StaticSpaceSharing(p), num_nodes=p)
    result = system.run_batch(batch)
    ideal = app.total_ops(p) / 1.0e6 / p
    # Join overhead (n^2 stream ops) and rounding allow a small slack.
    assert result.makespan == pytest.approx(ideal, rel=0.1)
    assert result.makespan >= ideal * 0.999


def test_static_serial_batch_sums_job_times():
    """p = all nodes: jobs run serially; makespan ~ sum of solo times."""
    n = 32
    app = MatMulApplication(n, architecture="adaptive")
    solo = make_system(StaticSpaceSharing(4)).run_batch(
        BatchWorkload([JobSpec(app, "solo")])
    )
    trio = make_system(StaticSpaceSharing(4)).run_batch(
        BatchWorkload([JobSpec(app, "a"), JobSpec(app, "b"),
                       JobSpec(app, "c")])
    )
    assert trio.makespan == pytest.approx(3 * solo.makespan, rel=0.05)


def test_rr_job_equal_power_two_jobs():
    """Two identical jobs under pure TS finish together, at ~2x the solo
    time (equal shares).  n is large enough that each burst spans many
    quanta, so round-robin granularity effects stay small."""
    n = 64
    app = MatMulApplication(n, architecture="adaptive")
    solo = make_system(TimeSharing()).run_batch(
        BatchWorkload([JobSpec(app, "solo")])
    )
    duo = make_system(TimeSharing()).run_batch(
        BatchWorkload([JobSpec(app, "a"), JobSpec(app, "b")])
    )
    t1, t2 = sorted(duo.response_times)
    assert t2 == pytest.approx(2 * solo.makespan, rel=0.15)
    assert (t2 - t1) / t2 < 0.15  # near-simultaneous completion


# ------------------------------------------------------------------ dynamic
def test_dynamic_policy_forms_and_recycles_partitions():
    system = make_system(DynamicSpaceSharing(), num_nodes=4)
    result = system.run_batch(small_batch())
    assert len(result.jobs) == 4
    assert all(j.state is JobState.COMPLETED for j in result.jobs)
    # All processors returned to the pool.
    assert len(system.super_scheduler._pool) == 4
    assert not system.super_scheduler.partitions


def test_dynamic_solo_job_gets_whole_machine():
    app = MatMulApplication(32, architecture="adaptive")
    system = make_system(DynamicSpaceSharing(), num_nodes=4)
    result = system.run_batch(BatchWorkload([JobSpec(app, "solo")]))
    assert result.jobs[0].num_processes == 4


# ---------------------------------------------------------------- metrics
def test_batch_result_statistics():
    system = make_system(StaticSpaceSharing(2), num_nodes=4)
    result = system.run_batch(small_batch())
    assert result.mean_response_time > 0
    assert result.max_response_time >= result.mean_response_time
    assert result.std_response_time >= 0
    by_class = result.mean_response_by_class()
    assert set(by_class) == {"small", "large"}
    assert by_class["large"] > 0


def test_snapshot_counters_consistent():
    system = make_system(TimeSharing(), num_nodes=4)
    result = system.run_batch(small_batch(arch="fixed"))
    snap = result.snapshot
    assert snap.makespan == result.makespan
    assert 0 < snap.mean_cpu_utilization <= 1.0
    assert snap.app_cpu_time > 0
    assert snap.messages > 0
    assert snap.bytes_sent > 0
    assert all(0 <= u <= 1 for u in snap.link_utilization.values())


def test_incomplete_jobs_rejected_by_batch_result():
    from repro.core.metrics import BatchResult
    from repro.core.job import Job

    job = Job(MatMulApplication(8), size_class="small")
    with pytest.raises(ValueError, match="did not complete"):
        BatchResult([job], snapshot=None)


def test_sort_app_end_to_end_both_architectures():
    for arch in ("fixed", "adaptive"):
        batch = standard_batch("sort", architecture=arch, num_small=2,
                               num_large=1, small_size=200, large_size=400)
        system = make_system(HybridPolicy(2), num_nodes=4)
        result = system.run_batch(batch)
        assert len(result.jobs) == 3
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
