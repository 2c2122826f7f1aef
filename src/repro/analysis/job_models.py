"""Analytic per-job time and speedup models.

First-order predictions of a single job's execution time from the
simulator's own cost constants — useful both as validation oracles (the
simulator must approach them in uncontended runs) and as quick
back-of-envelope tools when choosing experiment scales.
"""

from __future__ import annotations

from repro.workload.costs import DEFAULT_COSTS


def matmul_job_time(n, processors, config, costs=None,
                    architecture="adaptive", fixed_processes=16):
    """Predicted solo execution time of one fork-join matmul job.

    The critical path of the fork-join:

    - distribution: the coordinator emits (T-1) messages of
      ``B + A-slice`` bytes; per message the bottleneck is the larger of
      the sender-side software copy (CPU) and the link serialisation
      (they pipeline against each other), plus the last worker's
      receive copy;
    - compute: the slowest worker's share of the 2n^3 operations;
    - collection: one result slice returns after the last computation
      (earlier results overlap with later computation).

    Deliberately first-order: no queueing, minimum hop count of 1.
    """
    costs = costs or DEFAULT_COSTS
    T = fixed_processes if architecture == "fixed" else processors
    rows = costs.split_rows(n, T)
    compute = config.ops_time(costs.matmul_worker_ops(n, max(rows)))

    distribute = 0.0
    last_receive = 0.0
    collect = 0.0
    for r in rows[1:]:
        work_bytes = costs.matmul_b_bytes(n) + costs.matmul_slice_bytes(n, r)
        sender = config.copy_time(work_bytes) + config.message_overhead
        wire = config.transfer_time(work_bytes) + config.link_startup
        distribute += max(sender, wire)
        last_receive = config.copy_time(work_bytes)
        result_bytes = costs.matmul_slice_bytes(n, r)
        collect = (config.transfer_time(result_bytes)
                   + 2 * config.copy_time(result_bytes)
                   + config.message_overhead)
    return distribute + last_receive + compute + collect


def sort_total_ops(n, num_processes, costs=None):
    """Total operations of the divide-and-conquer sort (all phases)."""
    costs = costs or DEFAULT_COSTS
    T = num_processes
    depth = T.bit_length() - 1
    ops = T * costs.selection_sort_ops(n / T)
    for level in range(depth):
        seg = n / (1 << level)
        ops += (1 << level) * (costs.divide_ops(seg) + costs.merge_ops(seg))
    return ops


def parallel_efficiency(solo_time_1p, solo_time_p, processors):
    """Classic efficiency: T(1) / (p * T(p))."""
    if solo_time_p <= 0 or processors < 1:
        raise ValueError("invalid timing inputs")
    return solo_time_1p / (processors * solo_time_p)
