"""Ablation experiments for the paper's quantitative side claims.

Each function returns ``(rows, columns)`` ready for
:func:`repro.experiments.report.format_ablation`.
"""

from __future__ import annotations

from repro.core import (
    GangScheduling,
    HybridPolicy,
    MulticomputerSystem,
    RRProcessPolicy,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.experiments.runner import run_static_averaged
from repro.transputer import TransputerConfig
from repro.workload import (
    BatchWorkload,
    JobSpec,
    MatMulApplication,
    SyntheticForkJoin,
    standard_batch,
)
from repro.workload.synthetic import lognormal_demands


def variance_crossover(cvs=(0.0, 0.5, 1.0, 2.0, 4.0), mean_ops=1.0e6,
                       batch_size=16, topology="mesh", seed=1997,
                       architecture="adaptive"):
    """E5: sweep service-demand CV; TS overtakes static at high variance.

    The paper (Section 5.2, citing the companion TR) reports that its
    moderate-variance workload favours static space-sharing, but higher
    variance in service demand flips the ranking — a small job stuck
    behind a monopolising large job is FCFS's failure mode, and
    round-robin sharing is its cure.
    """
    import numpy as np  # only this ablation draws random demands

    rows = []
    rng = np.random.default_rng(seed)
    for cv in cvs:
        demands = lognormal_demands(mean_ops, cv, batch_size, rng)
        cutoff = float(np.median(demands))
        specs = [
            JobSpec(
                SyntheticForkJoin(ops, architecture=architecture),
                "large" if ops > cutoff else "small",
            )
            for ops in demands
        ]
        batch = BatchWorkload(specs, description=f"synthetic cv={cv}")
        config = SystemConfig(num_nodes=16, topology=topology)
        static_rt, _, _ = run_static_averaged(config, 16, batch)
        ts = MulticomputerSystem(config, TimeSharing()).run_batch(batch)
        rows.append({
            "cv": cv,
            "static": static_rt,
            "timesharing": ts.mean_response_time,
            "ts/static": ts.mean_response_time / static_rt,
        })
    return rows, ["cv", "static", "timesharing", "ts/static"]


def wormhole_vs_store_forward(topologies=("linear", "mesh"),
                              partition_size=16, architecture="fixed"):
    """E6: wormhole switching removes most topology sensitivity.

    Section 5.2 predicts wormhole routing would eliminate the buffer
    demand at intermediate processors and sharply reduce the policies'
    sensitivity to network topology.  Comparing a long-diameter (linear)
    and short-diameter (hypercube) network under both switching modes
    quantifies exactly that.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for switching in ("store_forward", "wormhole"):
        per_topo = {}
        for topo in topologies:
            config = SystemConfig(num_nodes=16, topology=topo,
                                  switching=switching)
            policy = (TimeSharing() if partition_size == 16
                      else HybridPolicy(partition_size))
            result = MulticomputerSystem(config, policy).run_batch(batch)
            per_topo[topo] = result.mean_response_time
        values = list(per_topo.values())
        rows.append({
            "switching": switching,
            **per_topo,
            "gap": max(values) - min(values),
            "spread": max(values) / min(values),
        })
    return rows, ["switching", *topologies, "gap", "spread"]


def memory_sensitivity(memory_mb=(3.0, 4.0, 6.0, 8.0), topology="linear",
                       architecture="fixed"):
    """E7: node memory size shapes time-sharing's behaviour.

    Scarce memory throttles the *effective* multiprogramming level —
    jobs queue at the MMU and time-sharing degrades toward static's
    serial behaviour (and its response time!).  Abundant memory lets
    every batch job become resident at once, exposing the full
    multiprogramming contention; beyond the batch's footprint the
    curves saturate.  The static policy, which keeps one job per
    partition resident, is insensitive throughout — exactly the
    mechanism behind the paper's Section 5.2 discussion.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for mb in memory_mb:
        transputer = TransputerConfig(memory_bytes=int(mb * 1024 * 1024))
        config = SystemConfig(num_nodes=16, topology=topology,
                              transputer=transputer)
        static_rt, _, _ = run_static_averaged(config, 16, batch)
        ts = MulticomputerSystem(config, TimeSharing()).run_batch(batch)
        rows.append({
            "memory_mb": mb,
            "static": static_rt,
            "timesharing": ts.mean_response_time,
            "ts_memory_wait": (ts.snapshot.memory_wait_time
                               + ts.snapshot.mailbox_wait_time),
        })
    return rows, ["memory_mb", "static", "timesharing", "ts_memory_wait"]


def rr_process_unfairness(topology="mesh", n=130):
    """E8: fixed per-process quanta hand process-rich jobs extra power.

    Two identical-demand matmul jobs share the machine, one written with
    16 processes and one with 4.  Under the RR-job rule both finish
    together (equal power); under RR-process the 16-process job gets 4x
    the processing power and finishes far earlier — Section 2.2's
    fairness argument, quantified.
    """
    rows = []
    for policy_name, policy in (("rr-job", TimeSharing()),
                                ("rr-process", RRProcessPolicy())):
        many = MatMulApplication(n, architecture="fixed", fixed_processes=16)
        few = MatMulApplication(n, architecture="fixed", fixed_processes=4)
        batch = BatchWorkload(
            [JobSpec(many, "many-procs"), JobSpec(few, "few-procs")],
            description="unfairness probe",
        )
        config = SystemConfig(num_nodes=16, topology=topology)
        result = MulticomputerSystem(config, policy).run_batch(batch)
        by_class = {job.size_class: job.response_time for job in result.jobs}
        rows.append({
            "policy": policy_name,
            "many_procs_rt": by_class["many-procs"],
            "few_procs_rt": by_class["few-procs"],
            "few/many": by_class["few-procs"] / by_class["many-procs"],
        })
    return rows, ["policy", "many_procs_rt", "few_procs_rt", "few/many"]


def quantum_sensitivity(quanta_ms=(2, 5, 10, 20, 50, 200),
                        topology="linear", architecture="fixed"):
    """E9: basic-quantum sweep for the time-sharing policy.

    Smaller quanta mean more dispatches (and their context-switch
    overhead); once the RR-job rule fixes each job's power share, the
    quantum itself is a second-order knob — mean response time moves
    only a few percent across two orders of magnitude of q, which is
    why the T805's hard-wired 2 ms timeslice was workable.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for q_ms in quanta_ms:
        config = SystemConfig(num_nodes=16, topology=topology)
        policy = TimeSharing(basic_quantum=q_ms / 1000.0)
        result = MulticomputerSystem(config, policy).run_batch(batch)
        small = result.mean_response_by_class().get("small")
        rows.append({
            "quantum_ms": q_ms,
            "mean_rt": result.mean_response_time,
            "small_job_rt": small,
            "dispatches": result.snapshot.dispatches,
        })
    return rows, ["quantum_ms", "mean_rt", "small_job_rt", "dispatches"]


def placement_sensitivity(topology="linear", architecture="fixed",
                          partition_size=16):
    """E10 (extension): aligned vs staggered process placement.

    The natural implementation maps every job's process i to partition
    processor i, concentrating multiprogrammed coordinators (and their
    traffic and memory) on the first node; staggering placements spreads
    the load and quantifies how much of time-sharing's penalty is a
    placement artefact.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for placement in ("aligned", "staggered"):
        config = SystemConfig(num_nodes=16, topology=topology,
                              placement=placement)
        if partition_size == 16:
            policy = TimeSharing()
        else:
            policy = HybridPolicy(partition_size)
        result = MulticomputerSystem(config, policy).run_batch(batch)
        rows.append({
            "placement": placement,
            "mean_rt": result.mean_response_time,
            "makespan": result.makespan,
            "memory_wait": (result.snapshot.memory_wait_time
                            + result.snapshot.mailbox_wait_time),
        })
    return rows, ["placement", "mean_rt", "makespan", "memory_wait"]


def host_interface_effect(topology="linear", architecture="adaptive"):
    """E11 (extension): job loading through the single host link.

    With host modelling on, a time-shared batch loads all 16 jobs at
    once and the start-up burst serialises through the host link.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for model_host in (False, True):
        config = SystemConfig(num_nodes=16, topology=topology,
                              model_host=model_host)
        static_rt, _, _ = run_static_averaged(config, 16, batch)
        ts = MulticomputerSystem(config, TimeSharing()).run_batch(batch)
        rows.append({
            "model_host": str(model_host),
            "static": static_rt,
            "timesharing": ts.mean_response_time,
        })
    return rows, ["model_host", "static", "timesharing"]


def queue_discipline(partition_size=4, topology="linear",
                     architecture="adaptive"):
    """E13 (extension): ready-queue disciplines for static space-sharing.

    The paper brackets FCFS between its best (small-jobs-first) and
    worst (large-jobs-first) orderings.  Making the orderings *policies*
    — SJF and LJF queue disciplines using the job-characteristic
    information Section 2.1 mentions — shows how much an informed static
    scheduler gains: SJF reproduces the best case regardless of arrival
    order.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    adversarial = batch.ordered("worst")
    config = SystemConfig(num_nodes=16, topology=topology)
    for discipline in ("fcfs", "sjf", "ljf"):
        policy = StaticSpaceSharing(partition_size, discipline=discipline)
        result = MulticomputerSystem(config, policy).run_batch(adversarial)
        rows.append({
            "discipline": discipline,
            "mean_rt": result.mean_response_time,
            "max_rt": result.max_response_time,
        })
    return rows, ["discipline", "mean_rt", "max_rt"]


def routing_strategies(topology="ring", architecture="fixed"):
    """E15 (extension): shortest-path vs Valiant randomised routing.

    The coordinator-centric traffic of the paper's workload concentrates
    on a few links around each coordinator; Valiant's two-phase detours
    diffuse it at the price of ~2x the raw hop count.  Under heavy
    multiprogramming the diffusion can pay for itself; under a single
    job it cannot.
    """
    rows = []
    batch = standard_batch("matmul", architecture=architecture)
    for routing in ("auto", "valiant"):
        config = SystemConfig(num_nodes=16, topology=topology,
                              routing=routing)
        static_rt, _, _ = run_static_averaged(config, 16, batch)
        ts = MulticomputerSystem(config, TimeSharing()).run_batch(batch)
        rows.append({
            "routing": routing,
            "static": static_rt,
            "timesharing": ts.mean_response_time,
        })
    return rows, ["routing", "static", "timesharing"]


def gang_vs_hybrid(partition_size=8, topology="mesh",
                   slots_ms=(20, 50, 100, 200)):
    """E12 (extension): gang scheduling against the paper's hybrid.

    Gang scheduling co-schedules all of a job's processes in a shared
    time slot — the natural refinement of the hybrid policy for
    communicating jobs.  For the paper's matmul (one fork, one join,
    little synchronisation in between) the benefit is modest; the sweep
    over slot lengths shows the fill/drain trade-off.
    """
    rows = []
    batch = standard_batch("matmul", architecture="adaptive")
    config = SystemConfig(num_nodes=16, topology=topology)
    hybrid = MulticomputerSystem(
        config, HybridPolicy(partition_size)
    ).run_batch(batch)
    rows.append({
        "policy": "hybrid",
        "mean_rt": hybrid.mean_response_time,
        "makespan": hybrid.makespan,
    })
    for slot_ms in slots_ms:
        result = MulticomputerSystem(
            config, GangScheduling(partition_size, gang_slot=slot_ms / 1000.0)
        ).run_batch(batch)
        rows.append({
            "policy": f"gang({slot_ms}ms)",
            "mean_rt": result.mean_response_time,
            "makespan": result.makespan,
        })
    return rows, ["policy", "mean_rt", "makespan"]


def tree_distribution(topology="linear", architecture="adaptive"):
    """E14 (extension): fixing the coordinator hotspot algorithmically.

    The paper's matmul sends every worker its own copy of B straight
    from the coordinator, serialising ~T·n² bytes at one node — the
    hotspot behind much of time-sharing's congestion.  Relaying B along
    a binomial tree of the workers cuts the coordinator's traffic to
    O(log T) copies; the sweep compares both distributions under static
    and pure time-sharing.
    """
    rows = []
    config = SystemConfig(num_nodes=16, topology=topology)
    for dist in ("flat", "tree"):
        batch = standard_batch("matmul", architecture=architecture)
        tree_batch = BatchWorkload(
            [JobSpec(MatMulApplication(
                spec.application.n, architecture=architecture,
                b_distribution=dist), spec.size_class)
             for spec in batch],
            description=f"matmul[{dist}]",
        )
        static_rt, _, _ = run_static_averaged(config, 16, tree_batch)
        ts = MulticomputerSystem(config, TimeSharing()).run_batch(tree_batch)
        rows.append({
            "distribution": dist,
            "static": static_rt,
            "timesharing": ts.mean_response_time,
            "ts/static": ts.mean_response_time / static_rt,
        })
    return rows, ["distribution", "static", "timesharing", "ts/static"]


ALL_ABLATIONS = {
    "discipline": queue_discipline,
    "treedist": tree_distribution,
    "routing": routing_strategies,
    "gang": gang_vs_hybrid,
    "variance": variance_crossover,
    "wormhole": wormhole_vs_store_forward,
    "memory": memory_sensitivity,
    "rrprocess": rr_process_unfairness,
    "quantum": quantum_sensitivity,
    "placement": placement_sensitivity,
    "host": host_interface_effect,
}
