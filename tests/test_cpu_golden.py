"""Golden trajectories of the T805 CPU model.

Each case runs a small simulation that leans on one part of the CPU
dispatch path and serialises what that path decides: job outputs, the
per-node CPU accounting, the event counts, and (where telemetry and the
decision ledger are on) the ledger's ``cpu`` tallies plus the count and
total duration of the ``cpu.slice``, ``cpu.wait`` and ``cpu.preempt``
records.  The SHA-256 digest of each document is pinned below, so a
change to any slice boundary, dispatch order, preemption or accounting
fails here.  A speed change to the CPU model must leave every digest
alone; only a change meant to alter simulated results may re-pin them,
by pasting the output of ``PYTHONPATH=src python tests/test_cpu_golden.py``
into ``GOLDEN``.
"""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.core import (
    GangScheduling,
    HybridPolicy,
    MulticomputerSystem,
    SystemConfig,
    TimeSharing,
)
from repro.transputer import TransputerConfig
from repro.workload import standard_batch

GOLDEN = {
    "figure3-cell":
        "bfd5d2421001db2420a78cddf361bd08a2a076e2765dbcd1cacbe74f4f973ffc",
    "steady-smoke":
        "fba4d0003d6f606b269583ef88a274b01d7c49d63d0db0ff2525b223e27f706e",
    "gang-pause":
        "2421829533cbe15dfc1461cc8cfc93cf0e82a333d3e5c5a63ed185471aef5d8e",
    "requeue-front":
        "70bf720b7f7df8036f7159ca7ec4822b079c3226ff00fea619008ea42cd1dd29",
    "zero-overhead":
        "4bd2a4c073904f7c5bb257fabfb6e5407e7ee696b1b5110d70fa0123be21ce28",
}


def _figure_cell_doc():
    from repro.experiments import ExperimentScale, run_cell

    scale = ExperimentScale(
        "tiny", num_small=2, num_large=1,
        matmul_small=16, matmul_large=32,
        sort_small=256, sort_large=512,
        partition_sizes=(1, 4), topologies=("linear",),
    )
    cell = run_cell(3, "matmul", "fixed", 4, "linear", "timesharing", scale)
    return dataclasses.asdict(cell)


def _steady_smoke_doc():
    from repro.experiments.steady import steady_cell

    result = steady_cell("static", rate=4.0, duration=30.0, nodes=4, seed=3)
    return {
        "arrived": result.jobs_arrived,
        "completed": result.jobs_completed,
        "mean": result.mean_response_time,
        "steady": result.steady,
        "summary": result.summary,
    }


def _system_doc(policy, batch, **transputer):
    """Run ``batch`` on 4 mesh nodes with telemetry and the ledger on."""
    config = SystemConfig(num_nodes=4, topology="mesh", telemetry=True,
                          decisions=True,
                          transputer=TransputerConfig(**transputer))
    system = MulticomputerSystem(config, policy)
    result = system.run_batch(batch)
    # Job ids and names come from a process-global counter, so jobs are
    # identified by their position in the batch.
    jobs = [[job.size_class, job.num_processes, job.submitted_at,
             job.dispatched_at, job.started_at, job.completed_at]
            for job in result.jobs]
    records = {}
    for category in ("cpu.slice", "cpu.wait", "cpu.preempt"):
        events = system.telemetry.recorder.by_category(category)
        records[category] = [
            len(events), math.fsum(e.detail.get("dur", 0.0) for e in events)]
    return {
        "jobs": jobs,
        "cpu": [dataclasses.asdict(system.nodes[n].cpu.stats)
                for n in sorted(system.nodes)],
        "events": system.env.events_processed,
        "handoffs": system.env.handoffs,
        "ledger_cpu": [[kind, reason, n] for layer, kind, reason, n
                       in system.decisions.counts_sorted() if layer == "cpu"],
        "records": records,
        "dropped": system.telemetry.recorder.dropped,
    }


def _gang_doc():
    # Two jobs' processes share each node, and gang rotation every 3 ms
    # pauses the outgoing job's tags mid-slice (and once during a
    # dispatch's context switch).
    batch = standard_batch("matmul", architecture="fixed", num_small=3,
                           num_large=1, small_size=16, large_size=32,
                           fixed_processes=4)
    return _system_doc(GangScheduling(2, gang_slot=0.003), batch)


def _requeue_front_doc():
    batch = standard_batch("matmul", architecture="fixed", num_small=2,
                           num_large=1, small_size=16, large_size=32,
                           fixed_processes=4)
    return _system_doc(TimeSharing(), batch, requeue_at_back=False)


def _zero_overhead_doc():
    batch = standard_batch("sort", architecture="fixed", num_small=2,
                           num_large=1, small_size=256, large_size=512,
                           fixed_processes=4)
    return _system_doc(HybridPolicy(2), batch, context_switch_overhead=0.0)


CASES = {
    "figure3-cell": _figure_cell_doc,
    "steady-smoke": _steady_smoke_doc,
    "gang-pause": _gang_doc,
    "requeue-front": _requeue_front_doc,
    "zero-overhead": _zero_overhead_doc,
}


def digest(doc):
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cpu_golden_trajectory(name):
    """The run document serialises to exactly the pinned digest."""
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, build in CASES.items():
        print(f"    {name!r}:\n        {digest(build())!r},")
