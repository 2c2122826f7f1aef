"""Steady-state rate sweeps: the engine behind ``repro-experiments steady``.

The paper's figures are closed 16-job batches; this sweep drives the
machine as an *open* system — a lazy Poisson (or bursty MMPP) stream of
fork-join jobs with exponential service demands — across a grid of
offered loads ρ and scheduling policies, using the streaming
observability layer (:mod:`repro.obs.streaming`) end to end:

- every cell runs ``run_open(collect_jobs=False)``, so memory stays
  O(1) no matter how many jobs ``--duration`` × rate implies;
- each cell reports the MSER-truncated mean response time with a
  batch-means 95% CI and its soundness flags;
- with ``--steady-out`` the windowed time series of every cell is
  emitted as consecutive ``repro-steady/1`` JSONL segments.

Static space-sharing with single-node partitions under this workload is
an M/M/c queue, so the table carries the Erlang-C prediction alongside
— the same closed-form anchor ``examples/open_system.py`` validates
against — which makes the sweep self-checking at a glance.

This grid is the engine for the F8 variance-crossover figure family:
sweep ``--arrival bursty`` (or raise demand variance) against the same
rates and watch the static-vs-time-sharing ordering flip.
"""

from __future__ import annotations

import io

# Every entry point below draws from numpy and streams into the sink, so
# both load with the module (a caller's set-up) rather than inside the
# first cell it times.
import numpy as np

from repro.analysis import mmc_mean_response
from repro.core import (
    MulticomputerSystem,
    StaticSpaceSharing,
    SystemConfig,
    TimeSharing,
)
from repro.obs.streaming import SteadyStateSink
from repro.workload import JobSpec, SyntheticForkJoin, bursty_arrivals, \
    poisson_arrivals

#: Offered loads swept by default (fraction of machine capacity).
DEFAULT_RHOS = (0.3, 0.5, 0.7, 0.85)

#: Mean service demand in operations (0.5 s at the calibrated
#: 3.3e5 ops/s single-node speed — the open_system example's setting).
DEFAULT_MEAN_OPS = 1.65e5

#: Policies the sweep knows how to build.
POLICIES = {
    "static": lambda: StaticSpaceSharing(1),
    "ts": TimeSharing,
}


def _policy_builder(policy_kind):
    """The :data:`POLICIES` entry for ``policy_kind``, or a ``ValueError``."""
    try:
        return POLICIES[policy_kind]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy_kind!r}; choose from {sorted(POLICIES)}"
        ) from None


def _spec_factory(mean_ops):
    def factory(rng):
        ops = max(float(rng.exponential(mean_ops)), 1.0)
        return JobSpec(
            SyntheticForkJoin(ops, architecture="adaptive",
                              message_bytes=64),
            "exp",
        )

    return factory


def steady_cell(policy_kind, rate, duration, *, nodes=4, topology="mesh",
                mean_ops=DEFAULT_MEAN_OPS, seed=7, window=None, log=None,
                decisions=False):
    """Run one open-system cell; returns an ``OpenRunResult``.

    ``window`` defaults to 2% of ``duration`` so every cell emits ~50
    windows regardless of scale; pass an explicit width to align
    windows across cells of different durations.  ``decisions=True``
    enables the scheduling decision ledger: each emitted window then
    carries per-window decision/deferral counts (O(1) memory — the sink
    snapshots the ledger's cumulative totals).
    """
    build = _policy_builder(policy_kind)
    rng = np.random.default_rng(seed)
    factory = _spec_factory(mean_ops)
    arrivals = poisson_arrivals(rate, duration, factory, rng)
    sink = SteadyStateSink(
        window=duration / 50.0 if window is None else window, log=log)
    config = SystemConfig(num_nodes=nodes, topology=topology,
                          decisions=decisions)
    system = MulticomputerSystem(config, build())
    return system.run_open(
        arrivals, collect_jobs=False, sink=sink,
        label=f"{policy_kind}@{rate:g}/s",
    )


def steady_cell_bursty(policy_kind, rate, duration, *, nodes=4,
                       topology="mesh", mean_ops=DEFAULT_MEAN_OPS, seed=7,
                       window=None, log=None, mean_on=2.0, mean_off=2.0,
                       decisions=False):
    """Bursty (MMPP on/off) variant of :func:`steady_cell`.

    ``rate`` is the *offered* long-run rate; the in-burst peak rate is
    scaled up by ``(mean_on + mean_off) / mean_on`` so the two arrival
    disciplines are comparable at equal offered load.
    """
    build = _policy_builder(policy_kind)
    rng = np.random.default_rng(seed)
    factory = _spec_factory(mean_ops)
    peak = rate * (mean_on + mean_off) / mean_on
    arrivals = bursty_arrivals(peak, duration, factory, rng,
                               mean_on=mean_on, mean_off=mean_off)
    sink = SteadyStateSink(
        window=duration / 50.0 if window is None else window, log=log)
    config = SystemConfig(num_nodes=nodes, topology=topology,
                          decisions=decisions)
    system = MulticomputerSystem(config, build())
    return system.run_open(
        arrivals, collect_jobs=False, sink=sink,
        label=f"{policy_kind}@{rate:g}/s bursty",
    )


def run_steady_sweep(rhos=DEFAULT_RHOS, policies=("static", "ts"), *,
                     duration=200.0, nodes=4, topology="mesh",
                     mean_ops=DEFAULT_MEAN_OPS, seed=7, window=None,
                     log=None, arrival="poisson", progress=None,
                     decisions=False):
    """Sweep offered load × policy; returns a list of row dicts.

    Each row carries the cell's counts, the streaming mean, the
    warm-up-truncated steady-state estimate with its CI halfwidth and
    soundness, tail quantiles from the sketch, and — where the M/M/c
    model applies — the Erlang-C prediction for reference.
    """
    service_rate = 3.3e5 / mean_ops
    rows = []
    for policy in policies:
        for rho in rhos:
            rate = rho * nodes * service_rate
            if arrival == "bursty":
                result = steady_cell_bursty(
                    policy, rate, duration, nodes=nodes, topology=topology,
                    mean_ops=mean_ops, seed=seed, window=window, log=log,
                    decisions=decisions)
            elif arrival == "poisson":
                result = steady_cell(
                    policy, rate, duration, nodes=nodes, topology=topology,
                    mean_ops=mean_ops, seed=seed, window=window, log=log,
                    decisions=decisions)
            else:
                raise ValueError(
                    f"unknown arrival discipline {arrival!r}; choose "
                    f"'poisson' or 'bursty'"
                )
            steady = result.steady
            row = {
                "policy": policy,
                "rho": rho,
                "rate": rate,
                "jobs": result.jobs_completed,
                "mean_rt": result.mean_response_time,
                "steady_rt": steady["mean"],
                "ci95": steady["ci95"],
                "p50": result.percentile_response(50),
                "p99": result.percentile_response(99),
                "warmup_jobs": steady["warmup_jobs"],
                "sound": steady["sound"],
                "util": result.snapshot.mean_cpu_utilization,
            }
            # The Erlang-C prediction exists only for a stable queue,
            # offered load below one; past it the column stays empty.
            if (policy == "static" and arrival == "poisson"
                    and rate / service_rate < nodes):
                row["mmc_rt"] = mmc_mean_response(rate, service_rate, nodes)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows


def format_steady_table(rows, title="=== Steady-state sweep"):
    """Aligned per-policy table: ρ, rate, warm-up cut, mean ± CI, tails."""
    out = io.StringIO()
    out.write(title + "\n")
    header = (f"{'policy':>8}{'rho':>7}{'rate/s':>9}{'jobs':>9}"
              f"{'warmup':>8}{'rt mean':>10}{'steady rt ±95% CI':>21}"
              f"{'p50':>9}{'p99':>9}{'M/M/c':>9}{'util':>7}  sound\n")
    out.write(header)
    out.write("-" * (len(header) + 1) + "\n")
    last_policy = None
    for row in rows:
        if last_policy is not None and row["policy"] != last_policy:
            out.write("\n")
        last_policy = row["policy"]
        mmc = (f"{row['mmc_rt']:9.3f}" if "mmc_rt" in row
               else f"{'—':>9}")
        ci = f"{row['steady_rt']:9.3f} ± {row['ci95']:7.3f}"
        out.write(
            f"{row['policy']:>8}{row['rho']:7.2f}{row['rate']:9.2f}"
            f"{row['jobs']:9d}{row['warmup_jobs']:8d}"
            f"{row['mean_rt']:10.3f}{ci:>21}"
            f"{row['p50']:9.3f}{row['p99']:9.3f}{mmc}"
            f"{row['util']:7.2f}  {'yes' if row['sound'] else 'NO'}\n"
        )
    return out.getvalue()
