"""Synthetic fork-join jobs with controllable service demand.

Used for the variance ablation (E5): the paper observes that with its
moderate job-size variance static space-sharing wins, but cites the
companion technical report for the result that *high* service-demand
variance flips the ranking in favour of time-sharing (small jobs stop
being stuck behind monopolising large ones).  A synthetic fork-join job
makes the demand an explicit parameter so experiments can sweep the
coefficient of variation directly.
"""

from __future__ import annotations

import math

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS


class SyntheticForkJoin(Application):
    """Fork-join job computing ``total_ops`` split evenly over workers.

    The coordinator scatters a small work descriptor to every worker,
    each worker computes its share, and results gather back — the same
    communication skeleton as matmul with the computation volume made
    explicit.
    """

    name = "synthetic"

    def __init__(self, total_ops, architecture=ADAPTIVE, fixed_processes=16,
                 message_bytes=1024, costs=None):
        super().__init__(architecture, fixed_processes)
        if total_ops <= 0:
            raise ValueError("total_ops must be positive")
        if message_bytes < 0:
            raise ValueError("message_bytes must be >= 0")
        self.total_ops_value = float(total_ops)
        self.message_bytes = int(message_bytes)
        self.costs = costs or DEFAULT_COSTS

    def total_ops(self, num_processes):
        return self.total_ops_value

    def run(self, ctx):
        T = ctx.job.num_processes
        share = self.total_ops_value / T
        workers = [
            ctx.spawn(self._worker(ctx, w, share),
                      name=f"{ctx.job.name}-syn{w}")
            for w in range(1, T)
        ]
        for w in range(1, T):
            ctx.send(0, w, self.message_bytes, tag=("work", w))
        yield ctx.compute(0, share)
        for _ in range(T - 1):
            yield ctx.recv(0, tag="done")
        if workers:
            yield ctx.all_of(workers)

    def _worker(self, ctx, w, share):
        yield ctx.recv(w, tag=("work", w))
        yield ctx.compute(w, share)
        ctx.send(w, 0, self.message_bytes, tag="done")

    def describe(self):
        return (f"synthetic(ops={self.total_ops_value:.3g})"
                f"[{self.architecture}]")


def lognormal_demands(mean_ops, cv, count, rng):
    """Draw ``count`` service demands with the given mean and CV.

    A lognormal keeps demands positive at any coefficient of variation;
    ``cv = 0`` degenerates to the deterministic mean.
    """
    if mean_ops <= 0:
        raise ValueError("mean_ops must be positive")
    if cv < 0:
        raise ValueError("cv must be >= 0")
    if cv == 0:
        return [mean_ops] * count
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean_ops) - sigma2 / 2.0
    return [float(rng.lognormal(mu, math.sqrt(sigma2))) for _ in range(count)]
