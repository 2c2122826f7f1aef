"""Software pipeline application (extension workload).

A chain of T stages; a stream of items enters at stage 0 and each stage
performs ``ops_per_item`` work before forwarding the item to the next
stage.  Throughput is set by the slowest stage plus the inter-stage
transfer cost; on a linear array with aligned placement the logical
chain maps perfectly onto the physical links, while on other topologies
(or with more stages than processors) forwarding costs multiply —
another topology-sensitive complement to the paper's workloads.
"""

from __future__ import annotations

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS


class PipelineApplication(Application):
    """T-stage pipeline processing ``items`` items of ``item_bytes``."""

    name = "pipeline"

    def __init__(self, items, ops_per_item, item_bytes=4096,
                 architecture=ADAPTIVE, fixed_processes=16, costs=None):
        super().__init__(architecture, fixed_processes)
        if items < 1:
            raise ValueError("items must be >= 1")
        if ops_per_item <= 0:
            raise ValueError("ops_per_item must be positive")
        if item_bytes < 0:
            raise ValueError("item_bytes must be >= 0")
        self.items = int(items)
        self.ops_per_item = float(ops_per_item)
        self.item_bytes = int(item_bytes)
        self.costs = costs or DEFAULT_COSTS

    def total_ops(self, num_processes):
        # Every item passes every stage.
        return self.items * self.ops_per_item * num_processes

    # -- simulation logic ----------------------------------------------------
    def run(self, ctx):
        T = ctx.job.num_processes
        stages = [
            ctx.spawn(self._stage(ctx, s, T), name=f"{ctx.job.name}-pl{s}")
            for s in range(1, T)
        ]
        yield from self._stage(ctx, 0, T)
        if stages:
            yield ctx.all_of(stages)

    def _stage(self, ctx, s, T):
        # Stage workspace: one in-flight item plus working storage.
        yield ctx.alloc(s, max(2 * self.item_bytes, 1))
        for i in range(self.items):
            if s > 0:
                yield ctx.recv(s, tag=("item", s, i))
            yield ctx.compute(s, self.ops_per_item)
            if s < T - 1:
                ctx.send(s, s + 1, self.item_bytes, tag=("item", s + 1, i))

    def describe(self):
        return (f"pipeline(items={self.items}, ops={self.ops_per_item:g})"
                f"[{self.architecture}]")
