"""Butterfly-exchange workload (FFT-style, extension).

The third classic communication pattern after fork-join and
divide-and-conquer: in round ``l`` of ``log2(T)``, process ``w``
exchanges its full partial result with partner ``w XOR 2^l`` and
combines — the data-flow of an FFT, parallel prefix, or dimension-wise
all-reduce.  On a hypercube every exchange is nearest-neighbour; on a
linear array the late rounds span half the machine — the most
topology-revealing workload in the library.
"""

from __future__ import annotations

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS, ELEMENT_BYTES


def _is_pow2(x):
    return x >= 1 and (x & (x - 1)) == 0


class ButterflyApplication(Application):
    """log2(T)-round butterfly over n elements (n/T per process)."""

    name = "butterfly"

    def __init__(self, n, architecture=ADAPTIVE, fixed_processes=16,
                 ops_per_element_round=5.0, costs=None):
        super().__init__(architecture, fixed_processes)
        if n < 1:
            raise ValueError("n must be >= 1")
        if not _is_pow2(fixed_processes):
            raise ValueError("fixed_processes must be a power of two")
        if ops_per_element_round <= 0:
            raise ValueError("ops_per_element_round must be positive")
        self.n = int(n)
        self.ops_per_element_round = float(ops_per_element_round)
        self.costs = costs or DEFAULT_COSTS

    def num_processes(self, partition_size):
        count = super().num_processes(partition_size)
        if not _is_pow2(count):
            raise ValueError(
                f"butterfly needs a power-of-two process count, got {count}"
            )
        return count

    def total_ops(self, num_processes):
        depth = max(num_processes.bit_length() - 1, 1)
        return self.ops_per_element_round * self.n * depth

    @property
    def load_bytes(self):
        from repro.workload.application import DEFAULT_CODE_BYTES

        return DEFAULT_CODE_BYTES + self.n * ELEMENT_BYTES

    @property
    def result_bytes(self):
        return self.n * ELEMENT_BYTES

    # -- simulation logic --------------------------------------------------
    def run(self, ctx):
        T = ctx.job.num_processes
        workers = [
            ctx.spawn(self._proc(ctx, w, T), name=f"{ctx.job.name}-bf{w}")
            for w in range(1, T)
        ]
        yield from self._proc(ctx, 0, T)
        if workers:
            yield ctx.all_of(workers)

    def _proc(self, ctx, w, T):
        seg = max(self.n // T, 1)
        seg_bytes = seg * ELEMENT_BYTES
        yield ctx.alloc(w, 2 * seg_bytes)  # segment + exchange buffer
        depth = T.bit_length() - 1
        round_ops = self.ops_per_element_round * seg
        if depth == 0:
            yield ctx.compute(w, round_ops)
            return
        for level in range(depth):
            partner = w ^ (1 << level)
            ctx.send(w, partner, seg_bytes, tag=("xch", partner, level))
            yield ctx.recv(w, tag=("xch", w, level))
            yield ctx.compute(w, round_ops)

    def describe(self):
        return f"butterfly(n={self.n})[{self.architecture}]"
