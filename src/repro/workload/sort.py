"""Sorting: the divide-and-conquer workload (paper Section 4.2).

A binary fan-out distributes the array: in round ``l`` every active
process ``w < 2^l`` splits its segment and sends half to process
``w + 2^l``.  After ``log2(T)`` rounds each of the T processes holds
``n/T`` elements and sorts them with **selection sort** (Theta(n²/2)
comparisons — the paper deliberately uses a quadratic sort), then the
segments merge back up the same tree with linear merges.

Because the worker phase is quadratic while divide/merge are linear,
cutting segments smaller reduces total work superlinearly: the *fixed*
architecture (always 16 processes, so 16 small sub-arrays, even on one
processor) substantially outperforms the adaptive one on small
partitions — the paper's headline observation for this workload.

The process count must be a power of two (binary tree).
"""

from __future__ import annotations

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS


def _is_pow2(x):
    return x >= 1 and (x & (x - 1)) == 0


def _spawn_level(w):
    """Tree round in which process ``w`` becomes active (w > 0)."""
    return w.bit_length() - 1


class SortApplication(Application):
    """Sort ``n`` elements with a divide-and-conquer process tree."""

    name = "sort"

    def __init__(self, n, architecture=ADAPTIVE, fixed_processes=16,
                 costs=None):
        super().__init__(architecture, fixed_processes)
        if n < 1:
            raise ValueError("array length n must be >= 1")
        if not _is_pow2(fixed_processes):
            raise ValueError("fixed_processes must be a power of two")
        self.n = int(n)
        self.costs = costs or DEFAULT_COSTS

    def num_processes(self, partition_size):
        count = super().num_processes(partition_size)
        if not _is_pow2(count):
            raise ValueError(
                f"sort needs a power-of-two process count, got {count}"
            )
        return count

    @property
    def load_bytes(self):
        """Program image plus the unsorted array."""
        from repro.workload.application import DEFAULT_CODE_BYTES

        return DEFAULT_CODE_BYTES + self.costs.segment_bytes(self.n)

    @property
    def result_bytes(self):
        """The sorted array goes back to the host."""
        return self.costs.segment_bytes(self.n)

    def total_ops(self, num_processes):
        """Analytic total: divide + sort + merge over the whole tree."""
        cm = self.costs
        T = num_processes
        n = self.n
        depth = T.bit_length() - 1
        ops = T * cm.selection_sort_ops(n / T)
        # Every level moves ~n elements in divide and merges ~n elements.
        for level in range(depth):
            seg = n / (1 << level)
            ops += (1 << level) * (cm.divide_ops(seg) + cm.merge_ops(seg))
        return ops

    # -- simulation logic --------------------------------------------------
    def run(self, ctx):
        T = ctx.job.num_processes
        cm = self.costs
        workers = [
            ctx.spawn(
                self._proc(ctx, w, T),
                name=f"{ctx.job.name}-sort{w}",
            )
            for w in range(1, T)
        ]
        yield ctx.alloc(0, cm.segment_bytes(self.n))
        yield from self._tree_logic(ctx, 0, T, self.n)
        if workers:
            yield ctx.all_of(workers)

    def _proc(self, ctx, w, T):
        cm = self.costs
        # Wait to be activated: the parent ships this process's segment.
        msg = yield ctx.recv(w, tag=("seg", w))
        seglen = msg.payload
        yield ctx.alloc(w, cm.segment_bytes(seglen))
        yield from self._tree_logic(ctx, w, T, seglen)

    def _tree_logic(self, ctx, w, T, seglen):
        """Divide / sort / merge for one process of the binary tree."""
        cm = self.costs
        depth = T.bit_length() - 1
        first_round = 0 if w == 0 else _spawn_level(w) + 1

        # DIVIDE: split and ship the upper half each remaining round.
        kept = seglen
        sent_halves = []  # (partner, round, length), for the merge phase
        for level in range(first_round, depth):
            partner = w + (1 << level)
            give = kept // 2
            kept -= give
            yield ctx.compute(w, cm.divide_ops(kept + give))
            ctx.send(w, partner, cm.segment_bytes(give),
                     tag=("seg", partner), payload=give)
            sent_halves.append((partner, level, give))

        # WORK: selection-sort the final segment (quadratic!).
        yield ctx.compute(w, cm.selection_sort_ops(kept))

        # MERGE: fold in each sorted half as it arrives.  Every child
        # returns its half under one tag, ("sorted", parent), so they
        # are taken in arrival order (rather than reverse send order),
        # which matters on the memory-tight nodes: a parked message
        # pins mailbox memory, and at high multiprogramming levels
        # enough parked halves could starve the very message being
        # waited on.
        for _ in sent_halves:
            msg = yield ctx.recv(w, tag=("sorted", w))
            give = msg.payload
            yield ctx.compute(w, cm.merge_ops(kept + give))
            kept += give

        # Return the sorted segment to the parent.
        if w > 0:
            level = _spawn_level(w)
            parent = w - (1 << level)
            ctx.send(w, parent, cm.segment_bytes(kept),
                     tag=("sorted", parent), payload=kept)

    def describe(self):
        return f"sort(n={self.n})[{self.architecture}]"
