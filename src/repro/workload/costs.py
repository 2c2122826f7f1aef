"""Operation-count cost models for the workloads.

The simulator executes computation as timed CPU bursts; these helpers
centralise the operation counts so tests can check them against the
complexity the paper states (O(n³) multiply, O(n²) selection sort,
O(n) divide/merge) and experiments can scale problem sizes coherently.

``element_bytes`` is 8 throughout (double-precision reals / full-word
keys on the T805).
"""

from __future__ import annotations

from dataclasses import dataclass

ELEMENT_BYTES = 8


@dataclass(frozen=True)
class CostModel:
    """Tunable constants multiplying the analytic operation counts."""

    #: Operations per scalar multiply-add in the matmul inner loop.
    matmul_flop_factor: float = 2.0
    #: Operations per comparison in the selection-sort inner loop.
    sort_compare_factor: float = 1.0
    #: Operations per element moved in a divide or merge phase.
    stream_factor: float = 1.0

    # -- matrix multiplication -------------------------------------------
    def matmul_total_ops(self, n):
        """Multiply two n x n matrices: n^2 dot products of length n."""
        return self.matmul_flop_factor * n ** 3

    def matmul_worker_ops(self, n, rows):
        """One worker computing ``rows`` rows of the result."""
        return self.matmul_flop_factor * rows * n * n

    def matmul_b_bytes(self, n):
        """Full matrix B, sent to every worker."""
        return n * n * ELEMENT_BYTES

    def matmul_slice_bytes(self, n, rows):
        """A ``rows``-row slice of A (or of the result C)."""
        return rows * n * ELEMENT_BYTES

    def matmul_memory_per_worker(self, n, rows):
        """Worker footprint: a copy of B plus its A and C slices."""
        return self.matmul_b_bytes(n) + 2 * self.matmul_slice_bytes(n, rows)

    def matmul_memory_coordinator(self, n):
        """Coordinator footprint: full A, B and C."""
        return 3 * n * n * ELEMENT_BYTES

    @staticmethod
    def split_rows(n, num_workers):
        """Row counts per worker, distributing the remainder evenly."""
        base, extra = divmod(n, num_workers)
        return [base + (1 if i < extra else 0) for i in range(num_workers)]

    # -- sorting ------------------------------------------------------------
    def selection_sort_ops(self, length):
        """Selection sort is Theta(n^2/2) comparisons."""
        return self.sort_compare_factor * length * length / 2.0

    def divide_ops(self, length):
        """Splitting / copying ``length`` elements is linear."""
        return self.stream_factor * length

    def merge_ops(self, length):
        """Merging into a ``length``-element segment is linear."""
        return self.stream_factor * length

    def segment_bytes(self, length):
        return length * ELEMENT_BYTES

    # -- generic ---------------------------------------------------------
    def scatter_bytes(self, total_bytes, num_workers):
        """Even split of a payload across workers."""
        base, extra = divmod(total_bytes, num_workers)
        return [base + (1 if i < extra else 0) for i in range(num_workers)]


#: The default constants, shared by every application built without its
#: own model: the model is frozen, so one instance serves them all and
#: an application costs no model of its own.
DEFAULT_COSTS = CostModel()
