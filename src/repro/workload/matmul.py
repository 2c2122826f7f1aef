"""Matrix multiplication: the fork-and-join workload (paper Section 4.1).

The coordinator (process 0) multiplies A x B by shipping the *whole* of
matrix B plus a row slice of A to each worker; every process — the
coordinator included — then computes its slice of the result without
further communication, and the coordinator joins the returned slices.
This specific algorithm is chosen, as in the paper, to represent a
workload with *low communication among workers* (all traffic is
coordinator <-> worker).

Memory: the coordinator holds full A, B and C; each worker holds its own
copy of B plus its A and C slices — which is why the fixed architecture
(16 processes regardless of processors) carries a much larger message
and memory footprint than the adaptive one on small partitions.
"""

from __future__ import annotations

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS


class MatMulApplication(Application):
    """Multiply two n x n matrices with a fork-join process structure."""

    name = "matmul"

    def __init__(self, n, architecture=ADAPTIVE, fixed_processes=16,
                 costs=None, b_distribution="flat"):
        super().__init__(architecture, fixed_processes)
        if n < 1:
            raise ValueError("matrix dimension n must be >= 1")
        if b_distribution not in ("flat", "tree"):
            raise ValueError(
                f"b_distribution must be 'flat' or 'tree', "
                f"got {b_distribution!r}"
            )
        self.n = int(n)
        self.costs = costs or DEFAULT_COSTS
        #: How matrix B reaches the workers: "flat" — the coordinator
        #: sends every worker its own copy (the paper's algorithm, which
        #: serialises ~T*n^2 bytes at the coordinator); "tree" — B
        #: relays along a binomial tree of the workers, so the
        #: coordinator emits only O(log T) copies (extension E14).
        self.b_distribution = b_distribution

    def total_ops(self, num_processes):
        return self.costs.matmul_total_ops(self.n)

    @property
    def load_bytes(self):
        """Program image plus the input matrices A and B."""
        from repro.workload.application import DEFAULT_CODE_BYTES

        return DEFAULT_CODE_BYTES + 2 * self.costs.matmul_b_bytes(self.n)

    @property
    def result_bytes(self):
        """The result matrix C goes back to the host."""
        return self.costs.matmul_b_bytes(self.n)

    # -- simulation logic ----------------------------------------------
    def run(self, ctx):
        """Coordinator: fork work, compute own share, join results."""
        n = self.n
        cm = self.costs
        T = ctx.job.num_processes
        rows = cm.split_rows(n, T)

        # Load the job: full A, B and C at the coordinator.
        yield ctx.alloc(0, cm.matmul_memory_coordinator(n))

        # Start the workers first so their receives are posted.
        workers = [
            ctx.spawn(
                self._worker(ctx, w, rows[w]),
                name=f"{ctx.job.name}-mm{w}",
            )
            for w in range(1, T)
        ]

        # FORK: ship B plus the A slice to each worker — but only once
        # the worker has its workspace allocated ("ready" handshake).
        # On a memory-tight node, pushing a 100 KB message at a worker
        # that cannot yet hold it would pin scarce mailbox memory and,
        # in the worst case, deadlock the node (the blocked worker is
        # the only consumer that could free it).
        if self.b_distribution == "flat":
            for _ in range(1, T):
                msg = yield ctx.recv(0, tag="ready")
                w = msg.payload
                ctx.send(
                    0, w,
                    cm.matmul_b_bytes(n) + cm.matmul_slice_bytes(n, rows[w]),
                    tag=("work", w),
                    payload=rows[w],
                )
        else:
            # Tree distribution: wait until every worker is ready, then
            # start B down the binomial tree (the coordinator emits only
            # O(log T) copies) and scatter the small A slices directly.
            from repro.comm.collectives import _tree_children

            for _ in range(1, T):
                yield ctx.recv(0, tag="ready")
            for child in _tree_children(0, T):
                ctx.send(0, child, cm.matmul_b_bytes(n), tag=("B", child))
            for w in range(1, T):
                ctx.send(0, w, cm.matmul_slice_bytes(n, rows[w]),
                         tag=("A", w), payload=rows[w])

        # The coordinator computes its own slice like any worker.
        yield ctx.compute(0, cm.matmul_worker_ops(n, rows[0]))

        # JOIN: collect every worker's result slice and assemble C.
        for _ in range(T - 1):
            yield ctx.recv(0, tag="result")
        yield ctx.compute(0, cm.stream_factor * n * n)

        # Workers have all sent their results, but let their processes
        # finish cleanly before the job is declared complete.
        if workers:
            yield ctx.all_of(workers)

    def _worker_footprint(self, ctx, w, rows, T):
        """Bytes this worker allocates on its node.

        Matrix B is stored *once per processor per job* (the paper:
        "one matrix per application is distributed to each processor in
        a partition"), so only the lowest-index worker on a node
        allocates the B copy; co-located workers add just their A and C
        slices, and workers sharing the coordinator's node use the
        coordinator's full matrices.
        """
        n = self.n
        cm = self.costs
        slices = 2 * cm.matmul_slice_bytes(n, rows)
        my_node = ctx.place(w)
        if my_node == ctx.place(0):
            return slices
        first = min(v for v in range(1, T) if ctx.place(v) == my_node)
        if w == first:
            return slices + cm.matmul_b_bytes(n)
        return slices

    def _worker(self, ctx, w, rows):
        n = self.n
        cm = self.costs
        T = ctx.job.num_processes
        # Worker workspace: B (once per node) plus its A and C slices.
        yield ctx.alloc(w, self._worker_footprint(ctx, w, rows, T))
        ctx.send(w, 0, 64, tag="ready", payload=w)
        if self.b_distribution == "flat":
            yield ctx.recv(w, tag=("work", w))
        else:
            from repro.comm.collectives import _tree_children

            yield ctx.recv(w, tag=("B", w))
            for child in _tree_children(w, T):
                ctx.send(w, child, cm.matmul_b_bytes(n), tag=("B", child))
            yield ctx.recv(w, tag=("A", w))
        yield ctx.compute(w, cm.matmul_worker_ops(n, rows))
        ctx.send(w, 0, cm.matmul_slice_bytes(n, rows), tag="result",
                 payload=w)

    def describe(self):
        suffix = "" if self.b_distribution == "flat" else ",tree"
        return f"matmul(n={self.n}{suffix})[{self.architecture}]"
