"""Iterative stencil computation (extension workload).

The paper's two applications communicate coordinator-to-worker only; a
five-point stencil (Jacobi/SOR-style grid relaxation) is the canonical
*neighbour-communicating* workload, and it is precisely the class for
which the interconnect topology matters most: each iteration every
process exchanges boundary rows with its logical neighbours, so a
process placement whose logical neighbours are physically distant pays
multi-hop store-and-forward costs every single iteration.

Decomposition: the n x n grid is split into T horizontal strips;
process w owns ~n/T rows, computes ``stencil_points * cells`` operation
per iteration, and swaps one boundary row (n * 8 bytes) with each of
its strip neighbours between iterations.
"""

from __future__ import annotations

from repro.workload.application import ADAPTIVE, Application
from repro.workload.costs import DEFAULT_COSTS, ELEMENT_BYTES


class StencilApplication(Application):
    """Five-point stencil over an n x n grid for a fixed iteration count."""

    name = "stencil"

    def __init__(self, n, iterations=10, architecture=ADAPTIVE,
                 fixed_processes=16, costs=None, points=5):
        super().__init__(architecture, fixed_processes)
        if n < 1:
            raise ValueError("grid dimension n must be >= 1")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if points < 1:
            raise ValueError("points must be >= 1")
        self.n = int(n)
        self.iterations = int(iterations)
        self.points = points
        self.costs = costs or DEFAULT_COSTS

    def total_ops(self, num_processes):
        return float(self.points) * self.n * self.n * self.iterations

    @property
    def load_bytes(self):
        from repro.workload.application import DEFAULT_CODE_BYTES

        return DEFAULT_CODE_BYTES + self.n * self.n * ELEMENT_BYTES

    @property
    def result_bytes(self):
        return self.n * self.n * ELEMENT_BYTES

    # -- simulation logic ---------------------------------------------------
    def run(self, ctx):
        T = ctx.job.num_processes
        rows = self.costs.split_rows(self.n, T)
        workers = [
            ctx.spawn(self._strip(ctx, w, T, rows[w]),
                      name=f"{ctx.job.name}-st{w}")
            for w in range(1, T)
        ]
        yield from self._strip(ctx, 0, T, rows[0])
        if workers:
            yield ctx.all_of(workers)

    def _strip(self, ctx, w, T, my_rows):
        n = self.n
        boundary_bytes = n * ELEMENT_BYTES
        # Strip storage: my rows plus up to two ghost rows.
        ghosts = (1 if w > 0 else 0) + (1 if w < T - 1 else 0)
        yield ctx.alloc(w, (my_rows + ghosts) * n * ELEMENT_BYTES)

        cell_ops = float(self.points) * my_rows * n
        for it in range(self.iterations):
            # Exchange boundaries with strip neighbours (skip iteration 0:
            # initial ghosts arrive with the problem data).
            if it > 0:
                if w > 0:
                    ctx.send(w, w - 1, boundary_bytes,
                             tag=("ghost", w - 1, "up", it))
                if w < T - 1:
                    ctx.send(w, w + 1, boundary_bytes,
                             tag=("ghost", w + 1, "down", it))
                if w > 0:
                    yield ctx.recv(w, tag=("ghost", w, "down", it))
                if w < T - 1:
                    yield ctx.recv(w, tag=("ghost", w, "up", it))
            yield ctx.compute(w, cell_ops)

    def describe(self):
        return (f"stencil(n={self.n}, iters={self.iterations})"
                f"[{self.architecture}]")
