"""Experimental workloads.

The paper evaluates two applications, each under two software
architectures:

- :class:`~repro.workload.matmul.MatMulApplication` — fork-and-join:
  a coordinator ships matrix B plus a slice of matrix A to each worker,
  every worker (and the coordinator itself) multiplies independently,
  and the coordinator joins the result slices.  Low worker-to-worker
  communication by construction.
- :class:`~repro.workload.sort.SortApplication` — divide-and-conquer:
  a binary fan-out of the array, an O(n²) selection-sort worker phase,
  and an O(n) merge fan-in.  The superlinear worker phase is why the
  *fixed* architecture (many small sub-arrays) wins for sort.
- :class:`~repro.workload.synthetic.SyntheticForkJoin` — a fork-join
  job with a controllable service-demand distribution, used for the
  variance-crossover ablation (E5).

Software architectures (Section 4.3): **fixed** — the process count is
baked in at compile time (16 in the paper's runs) regardless of the
partition size; **adaptive** — the program creates exactly as many
processes as it has processors.

:func:`standard_batch` builds the paper's batch: 16 jobs, 12 small and
4 large, in a deterministic interleaved order; ``ordering`` gives the
best (smallest-first) and worst (largest-first) orders used to report
the static policy fairly.
"""

from repro import _lazy_exports

# Names resolve on first use: a figure run loads the paper's two
# applications, not the arrival processes and the extra workloads.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "application": ("ADAPTIVE", "FIXED", "Application",
                    "SoftwareArchitectureError"),
    "arrivals": ("bursty_arrivals", "poisson_arrivals", "trace_arrivals",
                 "uniform_arrivals"),
    "batch": ("BatchWorkload", "JobSpec", "standard_batch"),
    "butterfly": ("ButterflyApplication",),
    "costs": ("CostModel",),
    "matmul": ("MatMulApplication",),
    "pipeline": ("PipelineApplication",),
    "sort": ("SortApplication",),
    "stencil": ("StencilApplication",),
    "synthetic": ("SyntheticForkJoin",),
})

__all__ = [
    "ADAPTIVE",
    "Application",
    "BatchWorkload",
    "ButterflyApplication",
    "CostModel",
    "FIXED",
    "JobSpec",
    "MatMulApplication",
    "PipelineApplication",
    "SoftwareArchitectureError",
    "SortApplication",
    "StencilApplication",
    "SyntheticForkJoin",
    "bursty_arrivals",
    "poisson_arrivals",
    "standard_batch",
    "trace_arrivals",
    "uniform_arrivals",
]
