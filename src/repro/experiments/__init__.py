"""Experiment harness: regenerate every figure in the paper's evaluation.

The evaluation section of the paper contains four figures (mean batch
response time versus partition size x topology):

- Figure 3 — matrix multiplication, fixed software architecture (E1)
- Figure 4 — matrix multiplication, adaptive architecture (E2)
- Figure 5 — sort, fixed architecture (E3)
- Figure 6 — sort, adaptive architecture (E4)

plus several quantitative claims reproduced here as ablations:

- E5 variance crossover (Section 5.2 / companion TR): high service-
  demand variance flips the static-vs-time-sharing ranking;
- E6 wormhole routing (Section 5.2 discussion): removes intermediate
  buffering and most topology sensitivity;
- E7 memory-size sensitivity: the contention mechanism behind the
  time-sharing degradation;
- E8 RR-process unfairness (Section 2.2): fixed per-process quanta give
  process-rich jobs an outsized share;
- E9 quantum-size sensitivity (Section 3.1 hardware mechanism).

Use :func:`run_figure` / :func:`run_ablation` from Python, or the CLI::

    python -m repro.experiments --figure 3
    python -m repro.experiments --ablation variance
"""

from repro import _lazy_exports

# Public names resolve on first use, so a figure run never pays for the
# process pool (parallel) or numpy (ablations) it does not touch.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "config": ("DEFAULT_PARTITION_SIZES", "DEFAULT_TOPOLOGIES",
               "ExperimentScale", "FigureSpec", "figure_spec"),
    "parallel": ("CellError", "GridExecutionError", "merged_metrics",
                 "resolve_jobs", "run_cells_parallel",
                 "run_figure_parallel"),
    "runner": ("GridCell", "averaged_static_metrics", "enumerate_cells",
               "run_cell", "run_figure", "run_static_averaged"),
    "report": ("format_grid", "format_telemetry_summary", "grid_to_csv",
               "telemetry_policy_rows"),
    "serialization": ("config_from_dict", "config_to_dict", "load_results",
                      "result_to_dict", "save_results"),
    "speedup": ("crossover_partition_size", "speedup_curve"),
    "ablations": ("ablations",),
})

__all__ = [
    "CellError",
    "DEFAULT_PARTITION_SIZES",
    "DEFAULT_TOPOLOGIES",
    "ExperimentScale",
    "FigureSpec",
    "GridCell",
    "GridExecutionError",
    "ablations",
    "averaged_static_metrics",
    "config_from_dict",
    "config_to_dict",
    "crossover_partition_size",
    "enumerate_cells",
    "figure_spec",
    "format_grid",
    "format_telemetry_summary",
    "grid_to_csv",
    "merged_metrics",
    "resolve_jobs",
    "telemetry_policy_rows",
    "load_results",
    "result_to_dict",
    "run_cell",
    "run_cells_parallel",
    "run_figure",
    "run_figure_parallel",
    "run_static_averaged",
    "save_results",
    "speedup_curve",
]
