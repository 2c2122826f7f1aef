"""Unified telemetry: metrics registry, spans, and trace exporters.

The observability layer of the reproduction.  Enable it per run with
``SystemConfig(telemetry=True)``; the system then owns a
:class:`Telemetry` object (``system.telemetry``) that every model layer
— CPUs, links, memory, schedulers — records into, and that exports as a
Perfetto/Chrome trace (:func:`write_perfetto`) or a flat JSONL stream
(:func:`write_jsonl`).

Steady-state observability (:mod:`repro.obs.streaming` /
:mod:`repro.obs.steadylog`) covers open-system runs at 10⁶–10⁷ jobs:
O(1)-memory online aggregates, MSER warm-up truncation, batch-means
confidence intervals, and a windowed ``repro-steady/1`` JSONL stream.

Instrumentation is zero-cost when disabled: the environment's
``telemetry`` attribute stays ``None`` and every site guards on it.
Recording never creates simulation events, so telemetry cannot perturb
simulated time.
"""

from repro import _lazy_exports

# Names resolve on first use, so a run loads only the recorders it
# enables and a run that records nothing loads none of them.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "decisions": ("DecisionLedger", "DecisionsLog", "attach_ledger",
                  "check_decomposition", "decision_table",
                  "format_decision_table", "queued_decomposition",
                  "read_decisions_log"),
    "diff": ("DiffResult", "RunBundle", "bootstrap_mean_delta", "diff_runs",
             "format_diff_report", "load_run_bundle"),
    "jsonl": ("jsonl_lines", "jsonl_records", "write_jsonl"),
    "metrics": ("DEFAULT_BOUNDARIES", "Counter", "FrozenGauge", "Gauge",
                "Histogram", "MetricsRegistry", "log_boundaries"),
    "perfetto": ("node_pid", "pid_node", "to_perfetto", "write_perfetto"),
    "kernelprof": ("KernelProfiler", "format_kernelprof",
                   "kernel_collapsed_lines", "kernel_profile",
                   "load_kernelprof", "validate_kernelprof",
                   "write_kernelprof"),
    "profile": ("BUCKETS", "CpSegment", "CriticalPath", "JobProfile",
                "Profile", "bucket_names", "collapsed_lines", "profile_events",
                "profile_run", "write_collapsed", "write_collapsed_lines"),
    "schemas": ("REGISTRY", "SchemaEntry", "check_schema", "load_document",
                "register_schema", "schema_ids", "sniff_schema"),
    "steadylog": ("SteadyLog", "read_steady_log"),
    "streaming": ("BatchSeries", "OnlineStats", "OpenRunResult",
                  "QuantileSketch", "STEADY_BOUNDARIES", "SteadyStateSink",
                  "SteadyWindow", "batch_means_ci", "lag1_autocorrelation",
                  "mser", "t_quantile_975"),
    "spans": ("JOB_PHASES", "Span", "job_spans", "process_spans",
              "register_phase", "slice_spans"),
    "sweeplog": ("Heartbeat", "MultiObserver", "SweepLog", "SweepObserver",
                 "read_sweep_log"),
    "telemetry": ("Telemetry", "attach"),
})

__all__ = [
    "BUCKETS",
    "BatchSeries",
    "Counter",
    "DecisionLedger",
    "DecisionsLog",
    "CpSegment",
    "CriticalPath",
    "DEFAULT_BOUNDARIES",
    "DiffResult",
    "FrozenGauge",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "JOB_PHASES",
    "JobProfile",
    "KernelProfiler",
    "MetricsRegistry",
    "MultiObserver",
    "OnlineStats",
    "OpenRunResult",
    "Profile",
    "REGISTRY",
    "QuantileSketch",
    "RunBundle",
    "STEADY_BOUNDARIES",
    "SchemaEntry",
    "Span",
    "SteadyLog",
    "SteadyStateSink",
    "SteadyWindow",
    "SweepLog",
    "SweepObserver",
    "Telemetry",
    "attach",
    "attach_ledger",
    "batch_means_ci",
    "bootstrap_mean_delta",
    "bucket_names",
    "check_decomposition",
    "check_schema",
    "decision_table",
    "diff_runs",
    "format_diff_report",
    "load_run_bundle",
    "read_sweep_log",
    "collapsed_lines",
    "format_decision_table",
    "format_kernelprof",
    "job_spans",
    "jsonl_lines",
    "jsonl_records",
    "kernel_collapsed_lines",
    "kernel_profile",
    "lag1_autocorrelation",
    "load_document",
    "load_kernelprof",
    "log_boundaries",
    "mser",
    "node_pid",
    "pid_node",
    "process_spans",
    "queued_decomposition",
    "profile_events",
    "profile_run",
    "register_phase",
    "read_decisions_log",
    "read_steady_log",
    "register_schema",
    "schema_ids",
    "sniff_schema",
    "slice_spans",
    "t_quantile_975",
    "to_perfetto",
    "validate_kernelprof",
    "write_collapsed",
    "write_collapsed_lines",
    "write_jsonl",
    "write_kernelprof",
    "write_perfetto",
]
