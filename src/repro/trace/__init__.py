"""Plain-text visualisation of runs: job Gantt charts and bar charts.

The simulator's results carry full per-job timing, so examples can show
*why* a policy wins, not just the mean: :func:`render_gantt` draws each
job's wait and execution phases on a shared time axis, and
:func:`render_bars` turns any {label: value} mapping into an aligned
horizontal bar chart (used for utilisation and response-time series).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "charts": ("render_bars", "render_series"),
    "gantt": ("render_gantt",),
    "recorder": ("TraceEvent", "TraceRecorder"),
    "timeline": ("render_utilization", "utilization_probes"),
})

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "render_bars",
    "render_gantt",
    "render_series",
    "render_utilization",
    "utilization_probes",
]
