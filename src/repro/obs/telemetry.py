"""The telemetry facade threaded through a run.

One :class:`Telemetry` object per instrumented run bundles the two
sinks every model layer records into:

- ``recorder`` — a ring-buffer :class:`repro.trace.TraceRecorder` for
  discrete events (CPU slices, link transfers, job transitions);
- ``metrics`` — a :class:`MetricsRegistry` for counters, gauges, and
  histograms.

The environment carries at most one telemetry object
(``env.telemetry``, ``None`` by default).  The hot components (CPUs,
networks, allocators, local schedulers) bind a private probe from it
at construction, ``None`` when telemetry is off, holding their names
and instrument handles; other sites guard with ``tel = env.telemetry``
/ ``if tel is not None``.  Either way a site costs one ``None`` test
when telemetry is off.  Nothing in this module creates simulation
events or processes, so enabling telemetry can never perturb simulated
time.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.trace.recorder import TraceRecorder, detail_keys

#: Default ring-buffer capacity for instrumented runs.  Big experiments
#: overflow it; the ring keeps the most recent events and counts drops.
DEFAULT_CAPACITY = 500_000


class Telemetry:
    """Per-run bundle of event recorder + metrics registry."""

    def __init__(self, env, capacity=DEFAULT_CAPACITY, series=True):
        self.env = env
        self.recorder = TraceRecorder(capacity=capacity)
        self.metrics = MetricsRegistry(env=env, series=series)

    # -- recording helpers ----------------------------------------------
    def event(self, category, subject, **detail):
        """Record an instant event at the current simulated time."""
        self.recorder.append(self.env.now, category, str(subject),
                             detail_keys(detail), *detail.values())

    def slice(self, category, subject, start, duration, **detail):
        """Record an interval as an event at ``start`` with a ``dur``."""
        detail = {"dur": duration, **detail}
        self.recorder.append(start, category, str(subject),
                             detail_keys(detail), *detail.values())

    def job_observer(self):
        """``on_transition`` hook wiring job lifecycle into the recorder."""
        return self.recorder.job_observer()

    def detach(self):
        """An environment-free, picklable snapshot of this telemetry.

        The live object holds ``env`` (whose agenda reaches generator
        frames — unpicklable); the detached clone drops it, keeps the
        recorder (plain data), and freezes the metrics registry via
        :meth:`MetricsRegistry.detach`.  Everything the exporters and
        reports read — ``recorder``, ``metrics``, :meth:`summary` —
        works identically on the clone, so worker processes of the
        parallel grid executor ship these back to the parent.
        """
        clone = Telemetry.__new__(Telemetry)
        clone.env = None
        clone.recorder = self.recorder
        clone.metrics = self.metrics.detach()
        return clone

    # -- summaries -------------------------------------------------------
    def summary(self):
        """Flat dict for run reports and the CLI footer."""
        out = dict(self.recorder.summary())
        out["instruments"] = len(self.metrics)
        return out

    def __repr__(self):
        return (f"<Telemetry events={len(self.recorder)} "
                f"dropped={self.recorder.dropped} "
                f"instruments={len(self.metrics)}>")


def attach(env, capacity=DEFAULT_CAPACITY, series=True):
    """Create a :class:`Telemetry` and install it on ``env``."""
    tel = Telemetry(env, capacity=capacity, series=series)
    env.telemetry = tel
    return tel

