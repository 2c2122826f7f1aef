"""Spans: named intervals derived from the event trace.

A :class:`Span` is a closed interval ``[start, end]`` with a name and a
track (the job, node, or link it belongs to).  Job lifecycle spans are
*derived* from the transition events the recorder already captures —
``queued → allocated → executing → departed`` — rather than recorded
separately, so the span view can never disagree with the event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.recorder import detail_fields

#: Lifecycle phases in order: (span name, start event, end event).
#: This list is the single phase table shared by the span derivation,
#: the Perfetto exporter, and the causal profiler
#: (:mod:`repro.obs.profile`); extend it with :func:`register_phase`
#: and every consumer picks the new phase up.
JOB_PHASES = [
    ("queued", "job.submitted", "job.dispatched"),
    ("allocated", "job.dispatched", "job.started"),
    ("executing", "job.started", "job.completed"),
]


def register_phase(name, start_event, end_event):
    """Add (or redefine) a derived lifecycle phase in :data:`JOB_PHASES`.

    Phases are keyed by name: registering an existing name replaces its
    event pair in place, preserving order; a new name appends.  The
    events must be ``job.*`` trace categories.
    """
    for i, (existing, _s, _e) in enumerate(JOB_PHASES):
        if existing == name:
            JOB_PHASES[i] = (name, start_event, end_event)
            return
    JOB_PHASES.append((name, start_event, end_event))


@dataclass(frozen=True)
class Span:
    """One named interval on a track."""

    name: str
    track: str
    start: float
    end: float
    args: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self):
        return self.end - self.start

    def __str__(self):
        return (f"[{self.start:12.6f} .. {self.end:12.6f}] "
                f"{self.track}:{self.name}")


def job_spans(events, phases=None):
    """Derive per-job lifecycle spans from ``job.*`` trace events.

    ``events`` is any iterable of :class:`repro.trace.TraceEvent`;
    ``phases`` defaults to the shared :data:`JOB_PHASES` table.
    Returns the spans sorted by ``(start, track)``.  Jobs whose start
    event was evicted from a ring-buffer recorder simply contribute no
    span for the truncated phase — the derivation is tolerant of a
    partial log.
    """
    if phases is None:
        phases = JOB_PHASES
    # subject -> {event name: time of first occurrence}
    transitions = {}
    details = {}
    for e in events:
        if not e.category.startswith("job."):
            continue
        slot = transitions.setdefault(e.subject, {})
        slot.setdefault(e.category, e.time)
        keys = e[3]  # the record's detail, read by position
        if keys:
            details.setdefault(e.subject, {}).update(zip(keys, e[4:]))
    spans = []
    for subject, marks in transitions.items():
        for name, start_ev, end_ev in phases:
            if start_ev in marks and end_ev in marks:
                spans.append(Span(
                    name, subject, marks[start_ev], marks[end_ev],
                    args=dict(details.get(subject, {})),
                ))
    spans.sort(key=lambda s: (s.start, s.track, s.name))
    return spans


#: The detail fields :func:`process_spans` reads from CPU slices and
#: waits: the flag that selects the record, then proc, dur and tag.
_SLICE_FIELDS = ("prio", "proc", "dur", "tag")
_WAIT_FIELDS = ("kind", "proc", "dur", "tag")
_DUR_FIELD = ("dur",)


def process_spans(events):
    """Per-process ``executing``/``preempted`` spans from CPU telemetry.

    Low-priority ``cpu.slice`` events carry the owning job id (``tag``)
    and the job-local process index (``proc``); each becomes an
    ``executing`` span on the track ``job<id>.p<proc>``.  ``cpu.wait``
    events with ``kind="requeue"`` — intervals where the process lost
    the CPU with work remaining (quantum expiry, preemption, gang park)
    — become ``preempted`` spans on the same track.  Events without a
    process index (system work) contribute nothing.
    """
    spans = []
    for e in events:
        category = e.category
        if category == "cpu.slice":
            flag, proc, dur, tag = detail_fields(e, _SLICE_FIELDS)
            if flag != "low":
                continue
            name = "executing"
        elif category == "cpu.wait":
            flag, proc, dur, tag = detail_fields(e, _WAIT_FIELDS)
            if flag != "requeue":
                continue
            name = "preempted"
        else:
            continue
        if proc is None:
            continue
        dur = float(dur or 0.0)
        track = f"job{tag}.p{proc}"
        args = {k: v for k, v in zip(e[3], e[4:]) if k != "dur"}
        spans.append(Span(name, track, e.time, e.time + dur, args=args))
    spans.sort(key=lambda s: (s.start, s.track, s.name))
    return spans


def slice_spans(events, category):
    """Turn ``category`` slice events (detail: ``dur``) into spans.

    Instrumentation records CPU dispatches and link transfers as events
    stamped at the slice *start* with a ``dur`` detail; this widens them
    back into spans for export.
    """
    spans = []
    for e in events:
        if e.category != category:
            continue
        dur, = detail_fields(e, _DUR_FIELD)
        dur = float(dur or 0.0)
        args = {k: v for k, v in zip(e[3], e[4:]) if k != "dur"}
        spans.append(Span(category, e.subject, e.time, e.time + dur,
                          args=args))
    spans.sort(key=lambda s: (s.start, s.track))
    return spans
