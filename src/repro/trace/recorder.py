"""Structured event trace recording.

A :class:`TraceRecorder` collects timestamped events from a run —
job lifecycle transitions, plus anything a model chooses to record —
into a queryable log.  Enable it per system with
``SystemConfig(trace=True)`` (or ``telemetry=True`` for the full
instrumented recorder); it then appears as ``system.trace_recorder``
after a run and the examples/tests can render or assert on the timeline.

Bounded recorders are **ring buffers**: when ``capacity`` is set and the
log is full, the *oldest* event is evicted to make room, so the end of
the run — usually the interesting part — is always retained.  Evictions
are counted in :attr:`dropped` and surfaced by :meth:`summary`.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter

_new_tuple = tuple.__new__


class TraceEvent(tuple):
    """One event of the trace: what happened to whom, when.

    An immutable ``(time, category, subject, detail)`` record; ``detail``
    defaults to an empty dict.  Equality and hashing use the first three
    fields only.  A tuple rather than a dataclass because runs record
    hundreds of thousands of these: :meth:`TraceRecorder.append` builds
    one with a single ``tuple.__new__`` call, about a quarter of the
    cost of building a frozen dataclass, in a fifth of its memory.
    """

    __slots__ = ()

    def __new__(cls, time, category, subject, detail=None):
        return _new_tuple(cls, (time, category, subject,
                                {} if detail is None else detail))

    def __getnewargs__(self):
        # Pickle (and copy) rebuild through ``__new__`` with all four
        # fields; worker processes ship recorders back to the parent.
        return tuple(self)

    time = property(itemgetter(0))
    category = property(itemgetter(1))
    subject = property(itemgetter(2))
    detail = property(itemgetter(3))

    # Only another event compares equal: a plain tuple with the same
    # fields does not, as with the dataclass this class replaced.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return (f"TraceEvent(time={self[0]!r}, category={self[1]!r}, "
                f"subject={self[2]!r}, detail={self[3]!r})")

    def __str__(self):
        detail = self[3]
        extra = (" " + " ".join(f"{k}={v}" for k, v in detail.items())
                 if detail else "")
        return f"[{self[0]:12.6f}] {self[1]:<12} {self[2]}{extra}"


class TraceRecorder:
    """Queryable event log; bounded recorders evict oldest-first."""

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.events = deque(maxlen=capacity)
        self.capacity = capacity
        #: Events evicted from a full ring buffer (oldest-first).
        self.dropped = 0

    def append(self, time, category, subject, detail):
        """Record one event from a detail dict the caller has built.

        The single recording path: ``subject`` must already be a string,
        and the recorder keeps ``detail`` itself, so the caller must not
        mutate it afterwards.
        """
        events = self.events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(_new_tuple(TraceEvent,
                                 (time, category, subject, detail)))

    def record(self, time, category, subject, **detail):
        """Record one event with keyword ``detail`` (any ``subject``)."""
        self.append(time, category, str(subject), detail)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- queries ---------------------------------------------------------
    def by_category(self, category):
        return [e for e in self.events if e.category == category]

    def by_subject(self, subject):
        return [e for e in self.events if e.subject == str(subject)]

    def between(self, start, end):
        return [e for e in self.events if start <= e.time <= end]

    def categories(self):
        out = {}
        for e in self.events:
            out[e.category] = out.get(e.category, 0) + 1
        return dict(sorted(out.items()))

    def summary(self):
        """Totals for run reports: kept, dropped, capacity."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "capacity": self.capacity,
        }

    def to_text(self, limit=None):
        events = (list(self.events) if limit is None
                  else list(islice(self.events, limit)))
        lines = [str(e) for e in events]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more)")
        if self.dropped:
            lines.append(f"... ({self.dropped} older events dropped)")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- hooks -------------------------------------------------------------
    def job_observer(self):
        """An ``on_transition`` callback for :class:`repro.core.job.Job`."""
        append = self.append

        def observe(job, event_name, now):
            append(now, f"job.{event_name}", str(job.name),
                   {"size": job.size_class, "job": job.job_id})
        return observe
