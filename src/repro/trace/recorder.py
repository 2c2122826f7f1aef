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

#: Every keys tuple :func:`detail_keys` has handed out, by content.
_KEYS = {}


def detail_keys(detail):
    """The shared keys tuple of ``detail`` (a mapping or key sequence).

    The converter for callers that record a detail dict: each distinct
    key order maps to one tuple object, so the records of one site
    share their ``keys`` instead of each holding a copy.  Fixed sites
    skip it and pass a module-level tuple.
    """
    keys = tuple(detail)
    return _KEYS.setdefault(keys, keys)


#: ``{(keys, names): reader}`` for every pair :func:`detail_fields` met.
_READERS = {}


def detail_fields(record, names):
    """The detail values ``names`` of ``record``, ``None`` for a name it
    lacks: what ``record.detail.get(name)`` gives, read by position.

    For consumers that read a few fields of many records: no detail dict
    is built.  The positions are worked out once per ``(keys, names)``
    pair, and the records of one recording site share their ``keys``.
    """
    keys = record[3]
    reader = _READERS.get((keys, names))
    if reader is None:
        index = {key: i for i, key in enumerate(keys, 4)}
        positions = tuple(index.get(name) for name in names)
        if None in positions or len(positions) < 2:
            def reader(rec, positions=positions):
                return tuple(None if i is None else rec[i]
                             for i in positions)
        else:
            reader = itemgetter(*positions)
        _READERS[(keys, names)] = reader
    return reader(record)


class TraceEvent(tuple):
    """One event of the trace: what happened to whom, when.

    An immutable flat tuple ``(time, category, subject, keys, *values)``:
    ``values`` are the event's detail fields, named in order by
    ``keys``, one tuple shared by every record from the same recording
    site.  A record therefore costs one tuple and no dict; runs record
    hundreds of thousands of them.  :attr:`detail` builds the
    ``{key: value}`` dict on each access, so a consumer reads it once
    per record.  ``TraceEvent(time, category, subject, detail)`` builds
    a record from a dict (``detail`` defaults to empty).  Equality and
    hashing use the first three fields only.
    """

    __slots__ = ()

    def __new__(cls, time, category, subject, detail=None):
        if not detail:
            return _new_tuple(cls, (time, category, subject, ()))
        return _new_tuple(cls, (time, category, subject,
                                detail_keys(detail), *detail.values()))

    def __reduce__(self):
        # Pickle (and copy) ship the flat tuple; worker processes ship
        # recorders back to the parent, each keys tuple pickled once.
        return _new_tuple, (self.__class__, tuple(self))

    time = property(itemgetter(0))
    category = property(itemgetter(1))
    subject = property(itemgetter(2))

    @property
    def detail(self):
        """The detail fields as a new ``{key: value}`` dict."""
        return dict(zip(self[3], self[4:]))

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
                f"subject={self[2]!r}, detail={self.detail!r})")

    def __str__(self):
        extra = "".join(f" {k}={v}" for k, v in zip(self[3], self[4:]))
        return f"[{self[0]:12.6f}] {self[1]:<12} {self[2]}{extra}"


#: Detail keys of the job observer's lifecycle records.
_JOB_KEYS = ("size", "job")


class TraceRecorder:
    """Queryable event log; bounded recorders evict oldest-first."""

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.events = deque(maxlen=capacity)
        self.capacity = capacity
        #: Events evicted from a full ring buffer (oldest-first).
        self.dropped = 0

    def append(self, time, category, subject, keys, *values):
        """Record one event; ``keys`` names its detail ``values`` in order.

        The single recording path, storing the flat record
        ``(time, category, subject, keys, *values)``.  ``subject`` must
        already be a string, and ``keys`` a tuple shared by every record
        from the calling site: a module-level constant at a fixed site,
        or :func:`detail_keys` of the caller's detail dict.
        """
        events = self.events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(_new_tuple(TraceEvent,
                                 (time, category, subject, keys, *values)))

    def record(self, time, category, subject, **detail):
        """Record one event with keyword ``detail`` (any ``subject``)."""
        self.append(time, category, str(subject), detail_keys(detail),
                    *detail.values())

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
            append(now, f"job.{event_name}", str(job.name), _JOB_KEYS,
                   job.size_class, job.job_id)
        return observe
