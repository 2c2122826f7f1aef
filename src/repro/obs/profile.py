"""Causal profiler: wait-state attribution and critical-path analysis.

This module turns the raw event trace of a run into *explanations*:

- :func:`attribute_jobs` decomposes every job's response time into
  exhaustive, non-overlapping wait-state buckets (where did the time
  go?), with the invariant that the buckets sum to the response time —
  guaranteed by construction, because the executing window is
  partitioned along the time axis rather than by summing potentially
  overlapping per-resource waits.
- :func:`critical_paths` walks each job's process/message DAG backwards
  from its last-finishing process to extract the longest dependency
  chain (which work actually determined the response time?), reports
  the chain's own bucket breakdown and the slack of off-path processes.
- :func:`collapsed_lines` / :func:`write_collapsed` render the critical
  paths in Brendan Gregg's collapsed-stack format, directly consumable
  by speedscope (https://speedscope.app) or FlameGraph's
  ``flamegraph.pl``.

Everything derives from :class:`repro.trace.TraceRecorder` events only —
the profiler never touches live simulation state, so it can run on any
saved trace, including a ring-buffer-truncated one (jobs whose lifecycle
events were evicted are reported in :attr:`Profile.skipped`, never
silently mis-attributed).

Bucket semantics
----------------
Lifecycle buckets come from the shared :data:`repro.obs.spans.JOB_PHASES`
table; the ``executing`` phase's window ``[started, completed]`` is then
partitioned into fine-grained states by a priority sweep:

``executing``
    a process of the job held a CPU (low-priority ``cpu.slice``).
``cpu_ready``
    a process was in a ready queue awaiting its *first* grant of a
    burst (``cpu.wait`` with ``kind="enqueue"``).
``preempted``
    a process had lost the CPU with work remaining — quantum expiry,
    high-priority preemption, or a gang-scheduling park (``cpu.wait``
    with ``kind="requeue"``).
``transfer``
    a message of the job was in flight (``net.msg``): sender software,
    store-and-forward hops or wormhole streaming, delivery.
``memory``
    an allocation or transit-buffer request of the job was queued
    (``mem.wait`` / ``buf.wait``).
``blocked``
    none of the above — dependency stalls where every process waits on
    a peer that is itself accounted elsewhere (e.g. a coordinator
    parked in ``recv`` while no message is in flight yet).

At every instant the first matching state in the order above wins, so
the buckets partition the window exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.obs.spans import JOB_PHASES
from repro.trace.recorder import detail_fields

#: The lifecycle phase whose window gets the fine-grained decomposition.
DECOMPOSED_PHASE = "executing"

#: Fine-grained states of the decomposed window, in attribution
#: priority order (first match wins; ``blocked`` is the residual).
FINE_BUCKETS = ("executing", "cpu_ready", "preempted", "transfer",
                "memory", "blocked")

#: Iteration cap for the backward critical-path walk (defensive; real
#: walks terminate because time strictly decreases).
_CP_GUARD = 100_000

_EPS = 1e-12


def bucket_names(phases=None):
    """The full ordered bucket tuple: lifecycle phases + fine states.

    Shared phase-table contract: any phase registered via
    :func:`repro.obs.spans.register_phase` (other than the decomposed
    one) automatically becomes a profiler bucket.
    """
    if phases is None:
        phases = JOB_PHASES
    out = [name for (name, _s, _e) in phases if name != DECOMPOSED_PHASE]
    out.extend(FINE_BUCKETS)
    return tuple(out)


#: Default bucket names (with the stock phase table).
BUCKETS = bucket_names()


@dataclass(frozen=True)
class JobProfile:
    """One job's wait-state decomposition."""

    job_id: int
    name: str
    size_class: str
    submitted_at: float
    started_at: float
    completed_at: float
    #: bucket name -> seconds; keys are :func:`bucket_names`.
    buckets: dict = field(default_factory=dict, compare=False)
    #: Process indices observed executing for this job.
    procs: tuple = ()

    @property
    def response_time(self):
        return self.completed_at - self.submitted_at

    def bucket_sum(self):
        return sum(self.buckets.values())

    def imbalance(self):
        """Absolute difference between bucket sum and response time."""
        return abs(self.bucket_sum() - self.response_time)

    def check(self, rel_tol=1e-6):
        """Raise ``ValueError`` unless buckets sum to the response time."""
        scale = max(abs(self.response_time), 1.0)
        if self.imbalance() > rel_tol * scale:
            raise ValueError(
                f"{self.name}: buckets sum to {self.bucket_sum():.9f} "
                f"but response time is {self.response_time:.9f} "
                f"(diff {self.imbalance():.3e})"
            )

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "name": self.name,
            "size_class": self.size_class,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "response_time": self.response_time,
            "buckets": dict(self.buckets),
            "procs": list(self.procs),
        }


@dataclass(frozen=True)
class CpSegment:
    """One leg of a critical path: what the path was doing, where."""

    kind: str
    start: float
    end: float
    proc: object  # process index, or None when unattributable

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The longest dependency chain through one job's execution."""

    job_id: int
    name: str
    segments: tuple
    #: Off-path slack per process: seconds between the process's last
    #: executed instant and job completion (0 for the finishing leg).
    slack: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self):
        return sum(s.duration for s in self.segments)

    def buckets(self):
        """Seconds per segment kind along the path."""
        out = {}
        for s in self.segments:
            out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out

    def to_dict(self):
        return {
            "job_id": self.job_id,
            "name": self.name,
            "duration": self.duration,
            "buckets": self.buckets(),
            "slack": {str(k): v for k, v in sorted(self.slack.items())},
            "segments": [
                {"kind": s.kind, "start": s.start, "end": s.end,
                 "proc": s.proc}
                for s in self.segments
            ],
        }


# ---------------------------------------------------------------------------
# Event collection
# ---------------------------------------------------------------------------

class _JobTrace:
    """Everything the trace says about one job, keyed by its int id."""

    __slots__ = ("job_id", "name", "size_class", "marks", "exec_ivals",
                 "ready_ivals", "preempt_ivals", "transfer_ivals",
                 "mem_ivals", "exec_by_proc", "msgs", "procs")

    def __init__(self, job_id):
        self.job_id = job_id
        self.name = None
        self.size_class = None
        self.marks = {}            # "job.submitted" -> time, ...
        self.exec_ivals = []       # (start, end)
        self.ready_ivals = []
        self.preempt_ivals = []
        self.transfer_ivals = []
        self.mem_ivals = []
        self.exec_by_proc = {}     # proc -> [(start, end)]
        self.msgs = []             # message dicts for the DAG walk
        self.procs = set()


#: The detail fields :func:`_collect` reads from each kind of record.
_JOB_FIELDS = ("job", "size")
_SLICE_FIELDS = ("prio", "tag", "dur", "proc")
_WAIT_FIELDS = ("tag", "dur", "kind")
_MSG_FIELDS = ("job", "dur", "src_proc", "dst_proc")
_MEM_FIELDS = ("job", "dur")


def _collect(events):
    """Group trace events by job id into :class:`_JobTrace` records."""
    jobs = {}

    def job(jid):
        jt = jobs.get(jid)
        if jt is None:
            jt = jobs[jid] = _JobTrace(jid)
        return jt

    for e in events:
        cat = e.category
        if cat.startswith("job."):
            jid, size = detail_fields(e, _JOB_FIELDS)
            if jid is None:
                continue
            jt = job(jid)
            jt.marks.setdefault(cat, e.time)
            jt.name = e.subject
            if size is not None:
                jt.size_class = size
        elif cat == "cpu.slice":
            prio, tag, dur, proc = detail_fields(e, _SLICE_FIELDS)
            if prio != "low" or not isinstance(tag, int):
                continue
            jt = job(tag)
            iv = (e.time, e.time + float(dur or 0.0))
            jt.exec_ivals.append(iv)
            if proc is not None:
                jt.procs.add(proc)
                jt.exec_by_proc.setdefault(proc, []).append(iv)
        elif cat == "cpu.wait":
            tag, dur, kind = detail_fields(e, _WAIT_FIELDS)
            if not isinstance(tag, int):
                continue
            jt = job(tag)
            iv = (e.time, e.time + float(dur or 0.0))
            if kind == "requeue":
                jt.preempt_ivals.append(iv)
            else:
                jt.ready_ivals.append(iv)
        elif cat == "net.msg":
            jid, dur, src_proc, dst_proc = detail_fields(e, _MSG_FIELDS)
            if jid is None:
                continue
            jt = job(jid)
            sent = e.time
            delivered = e.time + float(dur or 0.0)
            jt.transfer_ivals.append((sent, delivered))
            jt.msgs.append({
                "id": e.subject,
                "sent": sent,
                "delivered": delivered,
                "src_proc": src_proc,
                "dst_proc": dst_proc,
            })
        elif cat in ("mem.wait", "buf.wait"):
            jid, dur = detail_fields(e, _MEM_FIELDS)
            if jid is None:
                continue
            job(jid).mem_ivals.append(
                (e.time, e.time + float(dur or 0.0))
            )

    for jt in jobs.values():
        for ivals in (jt.exec_ivals, jt.ready_ivals, jt.preempt_ivals,
                      jt.transfer_ivals, jt.mem_ivals):
            ivals.sort()
        for ivals in jt.exec_by_proc.values():
            ivals.sort()
        jt.msgs.sort(key=lambda m: m["delivered"])
    return jobs


def _lifecycle_complete(jt, phases):
    needed = {ev for _n, s, e in phases for ev in (s, e)}
    return needed.issubset(jt.marks)


# ---------------------------------------------------------------------------
# Wait-state attribution
# ---------------------------------------------------------------------------

def _partition_window(t0, t1, interval_sets):
    """Partition ``[t0, t1]`` among prioritised interval sets.

    ``interval_sets`` is an ordered list of ``(bucket, intervals)``; at
    each elementary segment the first bucket with an active interval
    wins, the residual goes to ``blocked``.  Because every segment is
    assigned to exactly one bucket, the results partition the window.
    """
    cuts = {t0, t1}
    deltas = []
    for name, ivals in interval_sets:
        d = {}
        for a, b in ivals:
            a = max(a, t0)
            b = min(b, t1)
            if b <= a:
                continue
            d[a] = d.get(a, 0) + 1
            d[b] = d.get(b, 0) - 1
            cuts.add(a)
            cuts.add(b)
        deltas.append((name, d))
    points = sorted(cuts)
    out = {name: 0.0 for name, _ in interval_sets}
    out["blocked"] = 0.0
    active = [0] * len(deltas)
    for i in range(len(points) - 1):
        t = points[i]
        for j, (_name, d) in enumerate(deltas):
            active[j] += d.get(t, 0)
        seg = points[i + 1] - t
        if seg <= 0:
            continue
        for j, (name, _d) in enumerate(deltas):
            if active[j] > 0:
                out[name] += seg
                break
        else:
            out["blocked"] += seg
    return out


def _attribute_job(jt, phases):
    """Build the :class:`JobProfile` for one complete job trace."""
    buckets = {}
    window = None
    for name, start_ev, end_ev in phases:
        dur = jt.marks[end_ev] - jt.marks[start_ev]
        if name == DECOMPOSED_PHASE:
            window = (jt.marks[start_ev], jt.marks[end_ev])
        else:
            buckets[name] = dur
    if window is not None:
        t0, t1 = window
        fine = _partition_window(t0, t1, [
            ("executing", jt.exec_ivals),
            ("cpu_ready", jt.ready_ivals),
            ("preempted", jt.preempt_ivals),
            ("transfer", jt.transfer_ivals),
            ("memory", jt.mem_ivals),
        ])
        buckets.update(fine)
    return JobProfile(
        job_id=jt.job_id,
        name=jt.name or f"job{jt.job_id}",
        size_class=jt.size_class or "?",
        submitted_at=jt.marks.get("job.submitted", 0.0),
        started_at=jt.marks.get("job.started", 0.0),
        completed_at=jt.marks.get("job.completed", 0.0),
        buckets=buckets,
        procs=tuple(sorted(jt.procs)),
    )


# ---------------------------------------------------------------------------
# Critical-path extraction
# ---------------------------------------------------------------------------

def _overlap(ivals, a, b):
    total = 0.0
    for s, e in ivals:
        lo = max(s, a)
        hi = min(e, b)
        if hi > lo:
            total += hi - lo
        if s >= b:
            break
    return total


def _walk_critical_path(jt):
    """Backward walk from the last-finishing process to job start.

    At each step the walk asks "what was this process doing just before
    time ``t``?": executing (follow its own exec span), receiving a
    message (follow the message back to its sender — the causal jump),
    or waiting (a segment refined into ``cpu_ready``/``preempted``/
    ``memory``/``blocked`` by overlap afterwards).
    """
    started = jt.marks["job.started"]
    completed = jt.marks["job.completed"]
    if not jt.exec_by_proc:
        segs = []
        if completed > started:
            segs.append(CpSegment("blocked", started, completed, None))
        return tuple(segs)

    p = max(jt.exec_by_proc, key=lambda q: jt.exec_by_proc[q][-1][1])
    t = min(jt.exec_by_proc[p][-1][1], completed)
    segments = []
    if completed > t + _EPS:
        # Job teardown after the last burst (release/synchronisation).
        segments.append(CpSegment("wait", t, completed, p))

    used = set()
    guard = 0
    while t > started + _EPS and guard < _CP_GUARD:
        guard += 1
        spans = jt.exec_by_proc.get(p, ())
        cover = None
        if spans:
            starts = [a for a, _ in spans]
            i = bisect_right(starts, t - _EPS) - 1
            if i >= 0:
                cover = spans[i]
        if cover is not None and cover[1] >= t - _EPS:
            # Executing right up to t: take the span, move to its start.
            a = max(cover[0], started)
            if t > a:
                segments.append(CpSegment("executing", a, t, p))
            t = a
            continue
        gap_start = max(cover[1], started) if cover is not None else started
        # The binding dependency: the latest message delivered to this
        # process inside the gap.
        msg = None
        for cand in reversed(jt.msgs):
            if cand["delivered"] > t + _EPS:
                continue
            if cand["delivered"] <= gap_start - _EPS:
                break
            if cand["dst_proc"] == p and cand["id"] not in used:
                msg = cand
                break
        if msg is None:
            if t > gap_start:
                segments.append(CpSegment("wait", gap_start, t, p))
            t = gap_start
            continue
        used.add(msg["id"])
        delivered = min(msg["delivered"], t)
        if t > delivered + _EPS:
            # Arrived but the receiver didn't run yet (CPU contention).
            segments.append(CpSegment("wait", delivered, t, p))
        x = max(msg["sent"], gap_start, started)
        if delivered > x + _EPS:
            segments.append(CpSegment("transfer", x, delivered, p))
        if msg["src_proc"] is not None and msg["sent"] > gap_start + _EPS:
            # Causal jump: the sender's timeline determined this point.
            p = msg["src_proc"]
        t = min(x, t)

    segments.reverse()
    return tuple(segments)


def _refine_waits(segments, jt):
    """Relabel generic ``wait`` legs by their dominant overlapping state."""
    refine_sets = (
        ("cpu_ready", jt.ready_ivals),
        ("preempted", jt.preempt_ivals),
        ("memory", jt.mem_ivals),
    )
    out = []
    for seg in segments:
        if seg.kind != "wait":
            out.append(seg)
            continue
        best, best_ov = "blocked", 0.0
        for name, ivals in refine_sets:
            ov = _overlap(ivals, seg.start, seg.end)
            if ov > best_ov:
                best, best_ov = name, ov
        out.append(CpSegment(best, seg.start, seg.end, seg.proc))
    return tuple(out)


def _critical_path(jt):
    segments = _refine_waits(_walk_critical_path(jt), jt)
    completed = jt.marks["job.completed"]
    slack = {
        proc: max(0.0, completed - ivals[-1][1])
        for proc, ivals in sorted(jt.exec_by_proc.items())
    }
    return CriticalPath(
        job_id=jt.job_id,
        name=jt.name or f"job{jt.job_id}",
        segments=segments,
        slack=slack,
    )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """The causal profile of one run: per-job buckets + critical paths."""

    jobs: tuple
    paths: tuple
    #: Job ids whose lifecycle events were truncated out of the log.
    skipped: tuple = ()

    def check_invariants(self, rel_tol=1e-6):
        """Every job's buckets must sum to its response time."""
        for jp in self.jobs:
            jp.check(rel_tol=rel_tol)
        return self

    def mean_response_time(self):
        if not self.jobs:
            return 0.0
        return sum(j.response_time for j in self.jobs) / len(self.jobs)

    def bucket_totals(self):
        """Seconds per bucket summed over all jobs."""
        out = {name: 0.0 for name in bucket_names()}
        for jp in self.jobs:
            for name, dur in jp.buckets.items():
                out[name] = out.get(name, 0.0) + dur
        return out

    def bucket_fractions(self):
        """Bucket totals normalised by total response time."""
        totals = self.bucket_totals()
        denom = sum(j.response_time for j in self.jobs)
        if denom <= 0:
            return {name: 0.0 for name in totals}
        return {name: dur / denom for name, dur in totals.items()}

    def to_dict(self):
        return {
            "schema": "repro-profile/1",
            "num_jobs": len(self.jobs),
            "mean_response_time": self.mean_response_time(),
            "bucket_totals": self.bucket_totals(),
            "bucket_fractions": self.bucket_fractions(),
            "jobs": [j.to_dict() for j in self.jobs],
            "critical_paths": [p.to_dict() for p in self.paths],
            "skipped_jobs": list(self.skipped),
        }


def profile_events(events, phases=None):
    """Profile an iterable of :class:`repro.trace.TraceEvent`."""
    if phases is None:
        phases = list(JOB_PHASES)
    jobs = _collect(events)
    profiles = []
    paths = []
    skipped = []
    for jid in sorted(jobs):
        jt = jobs[jid]
        if not _lifecycle_complete(jt, phases):
            skipped.append(jid)
            continue
        profiles.append(_attribute_job(jt, phases))
        paths.append(_critical_path(jt))
    return Profile(tuple(profiles), tuple(paths), tuple(skipped))


def profile_run(telemetry, phases=None):
    """Profile a finished run from its :class:`Telemetry` object."""
    return profile_events(telemetry.recorder, phases=phases)


# ---------------------------------------------------------------------------
# Collapsed-stack export (speedscope / FlameGraph)
# ---------------------------------------------------------------------------

def collapsed_lines(paths, prefix=None):
    """Render critical paths as collapsed-stack lines.

    One line per unique frame stack, ``frame;frame;frame count``, with
    integer microsecond counts — the format ``flamegraph.pl`` and
    speedscope both ingest.  Stacks are ``[prefix;]job;p<proc>;<kind>``
    so a flame graph groups by job, then by the process the critical
    path ran through, then by what that leg was doing.
    """
    agg = {}
    for cp in paths:
        for seg in cp.segments:
            micros = int(round(seg.duration * 1e6))
            if micros <= 0:
                continue
            frames = [] if prefix is None else [str(prefix)]
            frames.append(cp.name)
            frames.append(f"p{seg.proc}" if seg.proc is not None else "p?")
            frames.append(seg.kind)
            key = ";".join(frames)
            agg[key] = agg.get(key, 0) + micros
    return [f"{stack} {count}" for stack, count in sorted(agg.items())]


def write_collapsed_lines(path, lines):
    """Write pre-rendered collapsed-stack lines for speedscope/FlameGraph.

    The low-level writer shared by :func:`write_collapsed` (critical
    paths) and :func:`repro.obs.kernelprof.kernel_collapsed_lines`
    (kernel hot paths) — both emit the same ``stack;frames count``
    format, so both open in the same tools.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")
    return path


def write_collapsed(path, paths_or_profile, prefix=None):
    """Write a collapsed-stack file for speedscope/FlameGraph."""
    obj = paths_or_profile
    paths = obj.paths if isinstance(obj, Profile) else obj
    return write_collapsed_lines(path, collapsed_lines(paths, prefix=prefix))
