"""Decision ledger: why-tracing for every scheduling choice.

The profiler (:mod:`repro.obs.profile`) explains *where* each job's
response time went; this module explains *which scheduling decision put
it there*.  When enabled (``SystemConfig(decisions=True)``) a
:class:`DecisionLedger` is attached to the environment as
``env.decisions`` before any component is built — the same
construction-time binding contract as telemetry (GUIDE §15) — and every
scheduler layer reports its choices:

* **SuperScheduler** — admissions (which partition, round-robin index),
  placements (chosen partition plus the alternatives rejected and why),
  dynamic sizing (policy inputs and the chosen size), and one *deferral*
  record per stalled dispatch round (reason + queue depth).
* **PartitionScheduler** — launches (process count, quantum, placement
  offset), multiprogramming-limit pends, gang rotations.
* **LocalScheduler / Cpu** — dispatches, quantum arming mode
  (contended ``quantum`` vs ``extended``) and per-slice outcomes
  (``block_yield`` / ``quantum_expiry`` / ``preempted``).

Two cost tiers keep the overhead ceiling (≤5 %, enforced by test):
job-granular scheduler choices get full ring records (category
``"sched.decision"``, shared with the telemetry recorder when telemetry
is on so trace and decision events interleave in one buffer); per-slice
CPU outcomes and per-burst dispatches are **exact counters only** —
one integer increment in the counting component's own probe, folded
into :attr:`DecisionLedger.counts` when read, immune to ring eviction.

The causal payoff is :func:`queued_decomposition`: each job's
``queued`` attribution bucket is decomposed over the deferral decisions
that produced it, using the same time-axis-partition discipline as the
profiler, with the segment widths summing back to the bucket exactly
(the final segment is assigned the residual).

Records stream to a ``repro-decisions/1`` JSONL via
:class:`DecisionsLog` / :func:`read_decisions_log` (same multi-segment
grammar as the steady log).
"""

from __future__ import annotations

import json
import math

from repro.obs.metrics import Histogram
from repro.obs.schemas import check_schema
from repro.trace.recorder import TraceRecorder, detail_fields, detail_keys

#: Decisions-stream schema identifier; bump on incompatible changes.
SCHEMA = "repro-decisions/1"

#: Trace category shared by every ledger ring record.
CATEGORY = "sched.decision"

#: Ring capacity when the ledger owns its recorder (telemetry off).
DEFAULT_CAPACITY = 200_000

#: The detail fields the queued decomposition reads, by position.
_DECISION_FIELDS = ("layer", "kind", "reason")
_JOB_FIELD = ("job",)


class DecisionLedger:
    """Exact decision counters plus a ring of job-granular records.

    :attr:`counts` maps ``(layer, kind, reason)`` to an exact tally
    that never loses precision to ring eviction; :attr:`total` and
    :attr:`deferrals` are cumulative totals the steady sink snapshots
    per window.  The hottest tallies (per CPU slice and per burst) are
    kept by the counting components themselves, each registered with
    :meth:`add_counter` and read when :attr:`counts` or :attr:`total`
    is.  Ring records go to ``recorder`` — pass the telemetry recorder
    to share one buffer, or leave ``None`` for a private ring.
    """

    __slots__ = ("env", "recorder", "owns_recorder", "_counts", "_total",
                 "_counters", "deferrals", "depth_hist", "meta")

    def __init__(self, env, capacity=DEFAULT_CAPACITY, recorder=None):
        self.env = env
        if recorder is None:
            recorder = TraceRecorder(capacity=capacity)
            self.owns_recorder = True
        else:
            self.owns_recorder = False
        self.recorder = recorder
        self._counts = {}
        self._total = 0
        self._counters = []
        self.deferrals = 0
        #: Queue depth observed at each deferral decision.
        self.depth_hist = Histogram("decisions.deferral_depth")
        self.meta = {}

    # -- recording -------------------------------------------------------
    def tally(self, layer, kind, reason):
        """Exact counter increment; the counter tier (no ring record)."""
        key = (layer, kind, reason)
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        self._total += 1

    def add_counter(self, counter):
        """Register a component that tallies decisions in its own fields.

        ``counter.ledger_counts()`` returns its ``((layer, kind,
        reason), n)`` pairs; the CPU and local-scheduler probes count
        per-slice and per-burst decisions this way, at the cost of one
        integer increment instead of a call and two dict operations.
        """
        self._counters.append(counter)

    @property
    def counts(self):
        """A new ``{(layer, kind, reason): n}`` dict of every tally."""
        out = dict(self._counts)
        for counter in self._counters:
            for key, n in counter.ledger_counts():
                if n:
                    out[key] = out.get(key, 0) + n
        return out

    @property
    def total(self):
        """Decisions tallied so far."""
        return self._total + sum(n for counter in self._counters
                                 for _key, n in counter.ledger_counts())

    def record(self, layer, kind, reason, subject, **detail):
        """Tally plus a ring record for job-granular decisions."""
        self.tally(layer, kind, reason)
        self.recorder.append(self.env.now, CATEGORY, str(subject),
                             detail_keys(("layer", "kind", "reason",
                                          *detail)),
                             layer, kind, reason, *detail.values())

    def defer(self, layer, subject, reason, queue_len, **detail):
        """Record one stalled dispatch round (deferral decision)."""
        self.deferrals += 1
        self.depth_hist.observe(queue_len)
        self.record(layer, "defer", reason, subject,
                    queue_len=queue_len, **detail)

    # -- queries ---------------------------------------------------------
    def decision_events(self):
        """The surviving ring records, oldest first."""
        return [e for e in self.recorder if e.category == CATEGORY]

    def counts_sorted(self):
        """``[(layer, kind, reason, n), ...]`` sorted for stable output."""
        return [(l, k, r, n)
                for (l, k, r), n in sorted(self.counts.items())]

    def summary(self):
        """Exact totals for run reports and the JSONL finish record."""
        events = len(self.decision_events())
        return {
            "decisions": self.total,
            "deferrals": self.deferrals,
            "events": events,
            "dropped": self.recorder.dropped,
            "deferral_depth": {
                "count": self.depth_hist.count,
                "mean": self.depth_hist.mean,
                "max": self.depth_hist.max,
            },
            "counts": [list(row) for row in self.counts_sorted()],
        }


def attach_ledger(env, capacity=None, telemetry=None):
    """Build a ledger on ``env.decisions``, sharing telemetry's ring.

    Call *before* constructing nodes/schedulers (the construction-time
    binding contract): hot components snapshot ``env.decisions`` into a
    local slot when built.
    """
    recorder = telemetry.recorder if telemetry is not None else None
    led = DecisionLedger(env, capacity=capacity or DEFAULT_CAPACITY,
                         recorder=recorder)
    env.decisions = led
    return led


# ---------------------------------------------------------------------------
# Queued-bucket decomposition (the obs.profile linkage)
# ---------------------------------------------------------------------------

def queued_decomposition(events):
    """Decompose each job's ``queued`` bucket over deferral decisions.

    ``events`` is any iterable of trace events containing the ``job.*``
    lifecycle marks and the ledger's ``sched.decision`` records (the
    shared recorder provides both).  For each job the window
    ``[submitted, dispatched]`` is cut at every super-scheduler deferral
    time inside it; each elementary segment is attributed to the latest
    deferral decision at or before its start (within the window), or to
    ``"unattributed"`` when none exists — which the tests assert never
    happens on complete traces, because every submission either
    dispatches immediately (zero-width window) or records a deferral at
    submit time.

    Exactness discipline: ``total`` is the same single float subtraction
    the profiler uses for the ``queued`` bucket, and the *last* segment
    width is assigned the residual ``total - sum(earlier widths)`` so
    the widths always sum back to the bucket exactly.

    Returns ``{job_id: {"name", "t0", "t1", "total", "by_reason",
    "segments", "deferrals"}}``.
    """
    defer_times = []
    marks = {}
    names = {}
    for e in events:
        cat = e[1]
        if cat == CATEGORY:
            layer, kind, reason = detail_fields(e, _DECISION_FIELDS)
            if layer == "super" and kind == "defer":
                defer_times.append((e[0], reason))
        elif cat in ("job.submitted", "job.dispatched"):
            (jid,) = detail_fields(e, _JOB_FIELD)
            if jid is None:
                continue
            marks.setdefault(jid, {}).setdefault(cat, e[0])
            names[jid] = e[2]
    defer_times.sort(key=lambda tr: tr[0])

    out = {}
    for jid, m in sorted(marks.items()):
        if "job.submitted" not in m or "job.dispatched" not in m:
            continue
        t0 = m["job.submitted"]
        t1 = m["job.dispatched"]
        total = t1 - t0  # identical floats to the profiler's bucket
        entry = {
            "name": names.get(jid, f"job{jid}"),
            "t0": t0, "t1": t1, "total": total,
            "by_reason": {}, "segments": [], "deferrals": 0,
        }
        out[jid] = entry
        if total <= 0.0:
            continue
        inside = [(t, r) for t, r in defer_times if t0 <= t <= t1]
        entry["deferrals"] = len(inside)
        cuts = sorted({t0, t1} | {t for t, _r in inside if t0 < t < t1})
        # Latest deferral at or before each segment start attributes it.
        segs = []
        for i in range(len(cuts) - 1):
            a, b = cuts[i], cuts[i + 1]
            reason = "unattributed"
            for t, r in inside:
                if t > a:
                    break
                reason = r
            segs.append([a, b, reason])
        # Merge consecutive same-reason segments, then assign the final
        # width as the residual so the sum is exact by construction.
        merged = []
        for a, b, reason in segs:
            if merged and merged[-1][2] == reason:
                merged[-1][1] = b
            else:
                merged.append([a, b, reason])
        widths = [b - a for a, b, _ in merged]
        if widths:
            widths[-1] = total - math.fsum(widths[:-1])
        by_reason = entry["by_reason"]
        for (a, b, reason), w in zip(merged, widths):
            by_reason[reason] = by_reason.get(reason, 0.0) + w
            entry["segments"].append(
                {"t0": a, "t1": b, "reason": reason, "width": w})
    return out


def check_decomposition(decomp, profiles, rel_tol=1e-9):
    """Verify the linkage invariant against a profile's jobs.

    For every job present in both: the decomposition total must equal
    the profiler's ``queued`` bucket exactly (same subtraction), the
    per-reason masses must sum back to the total within ``rel_tol``
    (time-axis-partition discipline), and no mass may be
    ``unattributed``.  Raises ``ValueError`` on the first violation;
    returns the number of jobs checked.
    """
    jobs = getattr(profiles, "jobs", profiles)
    by_id = {jp.job_id: jp for jp in jobs}
    checked = 0
    for jid, entry in decomp.items():
        jp = by_id.get(jid)
        if jp is None:
            continue
        bucket = jp.buckets.get("queued")
        if bucket is None:
            continue
        checked += 1
        if entry["total"] != bucket:
            raise ValueError(
                f"{entry['name']}: decomposition total {entry['total']!r} "
                f"!= queued bucket {bucket!r}")
        mass = math.fsum(entry["by_reason"].values())
        scale = max(abs(bucket), 1.0)
        if abs(mass - bucket) > rel_tol * scale:
            raise ValueError(
                f"{entry['name']}: reasons sum to {mass!r} but queued "
                f"bucket is {bucket!r}")
        if entry["by_reason"].get("unattributed"):
            raise ValueError(
                f"{entry['name']}: {entry['by_reason']['unattributed']!r}s "
                f"of queued time has no covering deferral decision")
    return checked


# ---------------------------------------------------------------------------
# Per-policy decision tables
# ---------------------------------------------------------------------------

def decision_table(entries):
    """Aggregate ``(label, policy, ledger)`` entries into per-policy rows.

    Returns a list of dict rows (sorted by policy) with exact decision
    counts, deferral stats, and the quantum-expiry vs block-yield ratio.
    """
    by_policy = {}
    for _label, policy, led in entries:
        row = by_policy.get(policy)
        if row is None:
            row = by_policy[policy] = {
                "policy": policy, "decisions": 0, "deferrals": 0,
                "launches": 0, "block_yield": 0, "quantum_expiry": 0,
                "preempted": 0, "depth_max": 0.0, "depth_total": 0.0,
                "depth_count": 0, "dropped": 0,
            }
        row["decisions"] += led.total
        row["deferrals"] += led.deferrals
        row["dropped"] += led.recorder.dropped
        row["depth_total"] += led.depth_hist.total
        row["depth_count"] += led.depth_hist.count
        row["depth_max"] = max(row["depth_max"], led.depth_hist.max)
        for (layer, kind, reason), n in led.counts.items():
            if kind == "launch":
                row["launches"] += n
            elif layer == "cpu" and kind == "slice":
                if reason in row:
                    row[reason] += n
    rows = []
    for policy in sorted(by_policy):
        row = by_policy[policy]
        row["depth_mean"] = (row["depth_total"] / row["depth_count"]
                             if row["depth_count"] else 0.0)
        ends = row["block_yield"] + row["quantum_expiry"]
        row["expiry_ratio"] = (row["quantum_expiry"] / ends) if ends else 0.0
        rows.append(row)
    return rows


def format_decision_table(rows):
    """Render :func:`decision_table` rows as an aligned text table."""
    header = (f"{'policy':<12} {'decisions':>9} {'defers':>7} "
              f"{'depth':>7} {'launch':>7} {'yield':>8} {'expiry':>8} "
              f"{'preempt':>8} {'exp%':>6}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['policy']:<12} {r['decisions']:>9} {r['deferrals']:>7} "
            f"{r['depth_mean']:>7.2f} {r['launches']:>7} "
            f"{r['block_yield']:>8} {r['quantum_expiry']:>8} "
            f"{r['preempted']:>8} {100.0 * r['expiry_ratio']:>5.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL stream (repro-decisions/1)
# ---------------------------------------------------------------------------

class DecisionsLog:
    """Append-only JSONL sink for decision records.

    Same shape as the steady log: a ``decisions.start`` record opens a
    segment (one per run/cell), ``decision`` lines carry the records,
    and ``decisions.finish`` closes it with the ledger's *exact* totals
    — which may exceed the line count when the ring dropped events or
    counter-only tiers (CPU slices) contributed.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")

    def _emit(self, record):
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def start(self, **meta):
        """Open a segment: run metadata plus the schema tag."""
        self._emit({"ev": "decisions.start", "schema": SCHEMA, **meta})

    def decision(self, event):
        """Write one ring record (a ``sched.decision`` trace event)."""
        record = {"ev": "decision", "t": event[0], "subject": event[2]}
        record.update(zip(event[3], event[4:]))  # the detail, by position
        self._emit(record)

    def finish(self, summary):
        """Close the segment with :meth:`DecisionLedger.summary` totals."""
        self._emit({"ev": "decisions.finish", **summary})

    def close(self):
        self._fh.close()

    def write_segment(self, ledger, **meta):
        """Start/stream/finish one ledger as a complete segment."""
        self.start(**meta)
        for e in ledger.decision_events():
            self.decision(e)
        self.finish(ledger.summary())


def read_decisions_log(path):
    """Load and validate a ``repro-decisions/1`` JSONL stream.

    Returns ``[{"meta": ..., "decisions": [...], "finish": ...}, ...]``
    (one dict per segment).  Raises ``ValueError`` with the offending
    line number when a line is not tagged JSON, a segment does not open
    with a ``decisions.start`` of the supported schema, decision times
    regress within a segment, finish totals are malformed, or the file
    ends mid-segment.
    """
    segments = []
    current = None
    last_t = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"decisions log line {lineno}: not JSON ({exc})")
            if not isinstance(record, dict) or "ev" not in record:
                raise ValueError(
                    f"decisions log line {lineno}: not a tagged record")
            ev = record.pop("ev")
            if current is None:
                if ev != "decisions.start":
                    raise ValueError(
                        f"decisions log line {lineno}: expected "
                        f"decisions.start, got {ev!r}")
                check_schema(record.pop("schema", None), SCHEMA,
                             "decisions log",
                             where=f"decisions log line {lineno}")
                current = {"meta": record, "decisions": [], "finish": None}
                last_t = None
            elif ev == "decision":
                t = record.get("t")
                if not isinstance(t, (int, float)):
                    raise ValueError(
                        f"decisions log line {lineno}: decision has no "
                        f"numeric t")
                if last_t is not None and t < last_t:
                    raise ValueError(
                        f"decisions log line {lineno}: decision time "
                        f"{t} regresses below {last_t}")
                last_t = t
                for key in ("layer", "kind", "reason"):
                    if not isinstance(record.get(key), str):
                        raise ValueError(
                            f"decisions log line {lineno}: decision "
                            f"missing {key!r}")
                current["decisions"].append(record)
            elif ev == "decisions.finish":
                for key in ("decisions", "deferrals", "dropped"):
                    if not isinstance(record.get(key), int) \
                            or record[key] < 0:
                        raise ValueError(
                            f"decisions log line {lineno}: finish "
                            f"missing non-negative {key!r}")
                counts = record.get("counts")
                if not isinstance(counts, list) or any(
                        not (isinstance(row, list) and len(row) == 4
                             and isinstance(row[3], int))
                        for row in counts):
                    raise ValueError(
                        f"decisions log line {lineno}: finish counts "
                        f"must be [layer, kind, reason, n] rows")
                if sum(row[3] for row in counts) != record["decisions"]:
                    raise ValueError(
                        f"decisions log line {lineno}: finish counts sum "
                        f"to {sum(r[3] for r in counts)} but decisions "
                        f"is {record['decisions']}")
                if record["decisions"] < len(current["decisions"]):
                    raise ValueError(
                        f"decisions log line {lineno}: finish reports "
                        f"{record['decisions']} decisions but the "
                        f"segment streamed {len(current['decisions'])}")
                current["finish"] = record
                segments.append(current)
                current = None
            else:
                raise ValueError(
                    f"decisions log line {lineno}: unexpected event "
                    f"{ev!r}")
    if current is not None:
        raise ValueError("decisions log ends mid-segment (no "
                         "decisions.finish)")
    if not segments:
        raise ValueError("decisions log is empty")
    return segments
