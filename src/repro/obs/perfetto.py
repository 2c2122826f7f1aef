"""Chrome-trace / Perfetto export of an instrumented run.

Produces the ``trace_events`` JSON format, which opens directly in
`ui.perfetto.dev <https://ui.perfetto.dev>`_ (or ``chrome://tracing``):

- one **process** per simulated node (``pid = node_id + 10``) with one
  **thread** per hardware unit: the CPU, plus one thread per outgoing
  link;
- a **scheduler** process (``pid = 1``) with one thread per job carrying
  the derived lifecycle spans (``queued / allocated / executing``) and a
  ``departed`` instant;
- every series-recording gauge becomes a counter track (``"C"``
  events), placed on the node its name references (``...node5...``) or
  on the scheduler process otherwise.

Simulated seconds are exported as microseconds (the format's native
unit), so a 10-second run reads as 10 s on the Perfetto timeline.
"""

from __future__ import annotations

import json
import re

from repro.obs.spans import job_spans, process_spans
from repro.trace.recorder import detail_fields

#: Causal-profiler input categories (see :mod:`repro.obs.profile`).
#: Dense interval streams — omitted from the default export to keep
#: traces lean; ``to_perfetto(..., process_tracks=True)`` renders the
#: per-process ones as spans instead.
_PROFILE_CATEGORIES = frozenset(
    {"cpu.wait", "net.msg", "mem.wait", "buf.wait"}
)

#: The detail fields each exported category reads, by position (the
#: fields its recording sites always write).
_SLICE_FIELDS = ("node", "dur", "prio", "tag")
_PREEMPT_FIELDS = ("node", "tag")
_TRANSFER_FIELDS = ("node", "dur", "dst", "nbytes", "wait")
_DECISION_FIELDS = ("layer", "kind", "reason")

#: Process id of the synthetic "scheduler" process (job spans, global
#: counters, uncategorised instants).
SCHEDULER_PID = 1
#: Node processes start here: ``pid = node_id + NODE_PID_BASE`` (the
#: gap below keeps synthetic pids — scheduler, stray unowned CPUs —
#: clear of real node pids).
NODE_PID_BASE = 10
#: The CPU thread of every node process.
CPU_TID = 1

_NODE_IN_NAME = re.compile(r"(?:^|[.\[])node(\d+)(?:[.\]]|$)")


def node_pid(node_id):
    """Perfetto pid for a simulated node."""
    return int(node_id) + NODE_PID_BASE


def pid_node(pid):
    """Inverse of :func:`node_pid` (None for the scheduler process)."""
    return pid - NODE_PID_BASE if pid >= NODE_PID_BASE else None


def _us(t):
    """Simulated seconds -> integer-friendly microseconds."""
    return round(float(t) * 1e6, 3)


class _TidTable:
    """Sequential, deterministic (pid, name) -> tid assignment."""

    def __init__(self):
        self._tids = {}       # (pid, name) -> tid
        self._next = {}       # pid -> next free tid
        self.meta = []        # thread_name metadata events

    def tid(self, pid, name, fixed=None):
        key = (pid, name)
        tid = self._tids.get(key)
        if tid is None:
            if fixed is not None:
                tid = fixed
                self._next[pid] = max(self._next.get(pid, CPU_TID + 1),
                                      fixed + 1)
            else:
                # Sequential tids start above the fixed (CPU) slot so a
                # link thread seen first can never collide with it.
                tid = self._next.get(pid, CPU_TID + 1)
                self._next[pid] = tid + 1
            self._tids[key] = tid
            self.meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        return tid


def to_perfetto(telemetry, process_tracks=False):
    """Convert a :class:`~repro.obs.telemetry.Telemetry` to trace JSON.

    Returns the ``{"traceEvents": [...]}`` dict; events are sorted by
    timestamp (metadata first), so ``ts`` is monotonic.  The recorder's
    kept/dropped/capacity totals are embedded as ``otherData`` (shown
    under trace info in ui.perfetto.dev), and a truncated ring buffer
    additionally gets a visible "trace truncated" instant at the start
    of the retained window.  ``process_tracks=True`` adds one track per
    job process carrying its ``executing``/``preempted`` spans (off by
    default: a per-quantum track set can dwarf the hardware tracks).
    """
    events = []
    tids = _TidTable()
    process_meta = {}

    def ensure_process(pid, name):
        if pid not in process_meta:
            process_meta[pid] = {
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": name},
            }

    ensure_process(SCHEDULER_PID, "scheduler")

    def node_process(nid):
        pid = node_pid(nid)
        ensure_process(pid, f"node {nid}")
        return pid

    recorded = list(telemetry.recorder)
    for e in recorded:
        # Each record's detail fields are read by position; no detail
        # dict is built (a record is a flat tuple, see TraceEvent).
        category = e[1]
        if category == "cpu.slice":
            node, dur, prio, tag = detail_fields(e, _SLICE_FIELDS)
            pid = node_process(node)
            tid = tids.tid(pid, "cpu", fixed=CPU_TID)
            name = str(tag)
            events.append({
                "ph": "X", "name": f"{prio}:{name}",
                "cat": category, "pid": pid, "tid": tid,
                "ts": _us(e[0]), "dur": _us(dur),
                "args": {"tag": name},
            })
        elif category == "cpu.preempt":
            node, tag = detail_fields(e, _PREEMPT_FIELDS)
            pid = node_process(node)
            events.append({
                "ph": "i", "name": "preempt", "cat": category,
                "pid": pid, "tid": tids.tid(pid, "cpu", fixed=CPU_TID),
                "ts": _us(e[0]), "s": "t",
                "args": {"tag": str(tag)},
            })
        elif category == "link.transfer":
            node, dur, dst, nbytes, wait = detail_fields(e, _TRANSFER_FIELDS)
            pid = node_process(node)
            tid = tids.tid(pid, f"link->{dst}")
            events.append({
                "ph": "X", "name": f"xfer {nbytes}B",
                "cat": category, "pid": pid, "tid": tid,
                "ts": _us(e[0]), "dur": _us(dur),
                "args": {"nbytes": nbytes, "wait": wait},
            })
        elif category == "sched.decision":
            # Decision-ledger records: instants on per-scheduler tracks
            # (one thread per partition scheduler, one for the super
            # scheduler), so placement/deferral/launch choices line up
            # against the hardware tracks they caused work on.
            layer, kind, reason = detail_fields(e, _DECISION_FIELDS)
            if layer == "partition":
                tid = tids.tid(SCHEDULER_PID, f"decisions:{e[2]}")
            else:
                tid = tids.tid(SCHEDULER_PID, "decisions:super")
            events.append({
                "ph": "i", "name": f"{kind}:{reason}",
                "cat": category, "pid": SCHEDULER_PID, "tid": tid,
                "ts": _us(e[0]), "s": "t",
                "args": {k: str(v) for k, v in zip(e[3], e[4:])},
            })
        elif category.startswith("job."):
            continue  # handled below via span derivation
        elif category in _PROFILE_CATEGORIES:
            continue  # profiler inputs; see process_tracks
        else:
            tid = tids.tid(SCHEDULER_PID, "events")
            events.append({
                "ph": "i", "name": category, "cat": category,
                "pid": SCHEDULER_PID, "tid": tid, "ts": _us(e[0]),
                "s": "t",
                "args": {k: str(v) for k, v in zip(e[3], e[4:])},
            })

    for span in job_spans(recorded):
        tid = tids.tid(SCHEDULER_PID, span.track)
        events.append({
            "ph": "X", "name": span.name, "cat": "job",
            "pid": SCHEDULER_PID, "tid": tid,
            "ts": _us(span.start), "dur": _us(span.duration),
            "args": {k: str(v) for k, v in span.args.items()},
        })
    for e in recorded:
        if e.category == "job.completed":
            tid = tids.tid(SCHEDULER_PID, e.subject)
            events.append({
                "ph": "i", "name": "departed", "cat": "job",
                "pid": SCHEDULER_PID, "tid": tid, "ts": _us(e.time),
                "s": "t", "args": {},
            })

    if process_tracks:
        for span in process_spans(recorded):
            tid = tids.tid(SCHEDULER_PID, span.track)
            events.append({
                "ph": "X", "name": span.name, "cat": "process",
                "pid": SCHEDULER_PID, "tid": tid,
                "ts": _us(span.start), "dur": _us(span.duration),
                "args": {k: str(v) for k, v in span.args.items()},
            })

    summary = telemetry.recorder.summary()
    if summary["dropped"] and recorded:
        # Make ring-buffer truncation visible on the timeline itself,
        # not just in trace info: a global instant where the retained
        # window begins.
        events.append({
            "ph": "i",
            "name": (f"trace truncated: {summary['dropped']} older "
                     f"events dropped"),
            "cat": "trace", "pid": SCHEDULER_PID,
            "tid": tids.tid(SCHEDULER_PID, "events"),
            "ts": _us(min(e.time for e in recorded)), "s": "g",
            "args": {k: str(v) for k, v in summary.items()},
        })

    for name, gauge in sorted(telemetry.metrics.gauges().items()):
        samples = gauge.samples
        if not samples:
            continue
        m = _NODE_IN_NAME.search(name)
        if m is not None:
            pid = node_process(int(m.group(1)))
        else:
            pid = SCHEDULER_PID
        for t, v in samples:
            events.append({
                "ph": "C", "name": name, "pid": pid, "ts": _us(t),
                "args": {"value": v},
            })

    events.sort(key=lambda ev: (ev["ts"], ev["pid"], ev.get("tid", 0)))
    meta = [process_meta[p] for p in sorted(process_meta)] + tids.meta
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        # Surfaced by ui.perfetto.dev under "info and stats", so a
        # truncated recorder is never mistaken for a complete log.
        "otherData": {k: str(v) for k, v in summary.items()},
    }


def write_perfetto(telemetry, path, process_tracks=False):
    """Write the trace JSON to ``path``; returns the event count."""
    doc = to_perfetto(telemetry, process_tracks=process_tracks)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return len(doc["traceEvents"])
