"""Flat JSONL export of an instrumented run.

One JSON object per line, in three record shapes, so the stream greps
and ``jq``-filters cleanly:

- ``{"type": "event", "ts": ..., "cat": ..., "subject": ..., ...}`` —
  one per recorded trace event (detail keys inlined);
- ``{"type": "sample", "ts": ..., "name": ..., "value": ...}`` — one per
  gauge time-series point;
- ``{"type": "summary", ...}`` — a single trailer with the run totals
  (event count, drops, instrument summaries).
"""

from __future__ import annotations

import json


def jsonl_records(telemetry):
    """Yield the export records (dicts) in timestamp order per section."""
    for e in telemetry.recorder:
        # A record is a flat tuple (time, category, subject, keys,
        # *values): its detail fields are read by position.
        rec = {"type": "event", "ts": e[0], "cat": e[1], "subject": e[2]}
        for k, v in zip(e[3], e[4:]):
            rec.setdefault(k, v)
        yield rec
    for name, gauge in sorted(telemetry.metrics.gauges().items()):
        for t, v in gauge.samples or ():
            yield {"type": "sample", "ts": t, "name": name, "value": v}
    summary = dict(telemetry.summary())
    summary["type"] = "summary"
    summary["metrics"] = telemetry.metrics.to_dict()
    yield summary


def jsonl_lines(telemetry):
    """Yield the export as JSON-encoded lines (no trailing newline)."""
    for rec in jsonl_records(telemetry):
        yield json.dumps(rec, sort_keys=True, default=str)


def write_jsonl(telemetry, path):
    """Write the JSONL stream to ``path``; returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for line in jsonl_lines(telemetry):
            fh.write(line + "\n")
            n += 1
    return n
