"""Differential observability: explain what changed between two runs.

The paper's contribution is a *comparison*; this module makes comparing
two runs of the reproduction itself a first-class, machine-checked
operation instead of CSV eyeballing.  :func:`diff_runs` takes two
:class:`RunBundle`\\ s — each a metrics snapshot (``--metrics-out``), a
wait-state attribution profile (``--attrib-out``), or both — aligns
them cell-for-cell (figure x partition size x topology x policy, with
the static policy's best/worst batch orderings pooled), and produces a
:class:`DiffResult` that

- computes the per-cell mean-response-time delta with a deterministic
  bootstrap confidence interval over the per-job samples, so a delta is
  only *significant* when the job-level evidence excludes zero and the
  relative change clears a practical threshold;
- **localizes** each significant delta to the wait-state bucket(s)
  (``queued`` / ``cpu_ready`` / ``transfer`` / ``memory`` / ...) whose
  per-job means moved, ranked by contribution — the buckets partition
  response time exactly, so the bucket deltas sum to the cell delta;
- gates on *any* counter or histogram drift between the two metrics
  snapshots (the simulator is deterministic, so behaviour-preserving
  changes leave them bit-identical);
- surfaces the trace-truncation state of both sides — deltas computed
  from a ring-buffer-truncated attribution profile are *unsound* and
  carry a distinct exit code (:data:`EXIT_TRUNCATED`) so CI never
  greenlights them silently.

Everything renders as a human report (:func:`format_diff_report`) and a
schema-versioned ``repro-diff/2`` JSON (:meth:`DiffResult.to_dict`);
the CLI surfaces it as ``repro-experiments diff``.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Diff document schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-diff/2"

#: Exit codes of ``repro-experiments diff --fail-on-regression``.
EXIT_OK = 0
#: At least one regression: a significant mean-RT cell delta or any
#: counter drift.
EXIT_REGRESSION = 1
#: An attribution profile was built from a truncated trace: the deltas
#: are unsound, regardless of what they say.
EXIT_TRUNCATED = 3

#: Defaults for the statistical treatment.
DEFAULT_RESAMPLES = 2000
DEFAULT_CONFIDENCE = 0.95
DEFAULT_MIN_EFFECT = 0.01


# ---------------------------------------------------------------------------
# Run bundles: what a "run" is to the differ
# ---------------------------------------------------------------------------

@dataclass
class RunBundle:
    """One side of a diff: a metrics snapshot, a profile, or both."""

    path: str
    #: ``--metrics-out`` snapshot, or None.
    metrics: dict = None
    #: ``--attrib-out`` profile (``repro-profile/1``), or None.
    attrib: dict = None

    @property
    def label(self):
        return Path(self.path).name

    def dropped_events(self):
        """Total trace events dropped across this side's documents."""
        total = 0
        if self.metrics:
            total += sum(c.get("summary", {}).get("dropped", 0)
                         for c in self.metrics.get("cells", []))
        elif self.attrib:
            total += sum(c.get("dropped", 0) or 0
                         for c in self.attrib.get("cells", []))
        return total

    def attrib_truncated(self):
        """True when the attribution profile misses trace evidence."""
        if not self.attrib:
            return False
        for cell in self.attrib.get("cells", []):
            if cell.get("dropped", 0):
                return True
            if cell.get("skipped_jobs"):
                return True
        return False


def sniff_document(doc):
    """Classify a loaded JSON document: 'metrics', 'attrib' or None."""
    if not isinstance(doc, dict):
        return None
    schema = doc.get("schema", "")
    if schema.startswith("repro-metrics/"):
        return "metrics"
    if schema.startswith("repro-profile/"):
        return "attrib"
    # Pre-schema metrics snapshots: cells + combined, no schema field.
    if "cells" in doc and "combined" in doc:
        return "metrics"
    return None


def load_run_bundle(path):
    """Build a :class:`RunBundle` from a file or a directory.

    A *directory* bundle collects the first metrics and attribution
    snapshots found among its JSON documents, in name order.  A *file*
    bundle holds just that one document, sniffed by its schema.
    """
    p = Path(path)
    bundle = RunBundle(path=str(path))
    if p.is_dir():
        for child in sorted(p.glob("*.json")):
            try:
                with open(child) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                continue
            kind = sniff_document(doc)
            if kind and getattr(bundle, kind) is None:
                setattr(bundle, kind, doc)
        if bundle.metrics is None and bundle.attrib is None:
            raise ValueError(
                f"{path}: no metrics or attribution documents found in "
                f"directory"
            )
        return bundle
    with open(p) as fh:
        doc = json.load(fh)
    kind = sniff_document(doc)
    if kind is None:
        raise ValueError(
            f"{path}: unrecognised document (expected a repro-metrics/1 "
            f"or repro-profile/1 JSON)"
        )
    if doc.get("schema"):
        # Tagged metrics/attribution documents validate through the
        # schema registry (pre-schema metrics snapshots stay accepted).
        from repro.obs.schemas import REGISTRY

        entry = REGISTRY.get(doc["schema"])
        if entry is not None:
            doc = entry.load(p)
    setattr(bundle, kind, doc)
    return bundle


# ---------------------------------------------------------------------------
# Bootstrap statistics
# ---------------------------------------------------------------------------

def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _check_bootstrap(resamples, confidence):
    """Refuse a resample count that leaves no bootstrap distribution, and
    a confidence level outside (0, 1): 1 or more silently gives the
    widest interval, 0 or less a zero-width one at the point estimate."""
    if not resamples >= 1:
        raise ValueError(f"resamples must be >= 1, got {resamples!r}")
    if not 0 < confidence < 1:  # NaN fails this comparison too
        raise ValueError(
            f"confidence must be strictly between 0 and 1, "
            f"got {confidence!r}")


def _percentile_ci(deltas, point, confidence, resamples):
    deltas.sort()
    alpha = (1.0 - confidence) / 2.0
    lo = deltas[max(0, math.floor(alpha * resamples))]
    hi = deltas[min(resamples - 1, math.ceil((1.0 - alpha) * resamples))]
    return min(lo, point), max(hi, point)


def bootstrap_mean_delta(base, cand, resamples=DEFAULT_RESAMPLES,
                         confidence=DEFAULT_CONFIDENCE, seed=0):
    """Unpaired delta of means with a percentile-bootstrap CI.

    Resamples each side independently with replacement and returns
    ``(delta, lo, hi)`` where ``delta = mean(cand) - mean(base)`` and
    ``[lo, hi]`` covers the requested two-sided confidence level.  The
    RNG is seeded explicitly so the same inputs always produce the same
    interval — CI verdicts must be reproducible.  ``resamples`` must be
    at least 1 and ``0 < confidence < 1``.
    """
    _check_bootstrap(resamples, confidence)
    delta = _mean(cand) - _mean(base)
    if not base or not cand:
        return delta, delta, delta
    rng = random.Random(seed)
    nb, nc = len(base), len(cand)
    deltas = []
    for _ in range(resamples):
        rb = _mean([base[rng.randrange(nb)] for _ in range(nb)])
        rc = _mean([cand[rng.randrange(nc)] for _ in range(nc)])
        deltas.append(rc - rb)
    lo, hi = _percentile_ci(deltas, delta, confidence, resamples)
    return delta, lo, hi


def bootstrap_paired_delta(diffs, resamples=DEFAULT_RESAMPLES,
                           confidence=DEFAULT_CONFIDENCE, seed=0):
    """Paired mean-delta bootstrap over per-job differences.

    The simulator is deterministic and both runs execute the *same*
    batch, so when the job sets align the per-job differences are the
    whole story: a batch's response times are bimodal (small vs large
    jobs) and an unpaired interval would drown a uniform 5% slowdown
    in that between-job variance, while the paired interval sees every
    job move.  Returns ``(delta, lo, hi)``; ``resamples`` must be at
    least 1 and ``0 < confidence < 1``.
    """
    _check_bootstrap(resamples, confidence)
    delta = _mean(diffs)
    if not diffs:
        return delta, delta, delta
    rng = random.Random(seed)
    n = len(diffs)
    deltas = []
    for _ in range(resamples):
        deltas.append(_mean([diffs[rng.randrange(n)] for _ in range(n)]))
    lo, hi = _percentile_ci(deltas, delta, confidence, resamples)
    return delta, lo, hi


def _cell_seed(key):
    """Deterministic per-cell bootstrap seed from the cell's identity."""
    return zlib.crc32(":".join(str(k) for k in key).encode())


# ---------------------------------------------------------------------------
# Cell alignment
# ---------------------------------------------------------------------------

def _grid_label(raw_label):
    """'8L:static:best' -> '8L'; '8L:timesharing' -> '8L'."""
    return str(raw_label).split(":", 1)[0]


def _parse_grid_label(label):
    """('8L') -> (8, 'L'); unparsable labels give (None, label)."""
    digits = ""
    for ch in label:
        if ch.isdigit():
            digits += ch
        else:
            break
    if digits:
        return int(digits), label[len(digits):]
    return None, label


def _attrib_groups(attrib_doc):
    """Group an attribution document's cells by aligned grid cell.

    Returns ``{(figure, grid_label, policy): group}`` where each group
    pools the per-job response-time samples and per-job bucket seconds
    over the cell's entries — for the static policy that pools *both*
    batch orderings (best and worst), matching how the figure grids
    average them.
    """
    groups = {}
    for cell in (attrib_doc or {}).get("cells", []):
        raw_label = cell.get("label", "?")
        key = (cell.get("figure"), _grid_label(raw_label),
               cell.get("policy", "?"))
        g = groups.setdefault(key, {
            "samples": [], "by_job": {}, "bucket_sums": {}, "jobs": 0,
            "dropped": 0, "skipped": 0,
        })
        for position, job in enumerate(cell.get("jobs", [])):
            g["samples"].append(job["response_time"])
            # Pairing identity for the paired bootstrap: the job at the
            # same position of the same sub-run (e.g. "8L:static:worst")
            # on the other side.  Submission order is deterministic, so
            # position is the stable identity; raw job ids come from a
            # process-global counter and shift between runs.
            g["by_job"][(raw_label, position)] = job["response_time"]
            for name, dur in job.get("buckets", {}).items():
                g["bucket_sums"][name] = g["bucket_sums"].get(name, 0.0) + dur
        g["jobs"] += len(cell.get("jobs", []))
        g["dropped"] += cell.get("dropped", 0) or 0
        g["skipped"] += len(cell.get("skipped_jobs", []) or [])
    return groups


def _bucket_means(group):
    n = group["jobs"]
    if not n:
        return {}
    return {name: total / n for name, total in group["bucket_sums"].items()}


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------

@dataclass
class CellDelta:
    """One aligned grid cell's mean-response-time comparison."""

    figure: object
    label: str
    policy: str
    partition_size: object
    topology: str
    base_mean: float
    cand_mean: float
    delta: float
    rel: float
    ci_low: float
    ci_high: float
    n_base: int
    n_cand: int
    significant: bool
    #: Whether the per-job samples aligned and the CI was paired.
    paired: bool = False
    #: bucket name -> delta of per-job mean seconds (sums to ``delta``).
    bucket_deltas: dict = field(default_factory=dict)

    @property
    def regression(self):
        return self.significant and self.delta > 0

    @property
    def improvement(self):
        return self.significant and self.delta < 0

    def top_buckets(self, limit=3):
        """Buckets ranked by their contribution to this cell's delta.

        For a regression (``delta > 0``) that means the largest positive
        movers first; for an improvement, the largest negative ones.
        """
        sign = 1.0 if self.delta >= 0 else -1.0
        ranked = sorted(self.bucket_deltas.items(),
                        key=lambda kv: sign * kv[1], reverse=True)
        return [(name, dur) for name, dur in ranked[:limit]
                if sign * dur > 0]

    def to_dict(self):
        return {
            "figure": self.figure,
            "label": self.label,
            "policy": self.policy,
            "partition_size": self.partition_size,
            "topology": self.topology,
            "base_mean_rt": self.base_mean,
            "cand_mean_rt": self.cand_mean,
            "delta": self.delta,
            "rel": self.rel,
            "ci": [self.ci_low, self.ci_high],
            "n": [self.n_base, self.n_cand],
            "paired": self.paired,
            "significant": self.significant,
            "regression": self.regression,
            "bucket_deltas": dict(sorted(self.bucket_deltas.items())),
            "top_buckets": [list(t) for t in self.top_buckets()],
        }


def _counter_deltas(base_metrics, cand_metrics):
    """Changed counters/histogram means in the combined registries.

    Requires snapshots on *both* sides — diffing a registry against a
    missing one would report every metric as "new", which is noise, not
    drift.
    """
    out = []
    if not base_metrics or not cand_metrics:
        return out
    base = base_metrics.get("combined", {})
    cand = cand_metrics.get("combined", {})
    for name in sorted(set(base) | set(cand)):
        b, c = base.get(name, {}), cand.get(name, {})
        kind = c.get("type") or b.get("type")
        if kind == "counter":
            bv, cv = b.get("value", 0), c.get("value", 0)
        elif kind == "histogram":
            bv, cv = b.get("mean", 0.0), c.get("mean", 0.0)
        else:
            continue
        if bv == cv:
            continue
        rel = (cv - bv) / bv if bv else float("inf")
        out.append({"name": name, "kind": kind, "base": bv, "cand": cv,
                    "delta": cv - bv, "rel": rel})
    out.sort(key=lambda d: -abs(d["rel"] if math.isfinite(d["rel"])
                                else 1e18))
    return out


# ---------------------------------------------------------------------------
# The diff itself
# ---------------------------------------------------------------------------

@dataclass
class DiffResult:
    """Everything :func:`diff_runs` concluded, render- and JSON-able."""

    baseline: RunBundle
    candidate: RunBundle
    cells: list = field(default_factory=list)
    counters: list = field(default_factory=list)
    min_effect: float = DEFAULT_MIN_EFFECT
    confidence: float = DEFAULT_CONFIDENCE

    def significant_regressions(self):
        return [c for c in self.cells if c.regression]

    def improvements(self):
        return [c for c in self.cells if c.improvement]

    @property
    def unsound(self):
        """True when either side's attribution evidence is truncated."""
        return (self.baseline.attrib_truncated()
                or self.candidate.attrib_truncated())

    @property
    def drifted(self):
        """True when a counter or histogram differs at all between the
        two sides' metrics snapshots."""
        return bool(self.counters)

    @property
    def regressed(self):
        return bool(self.significant_regressions() or self.drifted)

    def exit_code(self, fail_on_regression=False):
        """Gate verdict: truncation trumps everything, then regressions."""
        if not fail_on_regression:
            return EXIT_OK
        if self.unsound:
            return EXIT_TRUNCATED
        if self.regressed:
            return EXIT_REGRESSION
        return EXIT_OK

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "baseline": {
                "path": self.baseline.path,
                "label": self.baseline.label,
                "dropped_events": self.baseline.dropped_events(),
                "attrib_truncated": self.baseline.attrib_truncated(),
            },
            "candidate": {
                "path": self.candidate.path,
                "label": self.candidate.label,
                "dropped_events": self.candidate.dropped_events(),
                "attrib_truncated": self.candidate.attrib_truncated(),
            },
            "config": {
                "min_effect": self.min_effect,
                "confidence": self.confidence,
            },
            "unsound": self.unsound,
            "regressed": self.regressed,
            "cells": [c.to_dict() for c in self.cells],
            "significant_regressions": len(self.significant_regressions()),
            "improvements": len(self.improvements()),
            "counters": self.counters,
        }


def diff_runs(baseline, candidate, *, min_effect=DEFAULT_MIN_EFFECT,
              confidence=DEFAULT_CONFIDENCE, resamples=DEFAULT_RESAMPLES):
    """Compare two :class:`RunBundle`\\ s end-to-end.

    A cell delta is *significant* when its bootstrap confidence interval
    excludes zero **and** the relative change clears ``min_effect`` —
    the simulator is deterministic, so two identical-seed runs produce
    exactly zero significant deltas, and any genuine model change shows
    up with its responsible wait-state buckets attached.

    Raises ``ValueError`` for ``resamples < 1``, a ``confidence``
    outside (0, 1), or a NaN, infinite or negative ``min_effect``: any
    of them would make the gate fail to gate.
    """
    _check_bootstrap(resamples, confidence)
    if not 0 <= min_effect < math.inf:
        raise ValueError(
            f"min_effect must be finite and >= 0, got {min_effect!r}")
    result = DiffResult(baseline=baseline, candidate=candidate,
                        min_effect=min_effect, confidence=confidence)

    base_groups = _attrib_groups(baseline.attrib)
    cand_groups = _attrib_groups(candidate.attrib)
    for key in sorted(set(base_groups) & set(cand_groups),
                      key=lambda k: (str(k[0]), k[1], k[2])):
        bg, cg = base_groups[key], cand_groups[key]
        paired = (bg["by_job"] and set(bg["by_job"]) == set(cg["by_job"]))
        if paired:
            diffs = [cg["by_job"][j] - bg["by_job"][j]
                     for j in sorted(bg["by_job"],
                                     key=lambda j: (str(j[0]), j[1]))]
            delta, lo, hi = bootstrap_paired_delta(
                diffs, resamples=resamples, confidence=confidence,
                seed=_cell_seed(key),
            )
        else:
            delta, lo, hi = bootstrap_mean_delta(
                bg["samples"], cg["samples"], resamples=resamples,
                confidence=confidence, seed=_cell_seed(key),
            )
        base_mean = _mean(bg["samples"])
        rel = delta / base_mean if base_mean else (
            float("inf") if delta else 0.0)
        significant = (delta != 0.0 and (lo > 0.0 or hi < 0.0)
                       and abs(rel) >= min_effect)
        bm, cm = _bucket_means(bg), _bucket_means(cg)
        bucket_deltas = {name: cm.get(name, 0.0) - bm.get(name, 0.0)
                         for name in set(bm) | set(cm)}
        figure, label, policy = key
        psize, topo = _parse_grid_label(label)
        result.cells.append(CellDelta(
            figure=figure, label=label, policy=policy,
            partition_size=psize, topology=topo,
            base_mean=base_mean, cand_mean=_mean(cg["samples"]),
            delta=delta, rel=rel, ci_low=lo, ci_high=hi,
            n_base=len(bg["samples"]), n_cand=len(cg["samples"]),
            paired=paired, significant=significant,
            bucket_deltas=bucket_deltas,
        ))

    result.counters = _counter_deltas(baseline.metrics, candidate.metrics)
    return result


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt_bucket_attribution(cell):
    tops = cell.top_buckets()
    if not tops:
        return "-"
    return ", ".join(f"{name} {dur:+.3f}s" for name, dur in tops)


def format_diff_report(result):
    """The human-readable side of the diff: one section per evidence
    source, verdict last."""
    lines = []
    lines.append(f"=== Run diff: baseline [{result.baseline.label}] vs "
                 f"candidate [{result.candidate.label}]")

    if result.cells:
        sig = [c for c in result.cells if c.significant]
        lines.append(f"--- mean response time ({len(result.cells)} aligned "
                     f"cells, {len(sig)} significant at "
                     f"{result.confidence:.0%} / "
                     f">={result.min_effect:.1%} effect)")
        for c in sig:
            kind = "REGRESSION" if c.delta > 0 else "improvement"
            fig = f"fig {c.figure} " if c.figure is not None else ""
            lines.append(
                f"  {fig}{c.label:>4} {c.policy:<12} {c.base_mean:9.3f} -> "
                f"{c.cand_mean:9.3f}  ({c.rel:+.1%}, CI [{c.ci_low:+.3f}, "
                f"{c.ci_high:+.3f}], n={c.n_base}/{c.n_cand})  {kind}"
            )
            lines.append(f"        attributed to: "
                         f"{_fmt_bucket_attribution(c)}")
        if not sig:
            lines.append("  no significant per-cell deltas")
    else:
        lines.append("--- mean response time: no attribution profiles on "
                     "both sides; cell-level localisation skipped")

    if result.counters:
        lines.append("--- counters / histograms (combined registries, "
                     "top drift first; any drift is a regression)")
        for d in result.counters[:10]:
            rel = (f"{d['rel']:+.1%}" if math.isfinite(d["rel"])
                   else "new")
            lines.append(f"  {d['name']:<28} {d['base']:>12.6g} -> "
                         f"{d['cand']:>12.6g}  ({rel})")
        if len(result.counters) > 10:
            lines.append(f"  ... {len(result.counters) - 10} more")

    base_drop = result.baseline.dropped_events()
    cand_drop = result.candidate.dropped_events()
    lines.append("--- trace soundness")
    lines.append(f"  ring-buffer drops: baseline {base_drop}, "
                 f"candidate {cand_drop}")
    if result.unsound:
        lines.append("  UNSOUND: an attribution profile was built from a "
                     "truncated trace; per-bucket deltas are not "
                     "trustworthy (raise the recorder capacity and rerun)")

    if result.unsound:
        verdict = "UNSOUND (truncated trace)"
    elif result.regressed:
        verdict = (f"REGRESSED ({len(result.significant_regressions())} "
                   f"cell(s), {len(result.counters)} counter drift)")
    else:
        verdict = "OK (no significant regressions)"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"
