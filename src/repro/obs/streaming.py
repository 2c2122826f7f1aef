"""Streaming steady-state observability for open-system runs.

The closed-batch layers (PR 1 metrics, PR 2 attribution, PR 4 diff) all
assume a per-job list that fits in memory.  A steady-state run pushing
10⁶–10⁷ jobs through :meth:`MulticomputerSystem.run_open` cannot
afford that, so this module provides the O(1)-memory counterparts:

- :class:`OnlineStats` — Welford mean/variance with an exact parallel
  merge (Chan et al.), so sharded runs combine losslessly;
- :class:`QuantileSketch` — a fixed log-bucket quantile sketch built on
  the :class:`~repro.obs.metrics.Histogram` geometry (same boundaries
  ⇒ :meth:`MetricsRegistry.merge` semantics carry over exactly), with
  log-linear within-bucket interpolation and a provable per-quantile
  relative error bound of one bucket ratio;
- :class:`BatchSeries` — the completion-ordered response-time series
  collapsed into adaptive batch means (batch size doubles when the
  buffer fills), the bounded-memory input to warm-up detection and
  batch-means confidence intervals;
- :func:`mser` — MSER warm-up truncation over batch means (MSER-5 when
  the series has not collapsed);
- :func:`batch_means_ci` — batch-means confidence interval with a
  lag-1 autocorrelation soundness check, so one long run yields a CI
  without replication;
- :class:`SteadyStateSink` — the run_open-facing orchestrator: feeds
  the aggregators from arrival/completion callbacks, maintains windowed
  time-series rings (throughput, response time, jobs in system,
  utilization), and emits each closed window incrementally to a
  ``repro-steady/1`` JSONL stream (:mod:`repro.obs.steadylog`);
- :class:`OpenRunResult` — what ``run_open(collect_jobs=False)``
  returns: counts plus streaming summaries, no per-job storage.

Everything here is host-side bookkeeping driven by callbacks that
already exist (job transitions); no simulation events are created, so
an instrumented run's simulated timeline is identical to a bare one.
"""

from __future__ import annotations

import math
from collections import deque

from repro.obs.metrics import Histogram, log_boundaries

#: Default sketch geometry: 1 µs .. 10⁴ s in 1/32-decade buckets (321
#: buckets, ~7.5% bucket ratio; interpolation is usually far tighter).
#: A pure function of these arguments, so independently built sketches
#: merge exactly.
STEADY_BOUNDARIES = log_boundaries(low_exp=-6, high_exp=4, per_decade=32)

#: MSER base batch size (the classic "MSER-5").
MSER_BASE_BATCH = 5

#: Batch-means buffer cap: when :class:`BatchSeries` holds this many
#: batch means the batch size doubles and pairs merge.  Must be even.
DEFAULT_MAX_BATCHES = 2048

#: Windows retained in the :class:`SteadyStateSink` ring.
DEFAULT_RING_CAPACITY = 256

#: Macro-batches for the batch-means CI.
DEFAULT_CI_BATCHES = 20

#: Lag-1 autocorrelation of the macro-batch means above which the CI is
#: flagged unsound (batches too correlated to be treated as IID).
DEFAULT_LAG1_THRESHOLD = 0.2

#: Two-sided 95% Student-t critical values, df 1..30; beyond that the
#: asymptote ``1.96 + 2.4/df`` is within 0.001 of the true quantile.
_T_975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t_quantile_975(df):
    """Upper 97.5% Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if df <= len(_T_975):
        return _T_975[df - 1]
    return 1.96 + 2.4 / df


class OnlineStats:
    """Welford single-pass mean/variance, mergeable across shards.

    ``push`` is O(1); ``merge`` implements the Chan et al. parallel
    update, so splitting a stream across sinks and merging gives the
    same moments as one sink seeing everything (up to float rounding).
    """

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, x):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def variance(self):
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self):
        return math.sqrt(self.variance)

    @property
    def sem(self):
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n else 0.0

    def merge(self, other):
        """Exact in-place merge of another :class:`OnlineStats`."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self._m2 = other.n, other.mean, other._m2
            self.min, self.max = other.min, other.max
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self.mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_dict(self):
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
        }

    def __repr__(self):
        return f"<OnlineStats n={self.n} mean={self.mean:.4g}>"


class QuantileSketch(Histogram):
    """Mergeable quantile sketch over fixed log buckets.

    A :class:`Histogram` subclass, so bucket counts, the registry's
    kind checks, and :meth:`MetricsRegistry.merge`'s exact-merge
    semantics all apply unchanged.  On top of the base class's
    upper-bound quantile it interpolates log-linearly *within* the
    bucket, which bounds the relative error of any quantile by one
    bucket ratio (``10**(1/per_decade)``) for observations inside the
    boundary span.
    """

    __slots__ = ()

    def __init__(self, name, boundaries=STEADY_BOUNDARIES):
        super().__init__(name, boundaries=boundaries)

    @property
    def bucket_ratio(self):
        """Worst-case multiplicative quantile error inside the span."""
        b = self.boundaries
        return max(b[i + 1] / b[i] for i in range(len(b) - 1))

    def quantile(self, q):
        """Interpolated q-quantile (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            if not c:
                continue
            if seen + c >= rank:
                frac = (rank - seen) / c
                if i == 0:
                    lo, hi = min(self._min, self.boundaries[0]), \
                        self.boundaries[0]
                elif i < len(self.boundaries):
                    lo, hi = self.boundaries[i - 1], self.boundaries[i]
                else:
                    lo, hi = self.boundaries[-1], max(self._max,
                                                      self.boundaries[-1])
                if lo <= 0:
                    value = hi * frac
                else:
                    value = lo * (hi / lo) ** frac
                return min(max(value, self._min), self._max)
            seen += c
        return self._max

    def quantiles(self, qs=(0.5, 0.9, 0.99)):
        return {f"p{q * 100:g}".replace(".", "_"): self.quantile(q)
                for q in qs}

    def to_dict(self):
        out = super().to_dict()
        out["type"] = "quantile_sketch"
        out.update({"p50": self.quantile(0.5), "p90": self.quantile(0.9),
                    "p99": self.quantile(0.99)})
        return out


class BatchSeries:
    """Completion-ordered series collapsed into adaptive batch means.

    Warm-up detection and batch-means CIs need the *sequence* of
    observations, which is O(n); this keeps means of consecutive
    batches instead.  The batch size starts at ``base`` (5 ⇒ classic
    MSER-5) and doubles whenever ``max_batches`` means accumulate, by
    exactly averaging adjacent pairs — so memory is O(max_batches)
    regardless of stream length and every retained mean still covers a
    contiguous completion-order span.
    """

    __slots__ = ("batch_size", "means", "max_batches", "observations",
                 "_acc", "_acc_n")

    def __init__(self, base=MSER_BASE_BATCH, max_batches=DEFAULT_MAX_BATCHES):
        if base < 1:
            raise ValueError("base batch size must be >= 1")
        if max_batches < 4 or max_batches % 2:
            raise ValueError("max_batches must be even and >= 4")
        self.batch_size = base
        self.max_batches = max_batches
        self.means = []
        self.observations = 0
        self._acc = 0.0
        self._acc_n = 0

    def push(self, x):
        self.observations += 1
        self._acc += x
        self._acc_n += 1
        if self._acc_n == self.batch_size:
            self.means.append(self._acc / self.batch_size)
            self._acc = 0.0
            self._acc_n = 0
            if len(self.means) >= self.max_batches:
                self.means = [
                    (self.means[i] + self.means[i + 1]) / 2.0
                    for i in range(0, len(self.means), 2)
                ]
                self.batch_size *= 2

    @property
    def covered(self):
        """Observations represented in ``means`` (excludes the partial tail)."""
        return len(self.means) * self.batch_size

    def __len__(self):
        return len(self.means)

    def __repr__(self):
        return (f"<BatchSeries {len(self.means)} means x "
                f"{self.batch_size} obs>")


def mser(means, min_tail=5):
    """MSER warm-up truncation point over a batch-means series.

    Returns ``(d, converged)``: drop the first ``d`` batch means; the
    remainder minimises the MSER statistic (variance of the truncated
    sample mean).  Following the standard recommendation, the result is
    flagged not converged when the optimum lies in the second half of
    the series — the run is then too short to declare steady state.
    """
    m = len(means)
    if m < max(min_tail, 2):
        return 0, False
    s = ss = 0.0
    best_d, best_stat = 0, math.inf
    for d in range(m - 1, -1, -1):
        z = means[d]
        s += z
        ss += z * z
        n = m - d
        if n < min_tail:
            continue
        var = max(ss / n - (s / n) ** 2, 0.0)
        stat = var / n
        if stat < best_stat or (stat == best_stat and d < best_d):
            best_d, best_stat = d, stat
    return best_d, best_d <= m // 2


def lag1_autocorrelation(xs):
    """Lag-1 sample autocorrelation; 0.0 for degenerate series."""
    n = len(xs)
    if n < 2:
        return 0.0
    mu = sum(xs) / n
    den = sum((x - mu) ** 2 for x in xs)
    if den <= 0.0:
        return 0.0
    num = sum((xs[i] - mu) * (xs[i + 1] - mu) for i in range(n - 1))
    return num / den


def batch_means_ci(means, batches=DEFAULT_CI_BATCHES,
                   lag1_threshold=DEFAULT_LAG1_THRESHOLD):
    """Batch-means 95% CI over an (already truncated) batch-means series.

    The series is regrouped into at most ``batches`` equal macro-batches
    (oldest remainder dropped — it abuts the warm-up); the CI treats
    the macro-batch means as IID normal, which the lag-1 autocorrelation
    check validates: ``sound`` is False when fewer than 8 macro-batches
    exist or their lag-1 autocorrelation exceeds ``lag1_threshold``
    (positive correlation makes the CI anti-conservative; negative only
    makes it wider, so it does not trip the check).
    """
    n = len(means)
    if n < 2:
        mean = means[0] if means else 0.0
        return {"mean": mean, "halfwidth": math.inf, "batches": n,
                "lag1": 0.0, "sound": False}
    k = min(batches, n)
    size = n // k
    start = n - size * k
    groups = [
        sum(means[start + j * size:start + (j + 1) * size]) / size
        for j in range(k)
    ]
    grand = sum(groups) / k
    var = sum((g - grand) ** 2 for g in groups) / (k - 1)
    halfwidth = t_quantile_975(k - 1) * math.sqrt(var / k)
    lag1 = float(lag1_autocorrelation(groups))
    return {
        "mean": float(grand),
        "halfwidth": float(halfwidth),
        "batches": k,
        "lag1": lag1,
        "sound": bool(k >= 8 and lag1 <= lag1_threshold),
    }


class SteadyWindow:
    """One closed time window of the steady-state stream."""

    __slots__ = ("index", "t0", "t1", "arrived", "completed", "rt_mean",
                 "jobs_in_system", "utilization", "partial",
                 "decisions", "deferrals")

    def __init__(self, index, t0, t1, arrived, completed, rt_mean,
                 jobs_in_system, utilization, partial=False,
                 decisions=None, deferrals=None):
        self.index = index
        self.t0 = t0
        self.t1 = t1
        self.arrived = arrived
        self.completed = completed
        self.rt_mean = rt_mean
        self.jobs_in_system = jobs_in_system
        self.utilization = utilization
        self.partial = partial
        #: Decision-ledger deltas over this window (None = ledger off).
        self.decisions = decisions
        self.deferrals = deferrals

    @property
    def throughput(self):
        width = self.t1 - self.t0
        return self.completed / width if width > 0 else 0.0

    def to_dict(self):
        out = {
            "i": self.index,
            "t0": round(self.t0, 9),
            "t1": round(self.t1, 9),
            "arrived": self.arrived,
            "completed": self.completed,
            "throughput": round(self.throughput, 6),
            "rt_mean": round(self.rt_mean, 9),
            "n_sys": round(self.jobs_in_system, 6),
        }
        if self.utilization is not None:
            out["util"] = round(self.utilization, 6)
        if self.decisions is not None:
            out["decisions"] = self.decisions
            out["deferrals"] = self.deferrals
        if self.partial:
            out["partial"] = True
        return out

    def __repr__(self):
        return (f"<SteadyWindow {self.index} [{self.t0:g},{self.t1:g}) "
                f"x={self.throughput:.3g}/s>")


class SteadyStateSink:
    """Streaming statistics sink for :meth:`MulticomputerSystem.run_open`.

    Pass one as ``run_open(..., sink=...)``: the feeder reports each
    arrival and the scheduler's completion hook reports each finished
    job.  Memory is O(1) in the number of jobs — Welford aggregates, a
    fixed-bucket quantile sketch, an adaptively collapsed batch-means
    series, and a bounded ring of closed windows.

    ``window`` (simulated seconds) enables the windowed time series:
    throughput, in-window mean response time, time-averaged jobs in
    system, and CPU utilization per window, kept in :attr:`ring` and
    emitted incrementally to ``log`` (a :class:`repro.obs.steadylog.
    SteadyLog`) as the simulation crosses each boundary.  Window edges
    are recognised lazily at the first arrival/completion at-or-after
    the boundary; empty windows are still emitted, and utilization is
    read from the cumulative CPU counters at that recognition point
    (slice-end granularity), which keeps the sink free of simulation
    events.  With ``window=None`` only the run-level aggregates are
    maintained.
    """

    def __init__(self, window=None, log=None,
                 ring_capacity=DEFAULT_RING_CAPACITY,
                 boundaries=STEADY_BOUNDARIES,
                 mser_base=MSER_BASE_BATCH,
                 max_batches=DEFAULT_MAX_BATCHES,
                 ci_batches=DEFAULT_CI_BATCHES,
                 lag1_threshold=DEFAULT_LAG1_THRESHOLD):
        # Written so that NaN fails too: with a NaN width no window
        # would ever close.
        if window is not None and not 0 < window < math.inf:
            raise ValueError(f"window must be finite and positive, "
                             f"got {window}")
        self.window = window
        self.log = log
        self.ring = deque(maxlen=ring_capacity)
        self.response = OnlineStats()
        self.wait = OnlineStats()
        self.sketch = QuantileSketch("open.response_time",
                                     boundaries=boundaries)
        self.series = BatchSeries(base=mser_base, max_batches=max_batches)
        self.by_class = {}
        self.arrived = 0
        self.completed = 0
        self.ci_batches = ci_batches
        self.lag1_threshold = lag1_threshold
        self.windows_emitted = 0
        self._meta = {}
        self._system = None
        self._num_cpus = 0
        self._busy_prev = 0.0
        self._ledger = None
        self._dec_prev = 0
        self._def_prev = 0
        self._w_index = 0
        self._w_start = 0.0
        self._w_arrived = 0
        self._w_completed = 0
        self._w_rt_sum = 0.0
        self._area = 0.0
        self._last_t = 0.0
        self._n_sys = 0
        self._finished = False

    # -- wiring ----------------------------------------------------------
    def bind(self, system, **meta):
        """Attach to a freshly built system (called by ``run_open``)."""
        self._system = system
        self._num_cpus = len(system.nodes)
        self._busy_prev = self._busy_time()
        # Decision-rate columns: snapshot the ledger's cumulative
        # totals at each window close; keys are absent (and the stream
        # byte-identical) when the ledger is off.
        self._ledger = getattr(system, "decisions", None)
        if self._ledger is not None:
            self._dec_prev = self._ledger.total
            self._def_prev = self._ledger.deferrals
        self._meta = dict(meta)
        if self.log is not None:
            self.log.start({
                "policy": system.policy.name,
                "nodes": self._num_cpus,
                "topology": system.config.topology,
                "window": self.window,
                **self._meta,
            })
        return self

    def _busy_time(self):
        if self._system is None:
            return 0.0
        return sum(n.cpu.stats.busy_time + n.cpu.stats.overhead_time
                   for n in self._system.nodes.values())

    # -- window machinery ------------------------------------------------
    def _advance(self, t):
        """Account jobs-in-system area up to ``t``, closing windows."""
        if self.window is None:
            self._last_t = t
            return
        end = self._w_start + self.window
        while t >= end:
            self._area += (end - self._last_t) * self._n_sys
            self._last_t = end
            self._close_window(end)
            end = self._w_start + self.window
        self._area += (t - self._last_t) * self._n_sys
        self._last_t = t

    def _close_window(self, end, partial=False):
        width = end - self._w_start
        if width <= 0:
            return
        busy = self._busy_time()
        util = ((busy - self._busy_prev) / (width * self._num_cpus)
                if self._num_cpus else None)
        self._busy_prev = busy
        decisions = deferrals = None
        led = self._ledger
        if led is not None:
            decisions = led.total - self._dec_prev
            deferrals = led.deferrals - self._def_prev
            self._dec_prev = led.total
            self._def_prev = led.deferrals
        win = SteadyWindow(
            self._w_index, self._w_start, end,
            self._w_arrived, self._w_completed,
            (self._w_rt_sum / self._w_completed
             if self._w_completed else 0.0),
            self._area / width,
            util,
            partial=partial,
            decisions=decisions,
            deferrals=deferrals,
        )
        self.ring.append(win)
        self.windows_emitted += 1
        if self.log is not None:
            self.log.window(win.to_dict())
        self._w_index += 1
        self._w_start = end
        self._w_arrived = 0
        self._w_completed = 0
        self._w_rt_sum = 0.0
        self._area = 0.0

    # -- run_open callbacks ----------------------------------------------
    def on_job_arrival(self, t):
        self._advance(t)
        self.arrived += 1
        self._w_arrived += 1
        self._n_sys += 1

    def on_job_complete(self, job):
        t = job.completed_at
        self._advance(t)
        self.completed += 1
        self._n_sys -= 1
        # ``Job.response_time`` and ``Job.wait_time``, read without the
        # properties: a completed job has been submitted.
        submitted = job.submitted_at
        rt = t - submitted
        self.response.push(rt)
        self.sketch.observe(rt)
        self.series.push(rt)
        started = job.started_at
        if started is not None:
            self.wait.push(started - submitted)
        if job.size_class is not None:
            cls = self.by_class.get(job.size_class)
            if cls is None:
                cls = self.by_class[job.size_class] = OnlineStats()
            cls.push(rt)
        self._w_completed += 1
        self._w_rt_sum += rt

    def finish(self, t):
        """Close out at simulated time ``t``; returns the summary dict."""
        if self._finished:
            return self.summary(sim_time=t)
        self._finished = True
        self._advance(t)
        if self.window is not None and t > self._w_start and (
                self._w_arrived or self._w_completed or self._n_sys):
            self._close_window(t, partial=True)
        summary = self.summary(sim_time=t)
        if self.log is not None:
            self.log.finish(summary)
        return summary

    # -- summaries -------------------------------------------------------
    def steady_state(self):
        """MSER warm-up truncation + batch-means CI over the series.

        Returns a dict: the truncated-mean estimate with a 95%
        batch-means confidence halfwidth, the warm-up cut (in batches
        and in jobs), the lag-1 autocorrelation of the macro-batches,
        and the two soundness flags (``converged`` from MSER,
        ``sound`` from the CI check).
        """
        means = self.series.means
        d, converged = mser(means)
        ci = batch_means_ci(means[d:], batches=self.ci_batches,
                            lag1_threshold=self.lag1_threshold)
        return {
            "mean": ci["mean"],
            "ci95": ci["halfwidth"],
            "ci_batches": ci["batches"],
            "lag1": round(ci["lag1"], 6),
            "sound": ci["sound"] and converged,
            "converged": converged,
            "warmup_batches": d,
            "warmup_jobs": d * self.series.batch_size,
            "batch_size": self.series.batch_size,
            "batches": len(means),
        }

    def summary(self, sim_time=None):
        out = {
            "arrived": self.arrived,
            "completed": self.completed,
            "in_system": self.arrived - self.completed,
            "response": {
                **self.response.to_dict(),
                "p50": self.sketch.quantile(0.5),
                "p90": self.sketch.quantile(0.9),
                "p99": self.sketch.quantile(0.99),
            },
            "wait": self.wait.to_dict(),
            "steady": self.steady_state(),
            "windows": self.windows_emitted,
        }
        if sim_time is not None:
            out["sim_time"] = sim_time
            out["throughput"] = (self.completed / sim_time
                                 if sim_time > 0 else 0.0)
        if self.by_class:
            out["by_class"] = {cls: st.to_dict()
                               for cls, st in sorted(self.by_class.items())}
        return out

    def __repr__(self):
        return (f"<SteadyStateSink completed={self.completed} "
                f"windows={self.windows_emitted}>")


class OpenRunResult:
    """Streaming outcome of ``run_open(collect_jobs=False)``.

    Carries no per-job storage: counts, the hardware snapshot, and the
    sink's streaming summaries.  Mirrors the :class:`BatchResult`
    aggregate API where that is meaningful (``mean_response_time`` is
    the untruncated streaming mean, matching BatchResult semantics;
    the warm-up-truncated estimate lives in :attr:`steady`).
    """

    def __init__(self, sink, snapshot, label=""):
        self.sink = sink
        self.snapshot = snapshot
        self.label = label
        self.summary = sink.summary(sim_time=snapshot.makespan)

    @property
    def jobs_arrived(self):
        return self.sink.arrived

    @property
    def jobs_completed(self):
        return self.sink.completed

    @property
    def mean_response_time(self):
        return self.sink.response.mean

    @property
    def std_response_time(self):
        return self.sink.response.std

    @property
    def max_response_time(self):
        return self.sink.response.max if self.sink.response.n else 0.0

    @property
    def mean_wait_time(self):
        return self.sink.wait.mean

    @property
    def makespan(self):
        return self.snapshot.makespan

    @property
    def steady(self):
        """The warm-up-truncated estimate with its batch-means CI."""
        return self.summary["steady"]

    def percentile_response(self, q):
        """q-th percentile (0..100) from the quantile sketch."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        return self.sink.sketch.quantile(q / 100.0)

    def to_dict(self):
        return {"label": self.label, **self.summary}

    def __repr__(self):
        steady = self.steady
        return (f"<OpenRunResult {self.label} n={self.jobs_completed} "
                f"rt={steady['mean']:.4f}±{steady['ci95']:.4f}s>")
