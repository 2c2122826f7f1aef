"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the usual metrics vocabulary:

- :class:`Counter` — a monotonically increasing count (packets sent,
  preemptions, jobs completed).
- :class:`Gauge` — a piecewise-constant level (queue length, memory in
  use).  Built on :class:`repro.sim.monitoring.TimeWeightedValue`, so it
  yields exact time-averages; with ``series`` enabled it also keeps the
  raw ``(time, value)`` samples for time-series export (Perfetto counter
  tracks), stored flat as ``[t0, v0, t1, v1, ...]``.
- :class:`Histogram` — a distribution over **fixed log-scale bucket
  boundaries**.  Because every histogram of a given name shares the same
  boundaries, merging histograms across nodes (or across runs) is exact:
  bucket counts simply add.

A :class:`MetricsRegistry` hands out instruments by name with
get-or-create semantics.
"""

from __future__ import annotations

import math
from bisect import bisect_left


def log_boundaries(low_exp=-9, high_exp=3, per_decade=4):
    """Fixed log-scale bucket upper bounds: ``10**(k/per_decade)``.

    The defaults span 1 ns .. 1000 s in quarter-decade steps — wide
    enough for every latency in the simulator.  The boundaries are a
    pure function of the arguments, so two histograms built with the
    same arguments merge exactly.
    """
    return tuple(
        10.0 ** (k / per_decade)
        for k in range(low_exp * per_decade, high_exp * per_decade + 1)
    )


#: The registry-wide default boundaries (shared by name across nodes).
DEFAULT_BOUNDARIES = log_boundaries()


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def to_dict(self):
        return {"type": "counter", "value": self.value}

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Piecewise-constant level with exact time-averaging.

    ``set``/``add`` mirror :class:`TimeWeightedValue`; when the owning
    registry records series, every change appends a ``(time, value)``
    sample (bounded by ``max_points``; older points are kept, newer ones
    dropped and counted, since a truncated prefix still charts the run's
    ramp-up).  The series is one flat list ``[t0, v0, t1, v1, ...]``,
    two list slots a point rather than a tuple each; :attr:`samples`
    builds the list of ``(time, value)`` pairs on each access.
    """

    __slots__ = ("name", "_twv", "_series", "_max_len", "dropped_points")

    def __init__(self, name, env=None, initial=0.0, series=False,
                 max_points=100_000):
        self.name = name
        self._twv = None
        if env is not None:
            from repro.sim.monitoring import TimeWeightedValue

            self._twv = TimeWeightedValue(env, initial=initial)
        self._series = [] if series else None
        self._max_len = 2 * max_points
        self.dropped_points = 0
        if series and env is not None:
            self._series += (env.now, initial)

    @property
    def samples(self):
        """The series as a new list of ``(time, value)`` pairs (``None``
        when the gauge records no series)."""
        series = self._series
        if series is None:
            return None
        points = iter(series)
        return list(zip(points, points))

    @property
    def value(self):
        return self._twv.value if self._twv is not None else 0.0

    def set(self, value):
        twv = self._twv
        if twv is None:
            return
        # ``TimeWeightedValue.update``, inlined: links and memories set
        # their gauges on every packet hop and allocation.
        now = twv.env._now
        twv._area += twv._value * (now - twv._last_change)
        twv._last_change = now
        twv._value = value
        if value > twv._max:
            twv._max = value
        if value < twv._min:
            twv._min = value
        series = self._series
        if series is not None:
            if len(series) < self._max_len:
                series.append(now)
                series.append(value)
            else:
                self.dropped_points += 1

    def add(self, delta):
        self.set(self.value + delta)

    def time_average(self, until=None):
        return self._twv.time_average(until) if self._twv is not None else 0.0

    def to_dict(self):
        out = {
            "type": "gauge",
            "value": self.value,
            "time_average": self.time_average(),
        }
        if self._twv is not None:
            out["max"] = self._twv.max
            out["min"] = self._twv.min
        if self._series is not None:
            out["points"] = len(self._series) // 2
            out["dropped_points"] = self.dropped_points
        return out

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class FrozenGauge(Gauge):
    """Immutable, environment-free snapshot of a :class:`Gauge`.

    A live gauge holds a :class:`TimeWeightedValue` bound to its
    simulation environment, which in turn reaches processes and
    generators — none of it picklable.  Freezing captures the final
    value, the exact time-average, the extrema, and the recorded series,
    producing an instrument that can cross a process boundary (the
    parallel grid executor ships these back from worker processes).
    """

    __slots__ = ("_value", "_avg", "_max", "_min", "_stats")

    def __init__(self, gauge, until=None):
        self.name = gauge.name
        self._twv = None
        self._series = (list(gauge._series)
                        if gauge._series is not None else None)
        self._max_len = gauge._max_len
        self.dropped_points = gauge.dropped_points
        self._value = gauge.value
        self._avg = gauge.time_average(until)
        live = gauge._twv
        self._stats = live is not None
        self._max = live.max if live is not None else 0.0
        self._min = live.min if live is not None else 0.0

    @property
    def value(self):
        return self._value

    def set(self, value):
        raise TypeError(f"gauge {self.name!r} is frozen")

    def time_average(self, until=None):
        return self._avg

    def to_dict(self):
        out = {
            "type": "gauge",
            "value": self._value,
            "time_average": self._avg,
        }
        if self._stats:
            out["max"] = self._max
            out["min"] = self._min
        if self._series is not None:
            out["points"] = len(self._series) // 2
            out["dropped_points"] = self.dropped_points
        return out

    def __repr__(self):
        return f"<FrozenGauge {self.name}={self._value}>"


class Histogram:
    """Distribution over fixed log-scale buckets (exactly mergeable).

    ``counts[i]`` counts observations ``x <= boundaries[i]`` (and
    ``> boundaries[i-1]``); ``counts[-1]`` is the overflow bucket.
    Non-positive observations land in bucket 0.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "total",
                 "_min", "_max")

    def __init__(self, name, boundaries=DEFAULT_BOUNDARIES):
        self.name = name
        self.boundaries = tuple(boundaries)
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("boundaries must be strictly increasing")
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, x):
        self.counts[bisect_left(self.boundaries, x)] += 1
        self.count += 1
        self.total += x
        # The comparisons ``min``/``max`` make, NaN handling included.
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    @property
    def min(self):
        return self._min if self.count else 0.0

    @property
    def max(self):
        return self._max if self.count else 0.0

    def quantile(self, q):
        """Approximate quantile from the bucket counts (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self._max
        return self._max

    def merge(self, other):
        """Exact in-place merge of another histogram (same boundaries)."""
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries "
                f"({self.name!r} vs {other.name!r})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def to_dict(self):
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "nonzero_buckets": {
                i: c for i, c in enumerate(self.counts) if c
            },
        }

    def __repr__(self):
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:.4g}>")


class MetricsRegistry:
    """Get-or-create store of named instruments.

    One registry per run.  Instrument names are flat strings; encode
    identity as dotted suffixes (``link.backlog.3->4``,
    ``mem.job.node5.in_use``) so the exporters can place them.
    """

    def __init__(self, env=None, series=True, max_series_points=100_000):
        self.env = env
        self.series = series
        self.max_series_points = max_series_points
        self._instruments = {}

    def _lookup(self, name, kind):
        """The registered instrument ``name`` (``None`` if there is
        none), which must be a ``kind``."""
        inst = self._instruments.get(name)
        if inst is not None and not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name):
        inst = self._lookup(name, Counter)
        if inst is None:
            inst = self._instruments[name] = Counter(name)
        return inst

    def gauge(self, name, initial=0.0):
        inst = self._lookup(name, Gauge)
        if inst is None:
            inst = self._instruments[name] = Gauge(
                name, env=self.env, initial=initial, series=self.series,
                max_points=self.max_series_points,
            )
        return inst

    def histogram(self, name, boundaries=None):
        """The histogram ``name``, created with ``boundaries`` (default
        :data:`DEFAULT_BOUNDARIES`) if new.

        Explicit ``boundaries`` must match an existing histogram's: a
        conflicting geometry raises ``ValueError``, as :meth:`merge`
        does, rather than handing back buckets the caller did not ask
        for.
        """
        inst = self._lookup(name, Histogram)
        if inst is None:
            inst = self._instruments[name] = Histogram(
                name, DEFAULT_BOUNDARIES if boundaries is None
                else boundaries)
        elif boundaries is not None and tuple(boundaries) != inst.boundaries:
            raise ValueError(
                f"metric {name!r} already registered with different "
                f"histogram boundaries"
            )
        return inst

    # -- introspection ---------------------------------------------------
    def __len__(self):
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    def names(self, prefix=""):
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def get(self, name):
        return self._instruments.get(name)

    def gauges(self):
        return {n: i for n, i in self._instruments.items()
                if isinstance(i, Gauge)}

    def to_dict(self):
        """JSON-serialisable dump of every instrument's summary."""
        return {name: self._instruments[name].to_dict()
                for name in sorted(self._instruments)}

    def merge_histograms(self, prefix):
        """Exact merge of all histograms whose name starts with ``prefix``."""
        merged = None
        for name in self.names(prefix):
            inst = self._instruments[name]
            if not isinstance(inst, Histogram):
                continue
            if merged is None:
                merged = Histogram(f"{prefix}*", boundaries=inst.boundaries)
            merged.merge(inst)
        return merged

    def detach(self, until=None):
        """An environment-free, picklable snapshot of this registry.

        Counters and histograms are carried over as-is (they hold no
        environment reference); live gauges are frozen into
        :class:`FrozenGauge` snapshots with their time-averages
        evaluated at ``until`` (default: now).  The result supports the
        whole read-side registry API — including :meth:`merge`, which
        skips gauges by contract — so exporters and reports accept it
        anywhere they accept a live registry.
        """
        clone = MetricsRegistry(env=None, series=self.series,
                                max_series_points=self.max_series_points)
        for name, inst in self._instruments.items():
            if isinstance(inst, FrozenGauge):
                clone._instruments[name] = inst
            elif isinstance(inst, Gauge):
                clone._instruments[name] = FrozenGauge(inst, until=until)
            else:
                clone._instruments[name] = inst
        return clone

    def merge(self, other):
        """In-place merge of another registry (cross-run aggregation).

        Counters add; histograms merge exactly, which **requires**
        identical bucket geometry — a same-named histogram pair with
        different boundaries raises ``ValueError`` rather than
        producing silently wrong percentiles.  A name registered as
        different instrument kinds raises ``TypeError``.  Gauges are
        *skipped*: a time-weighted level from a different run has no
        meaningful sum (documented limitation, not an error).
        """
        for name, inst in other._instruments.items():
            if isinstance(inst, Gauge):
                continue
            mine = self._instruments.get(name)
            if mine is None:
                if isinstance(inst, Counter):
                    self.counter(name).inc(inst.value)
                else:
                    self.histogram(
                        name, boundaries=inst.boundaries
                    ).merge(inst)
                continue
            if isinstance(inst, Counter):
                if not isinstance(mine, Counter):
                    raise TypeError(
                        f"metric {name!r} is a {type(mine).__name__} "
                        f"here but a Counter in the merged registry"
                    )
                mine.inc(inst.value)
            else:
                if not isinstance(mine, Histogram):
                    raise TypeError(
                        f"metric {name!r} is a {type(mine).__name__} "
                        f"here but a Histogram in the merged registry"
                    )
                mine.merge(inst)
        return self

