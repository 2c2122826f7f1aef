"""Measurement probes for simulation models.

Two small instruments that the observability layer and the timeline
helpers use to look *inside* a run instead of only at its end state:

- :class:`TimeWeightedValue` — tracks a piecewise-constant quantity
  (queue length, memory in use) and integrates it over time, yielding
  exact time-averages.
- :class:`Sampler` — a periodic probe process that records a callable's
  value on a fixed cadence, producing a (time, value) series suitable
  for the ASCII chart helpers.

Observation statistics (count, mean, variance) come from
:class:`repro.obs.streaming.OnlineStats`.
"""

from __future__ import annotations

from math import inf


class TimeWeightedValue:
    """Time-integral of a piecewise-constant signal.

    Call :meth:`update` whenever the underlying quantity changes; the
    probe charges the elapsed interval at the previous value.
    """

    def __init__(self, env, initial=0.0):
        self.env = env
        self._value = initial
        self._last_change = env.now
        self._area = 0.0
        self._max = initial
        self._min = initial
        self._start = env.now

    @property
    def value(self):
        return self._value

    @property
    def max(self):
        return self._max

    @property
    def min(self):
        return self._min

    def update(self, new_value):
        """Record a change of the tracked quantity at the current time."""
        now = self.env.now
        self._area += self._value * (now - self._last_change)
        self._last_change = now
        self._value = new_value
        self._max = max(self._max, new_value)
        self._min = min(self._min, new_value)

    def add(self, delta):
        """Convenience: shift the tracked quantity by ``delta``."""
        self.update(self._value + delta)

    def time_average(self, until=None):
        """Exact time-average of the signal from creation to ``until``.

        ``until`` must not precede the last recorded change — the probe
        only knows the signal's integral up to that point, so averaging
        over an earlier horizon would silently charge a negative
        interval at the current value.
        """
        until = self.env.now if until is None else until
        if until < self._last_change:
            raise ValueError(
                f"until={until} precedes the last recorded change at "
                f"{self._last_change}"
            )
        elapsed = until - self._start
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (until - self._last_change)
        return area / elapsed


class Sampler:
    """Periodic probe: records ``fn()`` every ``interval`` sim-seconds.

    The probe runs as its own simulation process; stop it by letting the
    simulation end or by calling :meth:`stop`.
    """

    def __init__(self, env, fn, interval, name="sampler"):
        # NaN fails the comparison too; an infinite interval would keep
        # sampling at ``now = inf`` until memory ran out.
        if not 0 < interval < inf:
            raise ValueError(
                f"interval must be positive and finite, got {interval!r}")
        self.env = env
        self.fn = fn
        self.interval = interval
        self.samples = []  # (time, value)
        self._running = True
        self.process = env.process(self._loop(), name=name)

    def _loop(self):
        while self._running:
            self.samples.append((self.env.now, self.fn()))
            yield self.env.timeout(self.interval)

    def stop(self):
        self._running = False

    @property
    def times(self):
        return [t for t, _ in self.samples]

    @property
    def values(self):
        return [v for _, v in self.samples]

    def mean(self):
        vals = self.values
        return sum(vals) / len(vals) if vals else 0.0
