"""Open-system arrival streams.

The paper evaluates closed batches (16 jobs at t = 0); an open system —
jobs arriving over time — is how such machines run in production, and
how most of the scheduling literature the paper cites (Leutenegger &
Vernon, Majumdar et al., Setia et al.) frames the problem.  This module
generates arrival streams for :meth:`MulticomputerSystem.run_open`:

- :func:`poisson_arrivals` — exponential interarrival times;
- :func:`uniform_arrivals` — fixed-rate arrivals (deterministic);
- :func:`bursty_arrivals` — Markov-modulated on/off (MMPP) bursts;
- :func:`trace_arrivals` — replay an explicit (time, spec) list.

A stream is an iterable of ``(arrival_time, JobSpec)`` with
non-decreasing times.  The generators are **lazy**: a 10⁷-job stream is
produced one arrival at a time and never materialised (``run_open``
consumes it incrementally).  Argument validation still happens eagerly
at the call site, so bad parameters raise before any simulation starts;
wrap a stream in ``list()`` when the old materialised behaviour is
wanted.  The checks are written so that NaN fails them: a NaN or
infinite rate, duration, interval or sojourn mean would otherwise give
NaN arrival times or a stream that never ends.
"""

from __future__ import annotations

from math import inf

from repro.workload.batch import JobSpec


def _check_positive_finite(name, value):
    if not 0 < value < inf:
        raise ValueError(f"{name} must be positive and finite, "
                         f"got {value!r}")


def _spec_of(item):
    if isinstance(item, JobSpec):
        return item
    app, size_class = item
    return JobSpec(app, size_class)


def poisson_arrivals(rate, duration, spec_factory, rng):
    """Poisson stream: exponential(1/rate) interarrivals until ``duration``.

    Parameters
    ----------
    rate: mean arrivals per simulated second.
    duration: stop generating at this time (jobs in flight still finish).
    spec_factory: callable ``(rng) -> JobSpec`` choosing each job.
    rng: numpy Generator (determinism is the caller's responsibility).

    Returns a lazy generator; draws happen as the stream is consumed,
    in the same order the old materialising implementation drew them,
    so a given ``rng`` seed yields the identical stream.
    """
    _check_positive_finite("rate", rate)
    _check_positive_finite("duration", duration)
    scale = 1.0 / rate

    def generate():
        t = 0.0
        while True:
            t += float(rng.exponential(scale))
            if t >= duration:
                return
            yield (t, _spec_of(spec_factory(rng)))

    return generate()


def uniform_arrivals(interval, count, spec_factory, rng=None):
    """Deterministic lazy stream: one arrival every ``interval`` seconds."""
    _check_positive_finite("interval", interval)
    if count < 1:
        raise ValueError("count must be >= 1")

    def generate():
        for i in range(count):
            yield (i * interval, _spec_of(spec_factory(rng)))

    return generate()


def bursty_arrivals(rate, duration, spec_factory, rng,
                    mean_on=1.0, mean_off=1.0):
    """Markov-modulated on/off (MMPP) stream: Poisson bursts, idle gaps.

    The source alternates between an ON state — Poisson arrivals at
    ``rate`` — and an OFF state with no arrivals; sojourn times in each
    state are exponential with means ``mean_on`` and ``mean_off``.  The
    long-run offered rate is ``rate * mean_on / (mean_on + mean_off)``,
    but arrivals cluster: with the same mean rate as a plain Poisson
    stream, the interarrival CV exceeds 1, which is exactly the
    variance regime the F8 crossover family probes.

    Lazy like its siblings; validation is eager.
    """
    _check_positive_finite("rate", rate)
    _check_positive_finite("duration", duration)
    _check_positive_finite("mean_on", mean_on)
    _check_positive_finite("mean_off", mean_off)
    scale = 1.0 / rate

    def generate():
        t = 0.0
        on_until = float(rng.exponential(mean_on))
        while True:
            t += float(rng.exponential(scale))
            while t >= on_until:
                # Carry the residual exponential draw across the OFF
                # gap (memorylessness makes this exact): shift the
                # pending arrival by the OFF sojourn and open a new ON
                # window.
                off = float(rng.exponential(mean_off))
                t += off
                on_until += off + float(rng.exponential(mean_on))
            if t >= duration:
                return
            yield (t, _spec_of(spec_factory(rng)))

    return generate()


def trace_arrivals(trace):
    """Validate and normalise an explicit [(time, spec), ...] trace."""
    out = []
    last = 0.0
    for time, item in trace:
        if not last <= time < inf:
            raise ValueError(
                f"arrival times must be finite and non-decreasing; "
                f"got {time!r} after {last!r}")
        last = time
        out.append((float(time), _spec_of(item)))
    return out
