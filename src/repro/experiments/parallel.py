"""Parallel grid execution: fan independent cells across processes.

The paper's figures are a (policy x partition-size x topology) grid and
every cell owns its own :class:`~repro.sim.Environment`, so cells are
embarrassingly parallel.  :func:`run_figure_parallel` executes the same
explicit work list as the serial runner
(:func:`repro.experiments.runner.enumerate_cells`) on a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results deterministically:

- futures are reduced in **enumeration order**, never completion order,
  so the returned cell list is byte-for-byte the serial one;
- each worker detaches its telemetry (:meth:`Telemetry.detach
  <repro.obs.telemetry.Telemetry.detach>`) before shipping it back, so
  no simulation state crosses the process boundary; the parent appends
  entries to ``telemetry_sink`` in the same enumeration order;
- a failed cell is retried once (fresh worker submission) and, if it
  fails again, reported as a structured :class:`CellError` instead of
  killing the sweep.

Determinism guarantee: because every cell builds a fresh environment
and the simulator draws no wall-clock or cross-cell state, a
``jobs = N`` sweep produces cell-for-cell identical :class:`GridCell`
values to the serial sweep — the equivalence suite and the CI
smoke-sweep diff both enforce this.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.experiments.runner import enumerate_cells, run_cell
from repro.obs.metrics import MetricsRegistry

#: Submission attempts per cell (first try + one retry).
DEFAULT_ATTEMPTS = 2


@dataclass
class CellError:
    """Structured record of a grid cell that failed (after retrying)."""

    figure: int
    app: str
    architecture: str
    partition_size: int
    topology: str
    policy: str
    #: The paper label, e.g. "8L".
    label: str
    #: ``repr`` of the final exception.
    error: str
    #: Worker submissions consumed (includes the retry).
    attempts: int

    def describe(self):
        return (f"cell {self.label} [{self.policy}] figure {self.figure} "
                f"FAILED after {self.attempts} attempts: {self.error}")


class GridExecutionError(RuntimeError):
    """Raised when cells failed and the caller gave no ``errors`` sink."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "\n".join(e.describe() for e in self.errors)
        super().__init__(
            f"{len(self.errors)} grid cell(s) failed:\n{lines}"
        )


def resolve_jobs(jobs):
    """Worker-count semantics shared by every ``--jobs`` flag.

    ``None`` and ``1`` mean serial; ``0`` means one worker per CPU
    core; negative counts are rejected.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _cell_worker(task, scale, transputer, system_overrides, want_telemetry):
    """Run one cell in a worker process; return picklable results only.

    Alongside the cell and its detached telemetry, the worker reports
    its own meta-observability sample — host wall-clock for the cell,
    the worker pid, and the trace-event volume (when telemetry is on) —
    which the parent feeds to the sweep observer.  Measuring happens
    entirely outside the simulation, so results are unaffected.
    """
    sink = [] if want_telemetry else None
    t0 = time.perf_counter()
    cell = run_cell(scale=scale, transputer=transputer,
                    system_overrides=system_overrides,
                    telemetry_sink=sink, **task)
    wall = time.perf_counter() - t0
    portable = [(label, policy, tel.detach())
                for label, policy, tel in (sink or [])]
    events = (sum(len(tel.recorder) + tel.recorder.dropped
                  for _l, _p, tel in portable)
              if want_telemetry else None)
    return cell, portable, wall, os.getpid(), events


def _task_label(task):
    return f"{task['partition_size']}{task['topology'][0].upper()}"


def run_cells_parallel(tasks, scale, jobs=None, transputer=None,
                       system_overrides=None, progress=None,
                       telemetry_sink=None, errors=None, pool=None,
                       observer=None):
    """Execute an explicit cell work list across worker processes.

    ``tasks`` is a list of :func:`run_cell` kwargs dicts (what
    :func:`enumerate_cells` produces).  Results are reduced in task
    order.  Returns the list of :class:`GridCell`\\ s that succeeded;
    failures are appended to ``errors`` as :class:`CellError`\\ s — if
    ``errors`` is ``None`` and any cell failed,
    :class:`GridExecutionError` is raised so failures never pass
    silently.  Pass ``pool`` to reuse an executor across several grids
    (the bench harness does); otherwise one is created for this call.

    ``observer`` is an optional :class:`repro.obs.sweeplog.SweepObserver`
    receiving sweep start / cell finish / retry / error / sweep finish
    callbacks with per-cell host wall-clock, worker pid, and events/sec.
    Observers are host-side only; ``None`` (the default) skips every
    hook, so an unobserved sweep runs exactly the code it ran before.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    want_telemetry = telemetry_sink is not None
    own_pool = pool is None
    if own_pool:
        # Imported here, not at module top: a serial sweep imports this
        # module (for resolve_jobs) but must not load the pool.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    cells = []
    failures = []
    if observer is not None:
        observer.sweep_started(len(tasks), jobs=jobs)
    try:
        args = (scale, transputer, system_overrides, want_telemetry)
        futures = [pool.submit(_cell_worker, task, *args) for task in tasks]
        for index, (task, future) in enumerate(zip(tasks, futures)):
            attempts = 1
            while True:
                try:
                    cell, portable, wall, worker, events = future.result()
                except Exception as exc:  # noqa: BLE001 — reported per cell
                    if attempts < DEFAULT_ATTEMPTS:
                        attempts += 1
                        if observer is not None:
                            observer.cell_retry(index, task, repr(exc))
                        future = pool.submit(_cell_worker, task, *args)
                        continue
                    failures.append(CellError(
                        figure=task["figure"], app=task["app"],
                        architecture=task["architecture"],
                        partition_size=task["partition_size"],
                        topology=task["topology"],
                        policy=task["policy_kind"],
                        label=_task_label(task),
                        error=repr(exc), attempts=attempts,
                    ))
                    if observer is not None:
                        observer.cell_failed(index, task, repr(exc),
                                             attempts)
                    break
                cells.append(cell)
                if want_telemetry:
                    telemetry_sink.extend(portable)
                if observer is not None:
                    eps = (events / wall if events is not None and wall > 0
                           else None)
                    observer.cell_finished(index, task, wall_s=wall,
                                           attempts=attempts, worker=worker,
                                           events_per_sec=eps)
                if progress is not None:
                    progress(cell)
                break
    finally:
        if own_pool:
            pool.shutdown()
        if observer is not None:
            observer.sweep_finished()
    if failures:
        if errors is None:
            raise GridExecutionError(failures)
        errors.extend(failures)
    return cells


def run_figure_parallel(spec, scale, jobs=None, transputer=None,
                        system_overrides=None, progress=None,
                        telemetry_sink=None, errors=None, pool=None,
                        observer=None):
    """Parallel counterpart of :func:`repro.experiments.runner.run_figure`.

    Same cell list, same order, cell-for-cell identical
    :class:`GridCell` values; see the module docstring for the
    determinism and failure-reporting contract.
    """
    return run_cells_parallel(
        enumerate_cells(spec, scale), scale, jobs=jobs,
        transputer=transputer, system_overrides=system_overrides,
        progress=progress, telemetry_sink=telemetry_sink, errors=errors,
        pool=pool, observer=observer,
    )


def merged_metrics(entries):
    """One registry combining every telemetry entry's metrics.

    ``entries`` is a ``telemetry_sink`` list (serial or parallel).
    Counters add and histograms merge exactly
    (:meth:`MetricsRegistry.merge`); gauges are skipped by that
    method's contract (time-weighted levels from different runs have no
    meaningful sum).
    """
    combined = MetricsRegistry(env=None, series=False)
    for _label, _policy, tel in entries:
        combined.merge(tel.metrics)
    return combined
