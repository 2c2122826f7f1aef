"""The benchmark's workloads and the check of their simulated outputs.

Each workload is a list of cells; one cell is one call into the
program's public entry points (``run_cell`` for a figure-grid cell,
``steady_cell`` for an open-system cell).  While a workload runs, a
:class:`RunLog` records the exact counts of every simulated system run
(``run_batch`` or ``run_open``) from ``snapshot()`` and the
environment's ``events_processed``/``handoffs``.  A system run is the
benchmark's unit of operation: it fails if it raises, leaves a job
incomplete, or its cell's outputs differ from the reference.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import random
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial

#: Seed whose ``open_stream`` outputs are recorded in ``reference.json``.
DEFAULT_SEED = 0

WORKLOADS = ("fig3_matmul", "fig5_sort", "open_stream", "fig4_observed")
SIZES = ("paper", "tiny")

#: Figure behind each grid workload, and whether recording is on.
_GRIDS = {"fig3_matmul": (3, False), "fig5_sort": (5, False),
          "fig4_observed": (4, True)}

#: The cells kept from each figure's 32 so that one pass over a grid
#: takes a few seconds: every 16-node time-sharing cell (where
#: store-and-forward traffic at multiprogramming level 16 loads the
#: memory model), plus both policies at partition sizes 1 and 4.
GRID_CELLS = (
    ("1L", "static"), ("1L", "timesharing"),
    ("4M", "static"), ("4M", "timesharing"),
    ("16L", "timesharing"), ("16R", "timesharing"), ("16M", "timesharing"),
)

#: Open stream: Poisson arrivals of fork-join jobs on 4 nodes at
#: offered load 0.85 (the steady sweep's mean demand of 0.5 s).
OPEN_NODES = 4
OPEN_RHO = 0.85
#: Simulated seconds of each open cell, per size.  The static cell
#: (single-node partitions, one-process jobs) sees ~27,000 jobs at paper
#: size; the time-sharing cell (4-process jobs) ~3,400.
OPEN_DURATIONS = {"paper": {"static": 4000.0, "ts": 500.0},
                  "tiny": {"static": 60.0, "ts": 30.0}}
#: Two lengths of the time-sharing cell whose peak-RSS difference per
#: job is ``sim.stores.rss_kb_per_job``.  Long enough that the growth
#: dwarfs allocator noise: about 3.4 KB per job at the time of writing,
#: the emptied per-tag waiter deques that ``FilterStore`` never drops
#: (src/repro/sim/stores.py:421).
RSS_PROBE_DURATIONS = {"paper": (200.0, 800.0), "tiny": (20.0, 40.0)}

#: Grid values are checked at the precision ``figures_paper.csv``
#: prints them with.
GRID_FIELDS = ("mean_response_time", "makespan", "memory_wait",
               "cpu_utilization")

#: Exact counts summed over a cell's system runs.
COUNT_FIELDS = (
    "events", "handoffs", "dispatches", "preemptions", "busy_sim_s",
    "memory_wait_sim_s", "buffer_wait_sim_s", "link_queue_sim_s",
    "messages", "bytes", "jobs", "incomplete", "rt_sum_sim_s", "windows",
)

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")
FIGURES_CSV = os.path.join("results", "figures_paper.csv")


def scale_for(size):
    from repro.experiments.config import ExperimentScale

    if size == "paper":
        return ExperimentScale.paper()
    return ExperimentScale("tiny", 2, 1, 30, 60, 300, 600)


def open_rate():
    from repro.experiments.steady import DEFAULT_MEAN_OPS

    return OPEN_RHO * OPEN_NODES * 3.3e5 / DEFAULT_MEAN_OPS


class RunLog:
    """Exact counts of each system run made while :meth:`installed`."""

    def __init__(self):
        self.attempts = 0
        self.runs = []

    @contextmanager
    def installed(self):
        """Route the runner's and the steady engine's systems through
        a subclass that records each finished run's counts."""
        from repro.core import MulticomputerSystem
        from repro.experiments import runner, steady

        log = self

        class RecordedSystem(MulticomputerSystem):
            def run_batch(self, batch, label="", instrument=None):
                log.attempts += 1
                result = super().run_batch(batch, label=label,
                                           instrument=instrument)
                rts = [job.response_time for job in result.jobs]
                done = [rt for rt in rts if rt is not None]
                log.runs.append(_counts(
                    self, result.snapshot, jobs=len(done),
                    incomplete=len(rts) - len(done), rt_sum=sum(done)))
                return result

            def run_open(self, arrivals, label="", collect_jobs=True,
                         sink=None):
                log.attempts += 1
                result = super().run_open(arrivals, label=label,
                                          collect_jobs=collect_jobs,
                                          sink=sink)
                done = result.jobs_completed
                log.runs.append(_counts(
                    self, result.snapshot, jobs=done,
                    incomplete=result.jobs_arrived - done,
                    rt_sum=result.mean_response_time * done,
                    windows=result.sink.windows_emitted))
                return result

        saved = runner.MulticomputerSystem, steady.MulticomputerSystem
        runner.MulticomputerSystem = steady.MulticomputerSystem = \
            RecordedSystem
        try:
            yield self
        finally:
            runner.MulticomputerSystem, steady.MulticomputerSystem = saved


def _counts(system, snap, *, jobs, incomplete, rt_sum, windows=0):
    env = system.env
    return {
        "events": env.events_processed,
        "handoffs": env.handoffs,
        "dispatches": snap.dispatches,
        "preemptions": snap.preemptions,
        "busy_sim_s": snap.comm_cpu_time + snap.app_cpu_time,
        "memory_wait_sim_s": snap.memory_wait_time + snap.mailbox_wait_time,
        "buffer_wait_sim_s": snap.buffer_wait_time,
        "link_queue_sim_s": snap.link_queue_time,
        "messages": snap.messages,
        "bytes": snap.bytes_sent,
        "jobs": jobs,
        "incomplete": incomplete,
        "rt_sum_sim_s": rt_sum,
        "windows": windows,
    }


@dataclass
class Cell:
    name: str
    run: object  # () -> {output name: value}


@dataclass
class Outcome:
    """One execution of a cell: its outputs and operation counts."""

    outputs: dict
    seconds: float
    attempted: int
    failed: int


def _run_grid_cell(run_cell, task, scale, observed):
    tel, dec = ([], []) if observed else (None, None)
    cell = run_cell(scale=scale, telemetry_sink=tel, decisions_sink=dec,
                    **task)
    out = {f: getattr(cell, f) for f in GRID_FIELDS}
    if observed:
        out["trace_events"] = sum(len(t.recorder) + t.recorder.dropped
                                  for _, _, t in tel)
        out["decisions"] = sum(led.total for _, _, led in dec)
    return out


def _run_open_cell(steady_cell, kind, duration, seed):
    result = steady_cell(kind, open_rate(), duration, nodes=OPEN_NODES,
                         seed=seed)
    return {"jobs_completed": result.jobs_completed,
            "mean_response_time": result.mean_response_time}


def open_seed(seed, kind):
    """Arrival/demand seed of one open cell: independent per cell."""
    return [seed, ("static", "ts").index(kind)]


def run_rss_probe(size, seed, duration):
    """Run the open time-sharing cell once; ``(jobs, failed)``."""
    log = RunLog()
    with log.installed():
        try:
            from repro.experiments.steady import steady_cell

            _run_open_cell(steady_cell, "ts", duration,
                           open_seed(seed, "ts"))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return 0, 1
    run = log.runs[0]
    return run["jobs"], int(run["incomplete"] != 0 or run["jobs"] == 0)


class Workload:
    """One named workload at one size, with its reference."""

    def __init__(self, name, size="paper", seed=DEFAULT_SEED,
                 reference=None):
        self.name, self.size, self.seed = name, size, seed
        self.cells = self._build_cells()
        self.reference = (reference if reference is not None
                          else load_reference(name, size, seed))
        self.log = RunLog()
        self._first = {}

    def _build_cells(self):
        # Importing the entry points here makes their imports part of
        # the timed set-up rather than of the first pass.
        if self.name == "open_stream":
            from repro.experiments.steady import steady_cell

            durations = OPEN_DURATIONS[self.size]
            return [Cell(kind, partial(_run_open_cell, steady_cell, kind,
                                       durations[kind],
                                       open_seed(self.seed, kind)))
                    for kind in ("static", "ts")]
        from repro.experiments.config import figure_spec
        from repro.experiments.runner import enumerate_cells, run_cell

        figure, observed = _GRIDS[self.name]
        scale = scale_for(self.size)
        cells = []
        for task in enumerate_cells(figure_spec(figure), scale):
            label = f"{task['partition_size']}{task['topology'][0].upper()}"
            if (label, task["policy_kind"]) in GRID_CELLS:
                cells.append(Cell(f"{label}:{task['policy_kind']}",
                                  partial(_run_grid_cell, run_cell, task,
                                          scale, observed)))
        return cells

    def order(self, pass_index):
        """The cells in this pass's seeded order.  Outputs must not
        depend on it, so state leaking between runs shows as a
        failure."""
        cells = list(self.cells)
        random.Random(self.seed * 1_000_003 + pass_index).shuffle(cells)
        return cells

    def execute(self, cell, monitor=None):
        """Run one cell; return its :class:`Outcome`.  Only the cell's
        own call is timed, inside ``monitor`` (a context manager such as
        a profiler) if given."""
        log = self.log
        mark, attempts = len(log.runs), log.attempts
        gc.collect()
        outputs, seconds = None, 0.0
        with log.installed(), monitor or nullcontext():
            try:
                start = time.perf_counter()
                outputs = cell.run()
                seconds = time.perf_counter() - start
            except Exception:
                traceback.print_exc(file=sys.stderr)
        attempted = max(1, log.attempts - attempts)
        if outputs is None:
            return Outcome({}, seconds, attempted, attempted)
        for field in COUNT_FIELDS:
            outputs[field] = sum(run[field] for run in log.runs[mark:])
        problems = self.check(cell.name, outputs)
        for problem in problems:
            print(f"perfbench: {self.name} {cell.name}: {problem}",
                  file=sys.stderr)
        return Outcome(outputs, seconds, attempted,
                       attempted if problems else 0)

    def check(self, name, outputs):
        """Problems with one cell's outputs (empty when correct)."""
        problems = []
        if outputs["incomplete"]:
            problems.append(f"{outputs['incomplete']} jobs incomplete")
        expected = self.reference.get(name) if self.reference else None
        if expected is None:
            # No recorded outputs for this seed: invariants only.
            for field in ("jobs", "events", "dispatches", "busy_sim_s"):
                if not outputs[field] > 0:
                    problems.append(f"{field} is {outputs[field]!r}")
        else:
            for field, want in expected.items():
                got = outputs.get(field)
                shown = f"{got:.6f}" if isinstance(want, str) else got
                if shown != want:
                    problems.append(f"{field} = {shown!r}, "
                                    f"reference {want!r}")
        first = self._first.setdefault(name, outputs)
        if first is not outputs and first != outputs:
            problems.append("outputs differ from this cell's first run")
        return problems


def load_reference(name, size, seed):
    """Expected outputs per cell, or None where only invariants hold.

    Figure 3 and 5 cells at paper size are checked against the
    committed ``results/figures_paper.csv`` at its printed precision
    (strings); everything else against the outputs recorded in
    ``reference.json`` by ``record_reference.py``.  Grid outputs do not
    depend on the seed; open-stream outputs are recorded for
    :data:`DEFAULT_SEED` only.
    """
    if name == "open_stream" and seed != DEFAULT_SEED:
        return None
    if size == "paper" and name in ("fig3_matmul", "fig5_sort"):
        return _csv_reference(_GRIDS[name][0])
    with open(REFERENCE_PATH) as f:
        return json.load(f)[size][name]


def _csv_reference(figure):
    wanted = {f"{label}:{policy}" for label, policy in GRID_CELLS}
    reference = {}
    with open(FIGURES_CSV, newline="") as f:
        for row in csv.DictReader(f):
            name = f"{row['label']}:{row['policy']}"
            if int(row["figure"]) == figure and name in wanted:
                reference[name] = {field: row[field] for field in GRID_FIELDS}
    if set(reference) != wanted:
        raise ValueError(f"{FIGURES_CSV} lacks Figure {figure} cells "
                         f"{sorted(wanted - set(reference))}")
    return reference
