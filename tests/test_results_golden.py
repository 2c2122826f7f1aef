"""Golden simulated results of the paper's experiments.

The cases serialise what the reproduction reports, at smoke scale:
every Figure 3-6 grid cell with all its ``GridCell`` fields, the
per-job response times of every system run behind those cells (both
static FCFS orderings and the time-sharing run, jobs in batch
position), one cell of the steady-state smoke sweep, a static steady
cell near saturation, a shortest-job-first open run with telemetry and
the decision ledger on, and the numbers of the ``--validate`` table.  Each document is written as canonical JSON
(sorted keys, floats by ``repr``) and its SHA-256 digest is pinned
below, so any change to a simulated result fails here, down to the last
bit of a float.  A speed change must leave every digest alone; only a
change meant to alter simulated results may re-pin them, by pasting the
output of ``PYTHONPATH=src python tests/test_results_golden.py`` into
``GOLDEN``.

The digests were recorded on CPython 3.11 and are checked there only.
Cell means and the validation numbers are float ``sum()`` results, and
CPython 3.12 made ``sum()`` of floats compensated, which can move their
last bit; digests for other interpreters are not recorded yet.
"""

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager

import pytest

from repro.core import MulticomputerSystem
from repro.experiments import ExperimentScale, figure_spec, run_figure
from repro.experiments import runner

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="golden result digests are recorded on CPython 3.11")

GOLDEN = {
    "figure3":
        "05fe5a5fdc3496d17721655417d667a8082968212d6c622a1106831890f94b10",
    "figure4":
        "413310e9b990f1b6b5e4e6beeebec9f2c20e1760b6cd49168e85efdeee7c5c86",
    "figure5":
        "38bbef193dffadf4324680ca975d6b506f0e0d788e6a71f47ac45b7b45c14c1c",
    "figure6":
        "da4de01bc3a68905d7ef66ebfaa2c713c091db52fc2d143bc2a85be36ba68a18",
    "steady-ts":
        "30d6b8179f8b4ff1a755ea16b45ccbac13f4d0888c4947a006b9208ec48aa477",
    "steady-static-busy":
        "c77248e0ed228a66e6f1d141a60891c15c17bd69db277ffb7cbad49847e21b7c",
    "open-sjf":
        "c521dc58e560be081762439ec3b678d048a4219cc674f2120f63d3b02ce33b04",
    "validate":
        "002c839c9081541ac67657de338f08f01befe7d5a3114a1311ad1bbbc68da29c",
}


@contextmanager
def _recorded_runs():
    """Collect ``(label, per-job response times)`` of every batch the
    grid runner runs; static runs are labelled by their ordering."""
    runs = []

    class RecordedSystem(MulticomputerSystem):
        def run_batch(self, batch, label="", instrument=None):
            result = super().run_batch(batch, label=label,
                                       instrument=instrument)
            # Job ids come from a process-global counter, so jobs are
            # identified by their position in the batch.
            runs.append([label, result.response_times])
            return result

    saved = runner.MulticomputerSystem
    runner.MulticomputerSystem = RecordedSystem
    try:
        yield runs
    finally:
        runner.MulticomputerSystem = saved


def _figure_doc(number):
    cells = []
    with _recorded_runs() as runs:
        def finished(cell):
            cells.append({"cell": dataclasses.asdict(cell), "runs": runs[:]})
            runs.clear()

        run_figure(figure_spec(number), ExperimentScale.smoke(),
                   progress=finished)
    return cells


def _steady_doc():
    # The time-sharing cell at rho = 0.6 of the CI steady-state sweep
    # (``steady --rho 0.3,0.6 --policies static,ts``), shortened.
    from repro.experiments.steady import DEFAULT_MEAN_OPS, steady_cell

    rate = 0.6 * 4 * 3.3e5 / DEFAULT_MEAN_OPS
    result = steady_cell("ts", rate, 60.0, nodes=4, seed=7)
    return {"summary": result.to_dict(),
            "snapshot": dataclasses.asdict(result.snapshot)}


def _steady_static_busy_doc():
    # The static cell near saturation: at rho = 0.95 on four
    # single-node partitions the global ready queue stays non-empty
    # for long stretches, so jobs are dispatched from the queue head
    # at completions rather than on arrival.
    from repro.experiments.steady import DEFAULT_MEAN_OPS, steady_cell

    rate = 0.95 * 4 * 3.3e5 / DEFAULT_MEAN_OPS
    result = steady_cell("static", rate, 60.0, nodes=4, seed=7)
    return {"summary": result.to_dict(),
            "snapshot": dataclasses.asdict(result.snapshot)}


def _open_sjf_doc():
    # A shortest-job-first static open run with telemetry and the
    # decision ledger on: ``select_next`` picks from a queue of
    # several jobs, and the scheduler tiers' gauges, histograms and
    # ledger tallies are recorded.  Per-job values are listed in
    # arrival order; job ids come from a process-global counter and
    # appear nowhere in the document.
    import numpy as np

    from repro.core import StaticSpaceSharing, SystemConfig
    from repro.experiments.steady import DEFAULT_MEAN_OPS, _spec_factory
    from repro.workload import poisson_arrivals

    rate = 0.9 * 4 * 3.3e5 / DEFAULT_MEAN_OPS
    rng = np.random.default_rng(11)
    arrivals = poisson_arrivals(rate, 40.0, _spec_factory(DEFAULT_MEAN_OPS),
                                rng)
    config = SystemConfig(num_nodes=4, topology="mesh", telemetry=True,
                          decisions=True)
    system = MulticomputerSystem(config, StaticSpaceSharing(1, "sjf"))
    result = system.run_open(arrivals)
    return {
        "jobs": [[job.submitted_at, job.started_at, job.completed_at,
                  job.partition.partition_id, job.num_processes]
                 for job in result.jobs],
        "snapshot": dataclasses.asdict(result.snapshot),
        "metrics": system.telemetry.metrics.to_dict(),
        "ledger": system.decisions.summary(),
        "events": [system.env.events_processed, system.env.handoffs],
    }


def _validate_doc():
    from repro.experiments.validation import validation_report

    rows, columns = validation_report()
    return {"columns": columns, "rows": rows}


CASES = {
    "figure3": lambda: _figure_doc(3),
    "figure4": lambda: _figure_doc(4),
    "figure5": lambda: _figure_doc(5),
    "figure6": lambda: _figure_doc(6),
    "steady-ts": _steady_doc,
    "steady-static-busy": _steady_static_busy_doc,
    "open-sjf": _open_sjf_doc,
    "validate": _validate_doc,
}


def canonical(doc):
    """Sorted keys, no whitespace, floats by ``repr`` (as ``json``
    writes them); non-string keys (node ids, link tuples) become their
    ``repr``."""
    def key_repr(value):
        if isinstance(value, dict):
            return {repr(k) if not isinstance(k, str) else k: key_repr(v)
                    for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [key_repr(v) for v in value]
        return value

    return json.dumps(key_repr(doc), sort_keys=True, separators=(",", ":"))


def digest(doc):
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_golden(name):
    """The results document serialises to exactly the pinned digest."""
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, build in CASES.items():
        print(f"    {name!r}:\n        {digest(build())!r},")
