"""Cold-start contract: a run loads only the modules it uses.

The paper's evaluation is many short cell runs, each in a fresh
process, so import cost is paid once per run.  A figure cell with
recording off must load neither numpy nor the process-pool machinery
nor any ``repro.obs``/``repro.trace`` module; a recorded cell loads
exactly the recorders it enables.  The process under test has long
since imported everything, so each import check runs in a fresh
interpreter and reports ``sys.modules`` back.

The package surfaces (``repro.experiments``, ``repro.obs``,
``repro.trace``, and the model's ``repro.sim``, ``repro.comm``,
``repro.topology`` and ``repro.workload``) resolve their public names on
first access; the last tests check that contract in-process.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Never loaded by a run that neither records, sweeps in parallel, nor
#: draws random demands.
HEAVY = ("numpy", "multiprocessing", "concurrent.futures")

#: Exactly the observability modules a run with telemetry and the
#: decision ledger on loads.
RECORDING = {
    "repro.obs", "repro.obs.decisions", "repro.obs.metrics",
    "repro.obs.schemas", "repro.obs.telemetry",
    "repro.trace", "repro.trace.recorder",
}

SURFACES = ("repro.experiments", "repro.obs", "repro.trace", "repro.sim",
            "repro.comm", "repro.topology", "repro.workload")

#: Model modules no figure cell uses: the other transports and the
#: collectives, the extra topologies, the kernel's resources and
#: monitors (a recorded cell's first gauge loads the monitors), and the
#: workloads the figures do not run.
OFF_FIGURE_PATH = {
    "repro.comm.channel", "repro.comm.collectives", "repro.comm.wormhole",
    "repro.sim.monitoring", "repro.sim.resources", "repro.topology.extra",
    "repro.workload.arrivals", "repro.workload.butterfly",
    "repro.workload.pipeline", "repro.workload.stencil",
    "repro.workload.synthetic",
}

_CELL = """
from repro.experiments.config import ExperimentScale, figure_spec
from repro.experiments.runner import enumerate_cells, run_cell

scale = ExperimentScale.smoke()
task = enumerate_cells(figure_spec(3), scale)[0]
cell = run_cell(scale=scale, telemetry_sink={sink}, decisions_sink={sink},
                **task)
assert cell.mean_response_time > 0
"""

_MAIN = """
from repro.experiments.cli import main

try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
assert code == 0, code
"""


def _loaded(code):
    """Modules loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _family(modules, *roots):
    return {m for m in modules
            if any(m == r or m.startswith(r + ".") for r in roots)}


def test_unrecorded_cell_loads_no_heavy_or_recording_module():
    modules = _loaded(_CELL.format(sink=None))
    assert _family(modules, *HEAVY) == set()
    assert _family(modules, "repro.obs", "repro.trace") == set()
    assert modules & OFF_FIGURE_PATH == set()


def test_recorded_cell_loads_exactly_the_recorders():
    modules = _loaded(_CELL.format(sink=[]))
    assert _family(modules, "repro.obs", "repro.trace") == RECORDING
    assert _family(modules, *HEAVY) == set()
    assert modules & OFF_FIGURE_PATH == {"repro.sim.monitoring"}


#: Never loaded by parsing the command line alone: no model, no
#: recorder, no allocation tracer.
MODEL = ("repro.sim", "repro.core", "repro.obs", "tracemalloc")


@pytest.mark.parametrize("argv, absent",
                         [(["--help"], HEAVY + MODEL),
                          (["--figure", "3", "--scale", "smoke"], HEAVY)],
                         ids=["help", "figure3-smoke"])
def test_cli_loads_no_numpy_or_process_pool(argv, absent):
    modules = _loaded(_MAIN.format(argv=argv))
    assert _family(modules, *absent) == set()


def test_cli_static_names_match_their_sources():
    """The CLI spells out what it would otherwise import a model for."""
    from repro.experiments import cli
    from repro.experiments.ablations import ALL_ABLATIONS
    from repro.experiments.config import _FIGURES

    assert cli.ABLATION_NAMES == tuple(sorted(ALL_ABLATIONS))
    assert cli.FIGURES == (*map(str, sorted(_FIGURES)), "all")


def test_from_import_falls_through_to_submodules():
    """``from repro.experiments import runner, steady`` (not public
    names) still imports the submodules, as the benchmark's run log
    does."""
    modules = _loaded("from repro.experiments import runner, steady\n"
                      "assert callable(runner.run_cell)\n"
                      "assert callable(steady.steady_cell)\n")
    assert {"repro.experiments.runner",
            "repro.experiments.steady"} <= modules


def _submodules(package):
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]


@pytest.mark.parametrize("name", SURFACES)
def test_surface_names_are_their_home_objects(name):
    package = importlib.import_module(name)
    submodules = _submodules(package)
    for public in package.__all__:
        value = getattr(package, public)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{name}.{public}"]
            continue
        homes = {id(vars(sub)[public]) for sub in submodules
                 if public in vars(sub)}
        assert homes == {id(value)}, public


@pytest.mark.parametrize("name", SURFACES)
def test_surface_dir_covers_all(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", SURFACES)
def test_surface_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("name", SURFACES)
def test_surface_star_import_binds_all(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    for public in package.__all__:
        assert namespace[public] is getattr(package, public)
