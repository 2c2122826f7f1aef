"""Tests for the per-layer host-time split and the ``hotspots`` command."""

import cProfile
import os
import pstats

import pytest

from repro.experiments.cli import main as cli_main
from repro.obs.layers import (
    LAYERS,
    PACKAGE_DIR,
    ROOT_FUNCTION,
    charge_layers,
    format_layer_table,
    layer_collapsed_lines,
    layer_table,
)
from repro.sim import Environment

SIM = (os.path.join(PACKAGE_DIR, "sim", "environment.py"), 10, "run")
CPU = (os.path.join(PACKAGE_DIR, "transputer", "cpu.py"), 20, "execute")
BUILTIN = ("~", 0, "<built-in method builtins.sorted>")
LIBRARY = ("/usr/lib/python3/heapq.py", 30, "merge")


def _stats(*rows):
    """A pstats table from ``(func, calls, self_s, {caller: edge_s})``."""
    return {func: (calls, calls, self_s, self_s,
                   {c: (1, 1, t, t) for c, t in callers.items()})
            for func, calls, self_s, callers in rows}


def test_builtin_time_goes_to_its_calling_layers_by_edge_time():
    seconds, calls = charge_layers(_stats(
        (SIM, 3, 1.0, {}),
        (CPU, 2, 0.5, {SIM: 0.5}),
        (BUILTIN, 7, 2.0, {SIM: 1.5, CPU: 0.5}),
    ))
    table = layer_table(seconds, calls)
    assert table["sim"][0] == pytest.approx(1.0 + 1.5)
    assert table["transputer.cpu"][0] == pytest.approx(0.5 + 0.5)
    # Only functions a layer's files define count as its calls.
    assert table["sim"][2] == 3 and table["transputer.cpu"][2] == 2
    assert sum(row[2] for row in table.values()) == 5
    assert seconds[("sim", "environment.py:10(run)")] == pytest.approx(2.5)


def test_library_chains_and_callerless_time():
    seconds, calls = charge_layers(_stats(
        (CPU, 1, 0.25, {}),
        # A builtin called only from a library function called by the
        # CPU: the whole chain lands on the CPU layer.
        (LIBRARY, 1, 0.5, {CPU: 1.0}),
        (BUILTIN, 1, 0.5, {LIBRARY: 0.5}),
        # No caller at all: charged to the root layer.
        (("~", 0, "<method 'disable'>"), 1, 0.125, {}),
    ))
    table = layer_table(seconds, calls)
    assert table["transputer.cpu"][0] == pytest.approx(1.25)
    assert seconds[("experiments", ROOT_FUNCTION)] == pytest.approx(0.125)
    assert sum(row[1] for row in table.values()) == pytest.approx(1.0,
                                                                   abs=1e-9)


def test_profiled_run_covers_every_second():
    profiler = cProfile.Profile()

    def ticker(env):
        for _ in range(200):
            yield env.timeout(1)

    env = Environment()
    env.process(ticker(env))
    profiler.enable()
    env.run()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    seconds, calls = charge_layers(stats)
    table = layer_table(seconds, calls)
    assert tuple(table) == LAYERS
    total = sum(tt for _cc, _nc, tt, _ct, _callers in stats.values())
    assert sum(row[0] for row in table.values()) == pytest.approx(total)
    assert abs(sum(row[1] for row in table.values()) - 1.0) < 1e-9
    assert table["sim"][2] > 200
    text = format_layer_table(table)
    assert all(layer in text for layer in LAYERS)
    lines = layer_collapsed_lines(seconds)
    assert lines and all(line.split(";", 1)[0] in LAYERS for line in lines)
    assert all(int(line.rsplit(" ", 1)[1]) > 0 for line in lines)


def test_cli_hotspots_smoke(tmp_path, capsys):
    flame = tmp_path / "host.collapsed"
    assert cli_main(["hotspots", "--figure", "4", "--scale", "smoke",
                     "--flame-out", str(flame)]) == 0
    out = capsys.readouterr().out
    assert "=== Hotspots: figure 4" in out
    assert "=== Host time per layer" in out
    for layer in LAYERS:
        assert f"\n  {layer} " in out
    assert f"wrote {flame} [collapsed-stacks;" in out
    stacks = flame.read_text().splitlines()
    assert any(line.startswith("sim;") for line in stacks)
    assert any(line.startswith("transputer.cpu;") for line in stacks)
