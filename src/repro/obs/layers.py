"""Host time per layer: where a profiled run spent its seconds.

A layer is a ``repro`` package (or, for the hot packages, one module
of it).  Every Python function is charged to the layer whose file
defines it.  Anything defined outside those files -- C builtins, the
standard library, numpy -- is charged to whoever called it, following
cProfile's caller edges until a layer function is reached, in
proportion to the time spent on each edge.  Time with no layer caller
at all (the profiled region's first frame) goes to ``experiments``,
the layer that drives a run.  So the layers' self times sum to the
profiler's total and their shares sum to 1.

This is the rule of ``perfbench/layers.py``, which keeps its own copy
so that the benchmark runs unchanged against older checkouts.  Used
by ``repro-experiments hotspots``::

    profiler = cProfile.Profile()
    profiler.enable()
    run_figure(spec, scale)
    profiler.disable()
    seconds, calls = charge_layers(pstats.Stats(profiler).stats)
    print(format_layer_table(layer_table(seconds, calls)))
"""

from __future__ import annotations

import os

#: Layers in report order.
LAYERS = (
    "sim", "sim.stores", "transputer.cpu", "transputer.memory",
    "transputer.link", "comm", "topology", "core", "workload", "obs",
    "experiments",
)

#: Layer of the time that has no layer caller.
ROOT_LAYER = "experiments"

#: Function label of that time in :func:`charge_layers`'s result.
ROOT_FUNCTION = "(no layer caller)"

#: The ``repro`` package directory: the files the layers are made of.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Single modules split out of their package.
_MODULE_LAYERS = {
    ("sim", "stores.py"): "sim.stores",
    ("transputer", "cpu.py"): "transputer.cpu",
    ("transputer", "memory.py"): "transputer.memory",
}
# Whole packages; transputer's link, node and config modules form one
# layer, and ``trace`` is part of ``obs``.
_PACKAGE_LAYERS = {
    "sim": "sim", "transputer": "transputer.link", "comm": "comm",
    "topology": "topology", "core": "core", "workload": "workload",
    "obs": "obs", "trace": "obs", "experiments": "experiments",
}

# Amounts below this (seconds) stop being propagated up caller chains,
# and a cycle of non-layer callers stops after this many steps.
_EPSILON = 1e-12
_MAX_STEPS = 1_000_000


def _layer_map(package_dir):
    """``filename -> layer or None`` for files under ``package_dir``."""
    root = os.path.realpath(package_dir) + os.sep
    cache = {}

    def layer_of(filename):
        if filename not in cache:
            layer = None
            path = os.path.realpath(filename)
            if path.startswith(root):
                parts = path[len(root):].split(os.sep)
                # repro/__init__.py has no layer of its own.
                if len(parts) == 2:
                    layer = (_MODULE_LAYERS.get(tuple(parts))
                             or _PACKAGE_LAYERS.get(parts[0]))
            cache[filename] = layer
        return cache[filename]

    return layer_of


def charge_layers(stats):
    """Charge every profiled second to a layer function.

    ``stats`` is a ``pstats.Stats(...).stats`` table.  Returns
    ``(seconds, calls)``: ``seconds`` maps ``(layer, function)`` to self
    seconds, builtin and library time charged in, where ``function``
    reads ``file:line(name)`` (or :data:`ROOT_FUNCTION`); ``calls`` maps
    every layer to the number of calls of the Python functions its
    files define.
    """
    layer_of = _layer_map(PACKAGE_DIR)
    seconds = {}
    calls = dict.fromkeys(LAYERS, 0)

    def add(func, layer, amount):
        if layer is None:
            key = (ROOT_LAYER, ROOT_FUNCTION)
        else:
            key = (layer, f"{os.path.basename(func[0])}:{func[1]}({func[2]})")
        seconds[key] = seconds.get(key, 0.0) + amount

    pending = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is None:
            pending[func] = pending.get(func, 0.0) + tt
        else:
            add(func, layer, tt)
            calls[layer] += nc
    budget = _MAX_STEPS
    while pending:
        func, amount = pending.popitem()
        budget -= 1
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c != func}
        total = sum(weights.values())
        if amount < _EPSILON or total <= 0.0 or budget <= 0:
            add(func, None, amount)
            continue
        for caller, weight in weights.items():
            share = amount * weight / total
            layer = layer_of(caller[0])
            if layer is None:
                pending[caller] = pending.get(caller, 0.0) + share
            else:
                add(caller, layer, share)
    return seconds, calls


def layer_table(seconds, calls):
    """``{layer: (self_s, share, calls)}`` for every layer, in order."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (layer, _function), amount in seconds.items():
        self_s[layer] += amount
    total = sum(self_s.values())
    return {layer: (self_s[layer], self_s[layer] / total if total else 0.0,
                    calls[layer])
            for layer in LAYERS}


def format_layer_table(table):
    """The per-layer table as text, with a total row."""
    lines = ["=== Host time per layer (cProfile; builtins charged to "
             "their callers)",
             f"  {'layer':<18} {'self s':>9} {'share':>7} {'calls':>12}"]
    for layer, (self_s, share, calls) in table.items():
        lines.append(f"  {layer:<18} {self_s:9.3f} {share:7.1%} "
                     f"{calls:12,d}")
    total_s, total_share, total_calls = (
        sum(column) for column in zip(*table.values()))
    lines.append(f"  {'total':<18} {total_s:9.3f} {total_share:7.1%} "
                 f"{total_calls:12,d}")
    return "\n".join(lines)


def layer_collapsed_lines(seconds):
    """``layer;function microseconds`` lines, for speedscope/FlameGraph."""
    lines = []
    for (layer, function), amount in sorted(seconds.items()):
        micros = int(round(amount * 1e6))
        if micros > 0:
            lines.append(f"{layer};{function} {micros}")
    return lines
