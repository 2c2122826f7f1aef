"""Per-layer host-time split of a cProfile run.

A layer is a ``repro`` package (or, for the hot packages, one module
of it).  Every Python function is charged to the layer whose file
defines it.  Anything defined outside those files -- C builtins, the
standard library, numpy, this benchmark's own glue -- is charged to
whoever called it, following cProfile's caller edges until a layer
function is reached, in proportion to the time spent on each edge.
Time with no layer caller at all (the profiled region's first frame)
goes to ``experiments``, the layer the benchmark calls into.  So the
layers' self times sum to the profiler's total and their shares sum
to 1.
"""

from __future__ import annotations

import os
import pstats

#: Layers in report order.
LAYERS = (
    "sim", "sim.stores", "transputer.cpu", "transputer.memory",
    "transputer.link", "comm", "topology", "core", "workload", "obs",
    "experiments",
)

#: Layer of the time that has no layer caller.
ROOT_LAYER = "experiments"

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


class LayerMap:
    """Maps a code file to its layer, given the ``repro`` package root."""

    def __init__(self, package_dir):
        self._root = os.path.realpath(package_dir) + os.sep
        self._cache = {}

    def layer_of(self, filename):
        layer = self._cache.get(filename)
        if layer is None and filename not in self._cache:
            layer = self._classify(filename)
            self._cache[filename] = layer
        return layer

    def _classify(self, filename):
        path = os.path.realpath(filename)
        if not path.startswith(self._root):
            return None
        parts = path[len(self._root):].split(os.sep)
        if len(parts) != 2:
            return None  # repro/__init__.py: no layer of its own
        package, module = parts
        return (_MODULE_LAYERS.get((package, module))
                or _PACKAGE_LAYERS.get(package))


def split(profile, layer_map):
    """``{layer: (self_s, calls)}`` for every layer in :data:`LAYERS`.

    ``profile`` is a disabled :class:`cProfile.Profile`.  ``calls``
    counts calls of the Python functions the layer's files define.
    """
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    pending = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_map.layer_of(func[0])
        if layer is None:
            pending[func] = pending.get(func, 0.0) + tt
        else:
            self_s[layer] += tt
            calls[layer] += nc
    budget = _MAX_STEPS
    while pending:
        func, amount = pending.popitem()
        budget -= 1
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c != func}
        total = sum(weights.values())
        if amount < _EPSILON or total <= 0.0 or budget <= 0:
            self_s[ROOT_LAYER] += amount
            continue
        for caller, weight in weights.items():
            share = amount * weight / total
            layer = layer_map.layer_of(caller[0])
            if layer is None:
                pending[caller] = pending.get(caller, 0.0) + share
            else:
                self_s[layer] += share
    return {layer: (self_s[layer], calls[layer]) for layer in LAYERS}
