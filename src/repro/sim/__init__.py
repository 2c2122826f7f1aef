"""Discrete-event simulation kernel.

A from-scratch, deterministic, generator-coroutine DES kernel in the style
of SimPy, sized to what this reproduction's models use.  The public
surface:

- :class:`~repro.sim.environment.Environment` — the event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process` — the event primitives: processes
  run, wait and join.
- :class:`~repro.sim.events.AllOf` — waits for every one of several
  events, with a :class:`~repro.sim.events.ConditionValue` as its value.
- :class:`~repro.sim.stores.FilterStore` — the keyed store behind a
  node's mailbox.
- :class:`~repro.sim.resources.Resource` — a FIFO resource with
  ``capacity`` slots (the wormhole network's channels).
- :class:`~repro.sim.monitoring.TimeWeightedValue` and
  :class:`~repro.sim.monitoring.Sampler` — measurement probes.

Determinism: events scheduled for the same time are processed in FIFO
order of scheduling (a monotone sequence number breaks ties), so two runs
of the same model always produce identical traces.
"""

from repro import _lazy_exports

# Names resolve on first use: a run loads the kernel modules it touches,
# not the resource and probes only some models use.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "environment": ("Environment",),
    "events": ("NORMAL", "URGENT", "AllOf", "ConditionValue", "Event",
               "Process", "Timeout"),
    "exceptions": ("SimulationError",),
    "monitoring": ("Sampler", "TimeWeightedValue"),
    "resources": ("Resource",),
    "stores": ("FilterStore",),
})

__all__ = [
    "AllOf",
    "ConditionValue",
    "Environment",
    "Event",
    "FilterStore",
    "NORMAL",
    "Process",
    "Resource",
    "Sampler",
    "SimulationError",
    "TimeWeightedValue",
    "Timeout",
    "URGENT",
]
