"""Discrete-event simulation kernel.

A from-scratch, deterministic, generator-coroutine DES kernel in the style
of SimPy, providing the substrate every other subsystem of this
reproduction is built on.  The public surface:

- :class:`~repro.sim.environment.Environment` — the event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process` — the event primitives.
- :class:`~repro.sim.events.Interrupt` — asynchronous exception delivered
  into a running process.
- :class:`~repro.sim.events.AnyOf` / :class:`~repro.sim.events.AllOf` —
  condition events.
- :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.PriorityResource`,
  :class:`~repro.sim.resources.PreemptiveResource` — capacity-limited
  resources with FIFO / priority / preemptive queueing.
- :class:`~repro.sim.stores.Container`, :class:`~repro.sim.stores.Store`
  and the keyed :class:`~repro.sim.stores.FilterStore` — bulk-quantity
  and object queues.

Determinism: events scheduled for the same time are processed in FIFO
order of scheduling (a monotone sequence number breaks ties), so two runs
of the same model always produce identical traces.
"""

from repro import _lazy_exports

# Names resolve on first use: a run loads the kernel modules it touches,
# not the resources and monitors only some models use.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "environment": ("Environment",),
    "events": ("NORMAL", "URGENT", "AllOf", "AnyOf", "ConditionValue",
               "Event", "Interrupt", "Process", "Timeout"),
    "exceptions": ("SimulationError", "StopProcess"),
    "monitoring": ("Sampler", "Tally", "TimeWeightedValue"),
    "resources": ("PreemptiveResource", "Preempted", "PriorityResource",
                  "Resource"),
    "stores": ("Container", "FilterStore", "Store"),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "NORMAL",
    "Preempted",
    "PreemptiveResource",
    "PriorityResource",
    "Process",
    "Resource",
    "Sampler",
    "SimulationError",
    "StopProcess",
    "Store",
    "Tally",
    "TimeWeightedValue",
    "Timeout",
    "URGENT",
]
