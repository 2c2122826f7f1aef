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

from repro.sim.environment import Environment
from repro.sim.events import (
    URGENT,
    NORMAL,
    AllOf,
    AnyOf,
    ConditionValue,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.exceptions import SimulationError, StopProcess
from repro.sim.monitoring import Sampler, Tally, TimeWeightedValue
from repro.sim.resources import (
    PreemptiveResource,
    Preempted,
    PriorityResource,
    Resource,
)
from repro.sim.stores import Container, FilterStore, Store

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
