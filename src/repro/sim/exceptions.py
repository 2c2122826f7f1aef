"""Exception types used by the simulation kernel."""


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""
