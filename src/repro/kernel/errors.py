"""Exception hierarchy for the simulation kernel.

Every error raised by :mod:`repro.kernel` derives from :class:`KernelError`,
so callers embedding the kernel in larger flows can catch a single base class.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulation-kernel errors."""


class SimulationError(KernelError):
    """A generic error raised while the simulation is running."""


class SchedulerError(KernelError):
    """The scheduler was used incorrectly (e.g. run() re-entered)."""


class DeltaCycleLimitExceeded(SimulationError):
    """Too many delta cycles elapsed without time advancing.

    This almost always indicates processes that keep waking each other, or
    themselves, with zero delay.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"exceeded {limit} delta cycles at the same simulation time; "
            "likely a combinational feedback loop"
        )
        self.limit = limit


class ProcessError(SimulationError):
    """A process raised an exception or yielded an invalid wait request."""


class ElaborationError(KernelError):
    """The module hierarchy is inconsistent at elaboration time."""
