"""Events.

An event fires only immediately, as SystemC's ``notify()`` with no
argument: every process currently waiting on it becomes runnable at once
and runs in the next delta cycle, ahead of that cycle's delta wakes.  A
notification made while nobody waits is counted and wakes nobody; it is
not remembered.  A wait that should end later is the process's own timer
(``yield n`` or ``yield 0``), never an event.

A process waits on one thing at a time, so an event's waiters are plain
processes in wait order: firing hands the list over and starts a new one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import Process
    from .simulator import Simulator


class Event:
    """A notification primitive processes can wait on by yielding it.

    Events are created by modules and bound to the simulator at
    elaboration, or lazily when a process first waits on one.
    """

    __slots__ = ("name", "_sim", "_waiters")

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self._sim: Optional["Simulator"] = None
        #: The processes waiting on this event, in wait order.
        self._waiters: List["Process"] = []

    def _bind(self, sim: "Simulator") -> None:
        self._sim = sim

    def notify(self) -> None:
        """Fire the event: its waiters run in the next delta cycle."""
        sim = self._sim
        if sim is None:
            raise RuntimeError(
                f"event {self.name!r} is not attached to a running simulator"
            )
        sim.stats.events_fired += 1
        sync = sim.probes.sync
        if sync is not None:
            watched = sim.probes.watched
            if sim._current_process in watched:
                sync("notify", self, sim._current_process)
        waiters = self._waiters
        if waiters:  # most notifies wake nobody
            self._waiters = []
            if sync is not None:
                for process in waiters:
                    if process in watched:
                        sync("wake", self, process)
            sim._immediate_runnable.extend(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Event({self.name!r})"
