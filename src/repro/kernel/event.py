"""Events.

Events follow SystemC semantics:

* ``notify()`` with no argument performs an *immediate* notification — every
  process currently waiting on the event becomes runnable at once and runs
  in the next delta cycle, ahead of that cycle's delta wakes.
* ``notify(0)`` (delta notification) wakes waiting processes in the next
  delta cycle.
* ``notify(t)`` with ``t > 0`` wakes waiting processes after ``t`` time units.

A later notification with an earlier completion time overrides a pending
one, exactly as in SystemC, and firing an event (immediately or from a
queue) ends whatever notification was pending.

**Scheduling epochs** keep the override cheap: every state change of a
pending notification (schedule, fire) bumps :attr:`Event._epoch`.  Queue
entries (timed heap and delta queue) carry the epoch they were scheduled
under, and the scheduler only fires an entry whose epoch still matches, so
the entry an override left behind is skipped, never fired twice.

A process waits on one thing at a time, so an event's waiters are plain
processes in wait order: firing hands the list over and starts a new one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import Process
    from .simulator import Simulator

#: Sentinel meaning "no notification pending".
_NOT_PENDING = -1
#: Sentinel time meaning "pending as a delta notification".
_DELTA_PENDING = -2


class Event:
    """A notification primitive processes can wait on by yielding it.

    Events are created by modules and bound to the simulator at
    elaboration, or lazily when a process first waits on one.
    """

    __slots__ = ("name", "_sim", "_waiters", "_pending_at", "_epoch")

    #: Class marker letting the scheduler discriminate heap payloads
    #: (events vs. process timers) without ``isinstance``.
    _is_process = False

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self._sim: Optional["Simulator"] = None
        #: The processes waiting on this event, in wait order.
        self._waiters: List["Process"] = []
        self._pending_at: int = _NOT_PENDING
        #: Bumped on every schedule/fire; queue entries carry the epoch
        #: they were scheduled under and only fire on an exact match.
        self._epoch: int = 0

    def _bind(self, sim: "Simulator") -> None:
        self._sim = sim

    def notify(self, delay: Optional[int] = None) -> None:
        """Notify the event.

        ``delay=None`` → immediate, ``delay=0`` → next delta cycle,
        ``delay>0`` → timed notification after ``delay`` time units.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError(
                f"event {self.name!r} is not attached to a running simulator"
            )
        if delay is None:
            sim._trigger_event_now(self)
            return
        if delay == 0:
            if self._pending_at == _DELTA_PENDING:
                return
            # A delta notification overrides any pending timed notification.
            self._pending_at = _DELTA_PENDING
            self._epoch += 1
            sim._schedule_delta_event(self, self._epoch)
            return
        if delay < 0:
            raise ValueError("notification delay must be >= 0")
        if self._pending_at == _DELTA_PENDING:
            return  # an earlier (delta) notification wins
        target = sim.now + delay
        if self._pending_at != _NOT_PENDING and self._pending_at <= target:
            return  # an earlier timed notification wins
        self._pending_at = target
        self._epoch += 1
        sim._schedule_timed_event(self, target, self._epoch)

    def _fire(self) -> List["Process"]:
        """Mark the event fired and hand over its waiters."""
        self._pending_at = _NOT_PENDING
        self._epoch += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
        return waiters

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Event({self.name!r})"
