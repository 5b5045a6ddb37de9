"""Events and the central event queue.

Events follow SystemC semantics:

* ``notify()`` with no argument performs an *immediate* notification — every
  process currently sensitive to the event becomes runnable in the same
  evaluation phase.
* ``notify(0)`` (delta notification) wakes waiting processes in the next
  delta cycle.
* ``notify(t)`` with ``t > 0`` wakes waiting processes after ``t`` time units.

A later notification with an earlier completion time overrides a pending
one, exactly as in SystemC.

Two scheduler-internal mechanisms keep the hot path cheap and correct:

* **Scheduling epochs** — every state change of a pending notification
  (schedule, cancel, fire) bumps :attr:`Event._epoch`.  Queue entries (timed
  heap and delta queue) carry the epoch they were scheduled under, and the
  scheduler only fires an entry whose epoch still matches.  This makes stale
  entries (cancelled or overridden notifications left behind in the heap or
  delta queue) exactly identifiable: a delta notification pending while an
  old timed entry pops no longer causes a double wake, and a cancelled delta
  notification no longer fires.
* **Waiter tokens** — dynamic waiters are stored as ``(process, token)``
  pairs, where the token is the process's activation counter at registration
  time.  Waking a process invalidates all of its registrations at once (the
  token moves on), so the scheduler never scans waiter lists to deregister a
  process that was woken through another event of a ``WaitAny``.  Stale
  pairs are filtered when the event fires and compacted amortized-O(1) when
  the list grows.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import Process
    from .simulator import Simulator

#: Sentinel meaning "no notification pending".
_NOT_PENDING = -1
#: Sentinel time meaning "pending as a delta notification".
_DELTA_PENDING = -2

#: Waiter lists shorter than this are never compacted.
_MIN_COMPACT = 16


class Event:
    """A notification primitive processes can wait on.

    Events are created by modules and bound to the simulator lazily on
    first use.  Waiting is done from a process by yielding the event (or a
    :class:`repro.kernel.process.WaitEvent` wrapping it).
    """

    __slots__ = (
        "name",
        "_sim",
        "_waiters",
        "_static_sensitive",
        "_pending_at",
        "_epoch",
        "_compact_at",
    )

    #: Class marker letting the scheduler discriminate heap payloads
    #: (events vs. process timers) without ``isinstance``.
    _is_process = False

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self._sim: Optional["Simulator"] = None
        #: ``(process, wait_token)`` pairs dynamically waiting on this event.
        self._waiters: List[Tuple["Process", int]] = []
        #: Processes statically sensitive to this event (persistent).
        self._static_sensitive: List["Process"] = []
        self._pending_at: int = _NOT_PENDING
        #: Bumped on every schedule/cancel/fire; queue entries carry the
        #: epoch they were scheduled under and only fire on an exact match.
        self._epoch: int = 0
        self._compact_at: int = _MIN_COMPACT

    # -- wiring ----------------------------------------------------------
    def _bind(self, sim: "Simulator") -> None:
        self._sim = sim

    def add_static_sensitivity(self, process: "Process") -> None:
        """Register ``process`` to be woken on *every* notification."""
        if process not in self._static_sensitive:
            self._static_sensitive.append(process)

    def _add_waiter(self, process: "Process") -> None:
        waiters = self._waiters
        waiters.append((process, process._wait_token))
        if len(waiters) >= self._compact_at:
            self._compact_waiters()

    def _compact_waiters(self) -> None:
        """Drop registrations of processes that have since been woken
        through another event; amortized O(1) per registration."""
        self._waiters = waiters = [
            pair for pair in self._waiters if pair[0]._wait_token == pair[1]
        ]
        self._compact_at = max(_MIN_COMPACT, 2 * len(waiters))

    # -- notification ----------------------------------------------------
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
            # Immediate notification also cancels any pending one (the fire
            # path resets the pending state and bumps the epoch).
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

    def cancel(self) -> None:
        """Cancel any pending (delta or timed) notification."""
        self._pending_at = _NOT_PENDING
        self._epoch += 1

    # -- used by the simulator -------------------------------------------
    def _collect_triggered(self) -> Iterable["Process"]:
        """Return and clear the processes to wake, marking the event fired."""
        self._pending_at = _NOT_PENDING
        self._epoch += 1
        waiters = self._waiters
        static = self._static_sensitive
        if not waiters:
            return static
        self._waiters = []
        if static:
            triggered = list(static)
            for process, token in waiters:
                if process._wait_token == token:
                    triggered.append(process)
            return triggered
        return [process for process, token in waiters
                if process._wait_token == token]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Event({self.name!r})"


class EventQueue:
    """A priority queue of timed notifications keyed by (time, sequence).

    The sequence counter keeps ordering deterministic for notifications
    scheduled at the same instant.  Entries are
    ``(time, sequence, payload, epoch)`` tuples; the payload is either an
    :class:`Event` or a process timer (see
    :meth:`repro.kernel.simulator.Simulator`), and the epoch identifies the
    exact scheduling so stale entries can be skipped on pop.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, object, int]] = []
        self._counter = itertools.count()

    def push(self, time: int, event, epoch: int = 0) -> None:
        """Schedule ``event`` to fire at absolute ``time``."""
        heapq.heappush(self._heap, (time, next(self._counter), event, epoch))

    def next_time(self) -> Optional[int]:
        """Absolute time of the earliest pending notification, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
