"""Simulation processes.

A *process* is a Python generator function registered on a module.  The
generator runs until it ``yield``s a wait request, at which point control
returns to the scheduler.  Supported wait requests:

* ``yield WaitTime(n)`` or ``yield n`` (an ``int``) — resume after ``n`` time
  units.
* ``yield WaitCycles(n, period)`` — resume after ``n`` clock cycles of
  ``period`` time units each; immutable, so instances can be cached and
  reused across yields (see :class:`WaitCycleCache`).
* ``yield WaitEvent(e)`` or ``yield e`` (an :class:`~repro.kernel.event.Event`)
  — resume when the event is notified.
* ``yield WaitAny(e1, e2, ...)`` — resume when any of the events fires.
* ``yield WaitDelta()`` — resume in the next delta cycle.

Processes may also be *statically sensitive* to a list of events (typically a
clock edge); such processes are re-run from the top on each trigger if they
are plain callables, or resumed if they are generators.

Timed waits take a scheduler fast path: instead of allocating an
:class:`~repro.kernel.event.Event` per wait, the process itself is pushed
onto the timed queue and woken directly when its deadline pops (one reusable
private timer per process, identified by the :attr:`Process._is_process`
marker).  Event waits are registered with the process's current *wait
token*; waking the process advances the token, which invalidates every
outstanding registration at once without scanning waiter lists.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union

from .errors import ProcessError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class WaitRequest:
    """Base class for objects a process may yield to the scheduler."""

    __slots__ = ()


class WaitTime(WaitRequest):
    """Suspend the process for a fixed number of time units."""

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError("wait duration must be >= 0")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitTime({self.duration})"


class WaitCycles(WaitTime):
    """Suspend the process for ``cycles`` clock cycles of ``period`` units.

    Precomputes the duration once, so a cached instance yielded repeatedly
    (a clock-driven task processor's per-cycle wait, a poll interval) costs
    no per-yield allocation or multiplication.
    """

    __slots__ = ("cycles", "period")

    def __init__(self, cycles: int, period: int = 1) -> None:
        if cycles < 0:
            raise ValueError("wait cycles must be >= 0")
        if period <= 0:
            raise ValueError("clock period must be positive")
        self.cycles = cycles
        self.period = period
        self.duration = cycles * period

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitCycles({self.cycles}, period={self.period})"


class WaitCycleCache:
    """A bounded per-clock cache of reusable :class:`WaitCycles` objects.

    Used by :class:`repro.sw.task.TaskContext`: models that wait a small
    set of recurring cycle counts get the same wait object back on every
    call, so the scheduler hot path sees no per-yield allocation.
    """

    __slots__ = ("period", "limit", "_cache")

    def __init__(self, period: int, limit: int = 256) -> None:
        self.period = period
        self.limit = limit
        self._cache: dict = {}

    def get(self, cycles: int) -> "WaitCycles":
        wait = self._cache.get(cycles)
        if wait is None:
            wait = WaitCycles(cycles, self.period)
            if len(self._cache) < self.limit:
                self._cache[cycles] = wait
        return wait


class WaitDelta(WaitRequest):
    """Suspend the process until the next delta cycle."""

    __slots__ = ()


class WaitEvent(WaitRequest):
    """Suspend the process until a specific event is notified."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class WaitAny(WaitRequest):
    """Suspend the process until any of the given events is notified."""

    __slots__ = ("events",)

    def __init__(self, *events: Event) -> None:
        if not events:
            raise ValueError("WaitAny requires at least one event")
        self.events = tuple(events)


#: The union of things a process body may yield.
Yieldable = Union[WaitRequest, Event, int]


class Process:
    """Scheduler-side wrapper around a user process body.

    ``body`` may be either a generator function (resumable, keeps local
    state between activations) or a plain callable (re-invoked on every
    trigger, SystemC ``SC_METHOD`` style).
    """

    __slots__ = (
        "name",
        "_body",
        "_generator",
        "_is_generator_func",
        "_static_events",
        "_sim",
        "_terminated",
        "_wait_token",
        "_runnable_gen",
    )

    #: Marker used by the scheduler to discriminate timed-queue payloads
    #: (process timers vs. events) without ``isinstance`` checks.
    _is_process = True

    def __init__(
        self,
        name: str,
        body: Callable[[], Union[None, Iterable[Yieldable]]],
        static_events: Sequence[Event] = (),
    ) -> None:
        self.name = name
        self._body = body
        self._is_generator_func = inspect.isgeneratorfunction(body)
        self._generator = None
        self._static_events: List[Event] = list(static_events)
        self._sim: Optional["Simulator"] = None
        self._terminated = False
        #: Advanced on every activation; event registrations carry the token
        #: they were made under and become stale when it moves on.
        self._wait_token = 0
        #: Generation stamp used by the scheduler's runnable dedup.
        self._runnable_gen = 0

    # -- properties -------------------------------------------------------
    @property
    def terminated(self) -> bool:
        """True once a generator body has run to completion."""
        return self._terminated

    @property
    def is_method(self) -> bool:
        """True if the body is a plain callable re-run on every activation."""
        return not self._is_generator_func

    # -- wiring -----------------------------------------------------------
    def _bind(self, sim: "Simulator") -> None:
        self._sim = sim
        # A rebound process (module tree reused in a fresh simulator) must
        # not carry a stamp from the old simulator's generation counter, or
        # the runnable dedup could mistake it for a duplicate.
        self._runnable_gen = 0
        for event in self._static_events:
            event._bind(sim)
            event.add_static_sensitivity(self)

    def add_static_sensitivity(self, event: Event) -> None:
        """Make the process statically sensitive to ``event``."""
        self._static_events.append(event)
        if self._sim is not None:
            event._bind(self._sim)
            event.add_static_sensitivity(self)

    # -- execution --------------------------------------------------------
    def run(self) -> Optional[Yieldable]:
        """Activate the process once and return what it yielded (if anything).

        Returns ``None`` when a method process returns or a generator body
        terminates; otherwise returns the yielded wait request, which the
        scheduler translates into event/time waits.
        """
        if self._terminated:
            return None
        # Waking invalidates every outstanding event registration at once.
        self._wait_token += 1
        generator = self._generator
        try:
            if generator is not None:
                return next(generator)
            if self._is_generator_func:
                self._generator = generator = self._body()
                return next(generator)
            result = self._body()
            if inspect.isgenerator(result):
                # The body was a factory (lambda/partial) returning a
                # generator: adopt it and behave like a thread process.
                self._is_generator_func = True
                self._generator = result
                return next(result)
            return None
        except StopIteration:
            self._terminated = True
            return None
        except Exception as exc:  # re-raise with process context
            self._terminated = True
            raise ProcessError(f"process {self.name!r} raised {exc!r}") from exc

    def __repr__(self) -> str:  # pragma: no cover
        kind = "method" if self.is_method else "thread"
        return f"Process({self.name!r}, {kind})"
