"""Simulation processes.

A *process* is a generator registered on a module: either a generator
function, or a factory (a lambda or ``functools.partial``) that returns a
generator when called.  The generator runs until it ``yield``s a wait, at
which point control returns to the scheduler.  A process waits on exactly
one thing at a time:

* ``yield n`` with an ``int`` ``n > 0`` — resume after ``n`` time units;
* ``yield 0`` — resume in the next delta cycle;
* ``yield hold`` with a :class:`~repro.kernel.Hold` — one of ``hold.left``
  more waits of ``hold.period``;
* ``yield e`` with an :class:`~repro.kernel.event.Event` — resume when
  ``e`` is notified.

Anything else a process yields (a negative ``int``, a ``bool``, a spent
hold, any other object) is a :class:`~repro.kernel.ProcessError` naming it.
Since a process is in exactly one place while it waits (a timed-queue
bucket, the delta queue or one event's waiter list), it is woken exactly
once per wait, and the scheduler keeps no bookkeeping to discard stale
wakes.

Timed and delta waits need no :class:`~repro.kernel.event.Event`: the
process itself is the entry in its wake time's bucket of the timed queue,
or in the delta queue, and is woken directly when its turn comes.
"""

from __future__ import annotations

import inspect
from typing import Callable, Generator


class Process:
    """Scheduler-side wrapper around a process body (see the module
    docstring): the generator, created on the first activation, and
    whether it has finished."""

    __slots__ = ("name", "_body", "_generator", "_terminated")

    def __init__(self, name: str, body: Callable[[], Generator]) -> None:
        self.name = name
        self._body = body
        self._generator = None
        self._terminated = False

    @property
    def terminated(self) -> bool:
        """True once the body has returned or raised."""
        return self._terminated

    def _start(self) -> Generator:
        """First activation: call the body, which must give a generator."""
        generator = self._body()
        if not inspect.isgenerator(generator):
            raise TypeError(f"the body returned {type(generator).__name__}, "
                            "not a generator")
        self._generator = generator
        return generator

    def __repr__(self) -> str:  # pragma: no cover
        return f"Process({self.name!r})"
