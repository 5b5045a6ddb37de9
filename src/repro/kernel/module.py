"""Hierarchical hardware modules.

A :class:`Module` groups processes, events and child modules, giving each a
hierarchical name (``top.bus.arbiter``).  Subclasses declare behaviour by
registering processes in ``__init__`` with :meth:`add_process`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .errors import ElaborationError
from .event import Event
from .process import Process


class Module:
    """Base class for every simulated hardware block."""

    def __init__(self, name: str, parent: Optional["Module"] = None) -> None:
        if not name:
            raise ElaborationError("module name must be non-empty")
        self.name = name
        self.parent = parent
        self._children: Dict[str, "Module"] = {}
        self._processes: List[Process] = []
        self._events: List[Event] = []
        #: The simulator that elaborated this module (None before that).
        self._sim = None
        if parent is not None:
            parent._register_child(self)

    # -- hierarchy ---------------------------------------------------------
    @property
    def full_name(self) -> str:
        """Dot-separated hierarchical name from the root module."""
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name}.{self.name}"

    def _register_child(self, child: "Module") -> None:
        if child.name in self._children:
            raise ElaborationError(
                f"module {self.full_name!r} already has a child named {child.name!r}"
            )
        self._children[child.name] = child

    @property
    def children(self) -> Sequence["Module"]:
        """Direct child modules in registration order."""
        return list(self._children.values())

    def descendants(self) -> Iterable["Module"]:
        """Yield this module and all modules below it, depth-first."""
        yield self
        for child in self._children.values():
            yield from child.descendants()

    def find(self, path: str) -> "Module":
        """Look up a descendant by relative dotted path (``"bus.arbiter"``)."""
        module: Module = self
        for part in path.split("."):
            try:
                module = module._children[part]
            except KeyError:
                raise ElaborationError(
                    f"{self.full_name!r} has no descendant {path!r}"
                ) from None
        return module

    # -- behavioural registration -------------------------------------------
    def add_process(self, body: Callable, name: Optional[str] = None) -> Process:
        """Register a process: a generator function, or a factory returning
        a generator (see :mod:`repro.kernel.process`)."""
        process = Process(f"{self.full_name}.{name or body.__name__}", body)
        self._processes.append(process)
        return process

    def add_event(self, event: Event) -> Event:
        """Register a module-owned event so the simulator binds it."""
        self._events.append(event)
        return event

    # -- hooks ------------------------------------------------------------------
    def end_of_simulation(self) -> None:
        """Hook called once after the simulation finishes; override for reports."""

    # -- introspection ---------------------------------------------------------
    @property
    def processes(self) -> Sequence[Process]:
        """Processes registered directly on this module."""
        return list(self._processes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.full_name!r})"
