"""Workload registry: named, parameterized task-list factories.

A *workload* is everything one experiment runs on the platform: the task
programs placed on the processing elements plus the checks that decide
whether the simulated execution produced the right answer.  The registry
maps short names (``"gsm_encode"``, ``"fir"``, ...) to factories so that a
scenario can reference its workload declaratively — which also keeps
scenarios picklable for the process-sharded experiment runner (only the
name and the parameters cross the process boundary; the factory is resolved
again inside the worker).

Register a workload with the decorator::

    from repro.sw import workload

    @workload.register("my_kernel")
    def _my_kernel(config, *, size=64, seed=0):
        tasks = [make_my_task(size, seed + pe) for pe in range(config.num_pes)]
        return Workload(tasks=tasks, description=f"my kernel, size={size}")

and instantiate it with ``workload.create("my_kernel", config, size=128)``.

The built-in workloads register themselves the same way, each in the
module that defines its tasks; the process-wide registry only holds their
*names* (:data:`BUILTIN_MODULES`) until one is looked up, and then imports
that one module — a ``fir`` run never loads the GSM codec or the DMA
driver.  Nothing here imports task or platform code at run time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from .task import TaskFunction


class WorkloadError(Exception):
    """Raised on registry misuse: duplicate or unknown workload names."""


#: A result check: receives the :class:`~repro.soc.stats.SimulationReport`
#: of the run.  Pass by returning ``True``/``None``; fail by returning
#: ``False``, returning a message string, or raising ``AssertionError``.
ResultCheck = Callable[[object], object]


@dataclass
class Workload:
    """An instantiated workload: tasks ready for placement plus checks."""

    #: Task programs, placed on PEs in order (round-robin by the platform).
    tasks: List[TaskFunction]
    #: Result checks run against the simulation report after the run.
    checks: List[ResultCheck] = field(default_factory=list)
    #: Human-readable one-liner for tables and logs.
    description: str = ""


#: A factory: ``factory(config, **params) -> Workload | list-of-tasks``.
WorkloadFactory = Callable[..., object]


def as_workload(built: object) -> Workload:
    """Normalise a factory's return value into a :class:`Workload`."""
    if isinstance(built, Workload):
        return built
    if isinstance(built, (list, tuple)):
        return Workload(tasks=list(built))
    if callable(built):
        return Workload(tasks=[built])
    raise WorkloadError(
        f"a workload factory must return a Workload, a task list or a single "
        f"task, got {type(built).__name__}"
    )


def expect_results(expected: Callable[[], dict], what: str) -> ResultCheck:
    """A check asserting ``report.results`` matches ``expected()`` per PE.

    ``expected`` is called when the check first runs, not when the
    workload is built: a PDES partition worker rebuilds the workload and
    never checks it, so a reference computed at build time is computed
    once per worker for nothing.  It must not draw from ``random`` (the
    scenario seed only covers the build).
    """
    reference = functools.cache(expected)

    def check(report):
        for name, want in reference().items():
            if report.results.get(name) != want:
                return f"{name}: {what} differs from the reference"
        return True

    return check


class WorkloadRegistry:
    """Name → workload-factory mapping with decorator-based registration.

    ``builtins`` maps a name to the module whose import registers it: such
    a name is known (``in``, :meth:`names`, ``len``) from the start, is
    loaded by the first :meth:`get`, and can be registered by that module
    only.
    """

    def __init__(self, builtins: Optional[Dict[str, str]] = None) -> None:
        self._factories: Dict[str, WorkloadFactory] = {}
        self._builtins: Dict[str, str] = dict(builtins or {})

    # -- registration -------------------------------------------------------------
    def register(self, name: str, factory: Optional[WorkloadFactory] = None):
        """Register ``factory`` under ``name`` (usable as a decorator)."""
        if not name or not isinstance(name, str):
            raise WorkloadError("workload names must be non-empty strings")

        def _register(fn: WorkloadFactory) -> WorkloadFactory:
            owner = self._builtins.get(name)
            shadows = owner is not None and getattr(
                fn, "__module__", None) != owner
            if name in self._factories or shadows:
                raise WorkloadError(
                    f"workload {name!r} is already registered "
                    f"(by {self._factories.get(name) or owner!r})"
                )
            self._factories[name] = fn
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Remove a registration (used by tests)."""
        self._factories.pop(name, None)
        self._builtins.pop(name, None)

    # -- lookup ---------------------------------------------------------------------
    def get(self, name: str) -> WorkloadFactory:
        """The factory registered under ``name`` (a built-in's module is
        imported on its first lookup)."""
        if name not in self._factories and name in self._builtins:
            import_module(self._builtins[name])
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise WorkloadError(
                f"unknown workload {name!r}; registered workloads: {known}"
            ) from None

    def create(self, name: str, config, **params) -> Workload:
        """Instantiate the named workload for ``config``."""
        return as_workload(self.get(name)(config, **params))

    def names(self) -> List[str]:
        """All registered workload names, sorted."""
        return sorted(self._factories.keys() | self._builtins.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._builtins

    def __len__(self) -> int:
        return len(self.names())


#: Built-in workload name → the module that defines and registers it.
BUILTIN_MODULES = {
    "alloc_churn": "repro.sw.workloads.alloc_churn",
    "dma_memcpy": "repro.sw.workloads.dma",
    "fir": "repro.sw.workloads.fir",
    "gsm_encode": "repro.sw.gsm.mapping",
    "matmul": "repro.sw.workloads.matmul",
    "producer_consumer": "repro.sw.workloads.producer_consumer",
    "producer_consumer_irq": "repro.sw.workloads.producer_consumer_irq",
    "stencil": "repro.sw.workloads.stencil",
    "stress_dma_copy": "repro.sw.workloads.stress",
    "stress_irq_handoff": "repro.sw.workloads.stress",
    "stress_locked_handoff": "repro.sw.workloads.stress",
}

#: The process-wide registry used by ``repro.api`` scenarios.
workload = WorkloadRegistry(BUILTIN_MODULES)
