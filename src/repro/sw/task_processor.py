"""Transaction-accurate processing element executing task programs.

A :class:`TaskProcessor` stands in for one of the paper's ISSs: it owns a
master port on the interconnect, executes a task program (a Python generator
using the shared-memory API), charges simulated cycles for local computation
and produces per-PE statistics.  The full ARM-like ISS
(:mod:`repro.iss`) plugs into the same platform slots when instruction-level
fidelity is wanted; the task processor is the fast path used by the large
workloads (GSM) and by the evaluation benches.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass
from typing import Generator, List, Optional

from ..fabric import MasterPort
from ..kernel import Module, Probes
from ..wrapper.api import SharedMemoryAPI
from .instruction_costs import ARM7_LIKE, CostModel
from .task import TaskContext, TaskFunction


@dataclass
class TaskProcessorStats:
    """Execution statistics of one processing element."""

    started_at: int = 0
    finished_at: Optional[int] = None
    compute_cycles: int = 0
    api_calls: int = 0
    result: object = None
    failed: bool = False
    error: str = ""
    host_seconds: float = 0.0

    @property
    def finished(self) -> bool:
        return self.finished_at is not None


class TaskProcessor(Module):
    """A processing element that runs one task program to completion."""

    def __init__(
        self,
        name: str,
        port: MasterPort,
        apis: List[SharedMemoryAPI],
        task: TaskFunction,
        clock_period: int,
        cost_model: CostModel = ARM7_LIKE,
        start_delay_cycles: int = 0,
        parent: Optional[Module] = None,
        irq=None,
        devices=None,
        probes: Optional[Probes] = None,
    ) -> None:
        super().__init__(name, parent)
        self.port = port
        self.task = task
        self.clock_period = clock_period
        self.start_delay_cycles = start_delay_cycles
        self.context = TaskContext(
            pe_id=port.master_id,
            apis=apis,
            clock_period=clock_period,
            cost_model=cost_model,
            name=name,
            port=port,
            irq=irq,
            devices=devices,
            probes=probes,
        )
        self.stats = TaskProcessorStats()
        self.add_process(self._run, name="program")

    # -- execution ---------------------------------------------------------------
    def _run(self) -> Generator[object, None, None]:
        if self.start_delay_cycles:
            yield self.start_delay_cycles * self.clock_period
        self.stats.started_at = self.port._interconnect.sim_now()
        wall_start = _wallclock.perf_counter()
        try:
            self.stats.result = yield from self.task(self.context)
        except Exception as exc:
            self.stats.failed = True
            self.stats.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.stats.host_seconds = _wallclock.perf_counter() - wall_start
            self.stats.finished_at = self.port._interconnect.sim_now()
            self.stats.compute_cycles = self.context.compute_cycles
            self.stats.api_calls = sum(api.calls for api in self.context._apis)

    # -- reporting ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the task program has run to completion."""
        return self.stats.finished

    def elapsed_cycles(self) -> Optional[int]:
        """Simulated cycles between task start and completion."""
        if self.stats.finished_at is None:
            return None
        return (self.stats.finished_at - self.stats.started_at) // self.clock_period

    def report(self) -> dict:
        """Summary dictionary used by platform reports."""
        return {
            "name": self.name,
            "pe_id": self.port.master_id,
            "finished": self.finished,
            "failed": self.stats.failed,
            "error": self.stats.error,
            "elapsed_cycles": self.elapsed_cycles(),
            "compute_cycles": self.stats.compute_cycles,
            "api_calls": self.stats.api_calls,
            "host_seconds": self.stats.host_seconds,
        }
