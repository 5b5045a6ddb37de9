"""Task context: the software-visible view of a processing element.

A *task* is a Python generator function ``task(ctx)`` representing the
embedded program a processing element runs.  Through the :class:`TaskContext`
the task can:

* reach every dynamic shared memory of the platform through the high-level
  API (``ctx.smem(i)``), exactly like the paper's ISS software does through
  the C-formalism API;
* account for local computation with ``yield from ctx.compute(cycles)``;
* synchronise with other processing elements using shared-memory flags
  (spin-wait with a configurable polling back-off);
* on platforms with devices (:mod:`repro.dev`), block on interrupt lines
  (``ctx.enable_irq`` / ``yield from ctx.wait_irq(...)``) and ring the
  interrupt controller's software doorbell (``ctx.raise_irq``) — the
  interrupt-driven alternative to polling.

Everything that touches the interconnect must be driven with ``yield from``
so that the kernel can interleave the processing elements cycle-accurately.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generator, List, Optional

from ..kernel import Probes
from ..wrapper.api import SharedMemoryAPI
from .instruction_costs import ARM7_LIKE, CostModel


class TaskError(Exception):
    """Raised when a task misuses its context (bad memory index, etc.)."""


class TaskContext:
    """Execution context handed to a task generator."""

    def __init__(
        self,
        pe_id: int,
        apis: List[SharedMemoryAPI],
        clock_period: int,
        cost_model: CostModel = ARM7_LIKE,
        poll_interval_cycles: int = 8,
        name: str = "",
        port=None,
        irq=None,
        devices=None,
        probes: Optional[Probes] = None,
    ) -> None:
        if not apis:
            raise TaskError("a task context needs at least one shared memory API")
        self.pe_id = pe_id
        self.name = name or f"pe{pe_id}"
        self._apis = apis
        self.clock_period = clock_period
        self.cost_model = cost_model
        #: The PE's master port (device register programming goes through
        #: it; ``None`` only for API stand-ins without a fabric port).
        self.port = port if port is not None else getattr(apis[0], "port", None)
        #: This PE's interrupt-controller client (``None`` without devices).
        self.irq = irq
        #: Resolved :class:`~repro.dev.config.DeviceLayout` of the platform
        #: (``None`` without devices) — how drivers find register windows.
        self.devices = devices
        self.poll_interval_cycles = max(1, poll_interval_cycles)
        #: The poll back-off, in time units.
        self._poll_wait = self.poll_interval_cycles * clock_period
        #: Simulated cycles charged for local computation so far.
        self.compute_cycles = 0
        #: Number of compute() calls (handy to sanity-check annotations).
        self.compute_calls = 0
        #: Free-form log a task may append progress records to.
        self.log: List[str] = []
        #: The platform's probe bus; :meth:`span` emits ``task_span``.
        self.probes = probes if probes is not None else Probes()

    # -- shared memory access ------------------------------------------------------
    def smem(self, index: int = 0) -> SharedMemoryAPI:
        """The API bound to shared memory ``index`` (in platform order)."""
        try:
            return self._apis[index]
        except IndexError:
            raise TaskError(
                f"{self.name}: no shared memory with index {index} "
                f"(platform has {len(self._apis)})"
            ) from None

    @property
    def memory_count(self) -> int:
        """Number of dynamic shared memories visible to this PE."""
        return len(self._apis)

    def memory_for(self, key: int) -> SharedMemoryAPI:
        """Deterministically spread ``key`` over the available memories."""
        return self._apis[key % len(self._apis)]

    # -- computation accounting -------------------------------------------------------
    def compute(self, cycles: int) -> Generator[object, None, None]:
        """Advance simulated time by ``cycles`` of local computation."""
        if cycles < 0:
            raise TaskError("compute cycles must be >= 0")
        self.compute_calls += 1
        if cycles == 0:
            return
        self.compute_cycles += cycles
        yield cycles * self.clock_period

    def compute_ops(self, **op_mix: int) -> Generator[object, None, None]:
        """Charge a mix of abstract operations (see :class:`CostModel`)."""
        yield from self.compute(self.cost_model.ops(**op_mix))

    # -- synchronisation helpers ---------------------------------------------------------
    def set_flag(self, vptr: int, offset: int = 0, value: int = 1,
                 memory: int = 0) -> Generator[object, None, None]:
        """Write a synchronisation word into a shared allocation."""
        yield from self.smem(memory).write(vptr, value, offset=offset)

    def wait_flag(self, vptr: int, offset: int = 0, expected: int = 1,
                  memory: int = 0, max_polls: Optional[int] = None
                  ) -> Generator[object, None, int]:
        """Spin until a shared word equals ``expected``; returns the poll count."""
        polls = 0
        while True:
            value = yield from self.smem(memory).read(vptr, offset=offset)
            polls += 1
            if value == expected:
                return polls
            if max_polls is not None and polls >= max_polls:
                raise TaskError(
                    f"{self.name}: flag at {vptr:#x}[{offset}] never became "
                    f"{expected} after {polls} polls"
                )
            yield self._poll_wait

    def barrier(self, vptr: int, participants: int, my_index: int,
                memory: int = 0) -> Generator[object, None, None]:
        """A simple sense-less barrier built on a shared counter word.

        Each participant atomically-ish increments the counter guarded by the
        reservation bit, then waits until it reaches ``participants``.
        """
        api = self.smem(memory)
        while True:
            acquired = yield from api.try_reserve(vptr)
            if acquired:
                break
            yield self._poll_wait
        count = yield from api.read(vptr)
        yield from api.write(vptr, count + 1)
        yield from api.release(vptr)
        yield from self.wait_flag(vptr, expected=participants, memory=memory)

    # -- interrupts (platforms with a repro.dev interrupt controller) --------------------
    def _irq_client(self):
        if self.irq is None:
            raise TaskError(
                f"{self.name}: the platform has no interrupt controller "
                f"(declare devices on the PlatformConfig)"
            )
        return self.irq

    def enable_irq(self, lines) -> None:
        """Unmask interrupt ``lines`` (an int or iterable) for this PE."""
        self._irq_client().enable(lines)

    def disable_irq(self, lines) -> None:
        """Mask interrupt ``lines`` for this PE."""
        self._irq_client().disable(lines)

    def wait_irq(self, lines=None) -> Generator[object, None, int]:
        """Block until an enabled line pends; acknowledge and return the mask.

        Rides the kernel fast path: every wait yields this PE's one
        persistent controller event — no per-wait allocation.
        """
        return (yield from self._irq_client().wait(lines))

    def raise_irq(self, lines) -> Generator[object, None, None]:
        """Ring the controller's software doorbell over the bus (an IPI)."""
        client = self._irq_client()
        from ..dev.irq import REG_PENDING, lines_to_mask

        mask = lines_to_mask(lines, client.controller.lines)
        yield from self.port.write(
            self.devices.controller.base + 4 * REG_PENDING, mask,
            tag="irq.raise",
        )

    def note(self, message: str) -> None:
        """Append a progress note to the task log (no simulated time)."""
        self.log.append(message)

    @contextmanager
    def span(self, name: str):
        """Annotate a workload phase on the PE's timeline track.

        Usage (wrapping any mix of ``yield from`` protocol calls and
        ``compute`` bursts)::

            with ctx.span("lpc"):
                yield from ctx.compute(1200)

        The span covers the simulated time the block consumed and lands
        in the trace as a ``task``-category event.  With no ``task_span``
        subscriber this is a zero-cost no-op — annotations never change
        the simulation.
        """
        probe = self.probes.task_span
        if probe is None:
            yield
            return
        now = self.port._interconnect.sim_now
        began = now()
        try:
            yield
        finally:
            probe(self, name, began, now())


#: Type of a task body: a generator function taking the context.
TaskFunction = Callable[[TaskContext], Generator[object, None, object]]
