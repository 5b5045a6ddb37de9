"""Interrupt controller with per-PE lines, masking and software doorbells.

The controller is a :class:`~repro.dev.peripheral.RegisterFilePeripheral`
with up to 32 interrupt lines shared by every target processing element.
Lines are **edge** sources by default — ``raise_irq`` latches the pending
bit until a target acknowledges it — and can be switched to **level**
semantics (``configure_level`` + ``set_level``), where the pending bit
follows the wire and an acknowledge only clears it once the line drops.

Delivery rides the kernel fast path: each target PE owns one persistent
:class:`~repro.kernel.Event` created at elaboration.  ``IrqClient.wait``
yields that same event object on every blocking wait, so interrupt-driven
software allocates nothing per wait (the PR-2 waiter-token mechanism keeps
stale wakeups out).  Raising, masking and acknowledging are plain integer
mask operations.

Register map (word offsets)::

    0  PENDING  R: effective pending mask   W: software raise (W1S doorbell)
    1  ACK      W: acknowledge (W1C; level lines re-pend while high)
    2  LEVEL    R: current level-source wire state
    3  (reserved)
    4+ ENABLE   R/W: per-PE enable mask, one register per target PE

The ``PENDING`` write path is the doorbell used for inter-processor
interrupts: any master (a PE, a DMA engine) can raise a line with one bus
write, which is what the ``producer_consumer_irq`` workload builds on.

Instrumentation sees the controller through three points of the
platform's :class:`~repro.kernel.probes.Probes` bus: ``irq_raise`` (every
edge or rising level, from whichever process raised it), ``irq_wait``
(a PE starts a blocking wait) and ``irq_claim`` (the wait returns a
claimed mask).
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Union

from ..kernel import Event, Module, Probes
from .config import MAX_IRQ_LINES
from .peripheral import RegisterFilePeripheral

REG_PENDING = 0
REG_ACK = 1
REG_LEVEL = 2
REG_ENABLE_BASE = 4

#: Accepted ``lines`` arguments: one line number or an iterable of them.
LinesArg = Union[int, Iterable[int]]


def lines_to_mask(lines: LinesArg, limit: int = MAX_IRQ_LINES) -> int:
    """Fold line numbers into a mask, validating the range."""
    if isinstance(lines, int):
        lines = (lines,)
    mask = 0
    for line in lines:
        if not 0 <= line < limit:
            raise ValueError(f"interrupt line {line} outside 0..{limit - 1}")
        mask |= 1 << line
    return mask


class InterruptController(RegisterFilePeripheral):
    """Shared interrupt controller for every PE of a platform."""

    kind = "irq_controller"

    def __init__(
        self,
        name: str,
        num_pes: int,
        lines: int = MAX_IRQ_LINES,
        parent: Optional[Module] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        if not 1 <= lines <= MAX_IRQ_LINES:
            raise ValueError(f"lines must be 1..{MAX_IRQ_LINES}, got {lines}")
        super().__init__(name, REG_ENABLE_BASE + num_pes, parent=parent)
        self.probes = probes if probes is not None else Probes()
        self.num_pes = num_pes
        self.lines = lines
        self.line_mask = (1 << lines) - 1
        #: Latched (edge) pending bits, cleared by acknowledge.
        self._latched = 0
        #: Current wire state of level-configured lines.
        self._level_state = 0
        #: Which lines follow level semantics (the rest latch edges).
        self._level_lines = 0
        #: Per-PE enable masks (mirrors the ENABLE registers).
        self.enable = [0] * num_pes
        #: One persistent wakeup event per target PE (fast-path delivery).
        self._pe_events = [Event(f"irq_pe{pe}") for pe in range(num_pes)]
        for event in self._pe_events:
            self.add_event(event)
        #: Counters for reports.
        self.raises = 0
        self.soft_raises = 0
        self.acks = 0
        self.wakeups = 0

    # -- hardware-side wires -----------------------------------------------------
    @property
    def pending_mask(self) -> int:
        """Effective pending mask: latched edges plus asserted level lines."""
        return (self._latched | (self._level_state & self._level_lines)) \
            & self.line_mask

    def configure_level(self, lines: LinesArg) -> None:
        """Switch ``lines`` to level semantics (default is edge)."""
        self._level_lines |= lines_to_mask(lines, self.lines)

    def raise_irq(self, lines: LinesArg) -> None:
        """Latch an edge on ``lines`` and wake any enabled waiting PE."""
        mask = lines_to_mask(lines, self.lines)
        self._latched |= mask
        self._raised(mask)

    def set_level(self, line: int, asserted: bool) -> None:
        """Drive the wire of a level-configured ``line``."""
        mask = lines_to_mask(line, self.lines)
        if asserted:
            rising = mask & ~self._level_state
            self._level_state |= mask
            if rising:
                self._raised(mask)
        else:
            self._level_state &= ~mask

    def ack_mask(self, mask: int) -> None:
        """Acknowledge pending ``mask`` bits (level lines re-pend while high)."""
        self.acks += 1
        self._latched &= ~mask

    def _raised(self, mask: int) -> None:
        """Count one raise, emit ``irq_raise`` and wake the enabled targets."""
        self.raises += 1
        probe = self.probes.irq_raise
        if probe is not None:
            probe(mask)
        for pe, enabled in enumerate(self.enable):
            if enabled & mask:
                event = self._pe_events[pe]
                # Unbound outside a simulation (direct wire tests): the
                # latch still records the raise, there is no one to wake.
                if event._sim is not None:
                    event.notify()

    # -- software-side register semantics ------------------------------------------
    def on_read(self, index: int, value: int) -> int:
        if index == REG_PENDING:
            return self.pending_mask
        if index == REG_LEVEL:
            return self._level_state
        if index >= REG_ENABLE_BASE:
            return self.enable[index - REG_ENABLE_BASE]
        return value

    def on_write(self, index: int, value: int) -> None:
        if index == REG_PENDING:
            # W1S software doorbell: any master raises lines with one write.
            self.soft_raises += 1
            self.raise_irq([line for line in range(self.lines)
                            if value & (1 << line)])
        elif index == REG_ACK:
            self.ack_mask(value)
        elif index >= REG_ENABLE_BASE:
            self.set_enable(index - REG_ENABLE_BASE, value)
        else:
            self._regs[index] = value

    def set_enable(self, pe: int, mask: int) -> None:
        """Replace the enable mask of target ``pe``."""
        self.enable[pe] = mask & self.line_mask
        event = self._pe_events[pe]
        if self.pending_mask & self.enable[pe] and event._sim is not None:
            event.notify()

    # -- reporting ---------------------------------------------------------------------
    def report(self) -> dict:
        data = super().report()
        data.update(
            lines=self.lines,
            pending=self.pending_mask,
            raises=self.raises,
            soft_raises=self.soft_raises,
            acks=self.acks,
            wakeups=self.wakeups,
        )
        return data


class IrqClient:
    """One PE's view of the interrupt controller (the CPU-side IRQ pins).

    Enabling/masking and waiting are direct wire operations (no bus
    traffic), exactly like a core's local interrupt mask registers.
    Blocking waits always yield the PE's persistent controller event —
    never a freshly allocated one.
    """

    __slots__ = ("controller", "pe_id", "_event")

    def __init__(self, controller: InterruptController, pe_id: int) -> None:
        if not 0 <= pe_id < controller.num_pes:
            raise ValueError(f"pe_id {pe_id} outside the controller's targets")
        self.controller = controller
        self.pe_id = pe_id
        self._event = controller._pe_events[pe_id]

    @property
    def enabled_mask(self) -> int:
        return self.controller.enable[self.pe_id]

    def enable(self, lines: LinesArg) -> None:
        """Unmask ``lines`` for this PE."""
        controller = self.controller
        controller.set_enable(
            self.pe_id,
            controller.enable[self.pe_id]
            | lines_to_mask(lines, controller.lines),
        )

    def disable(self, lines: LinesArg) -> None:
        """Mask ``lines`` for this PE."""
        controller = self.controller
        controller.set_enable(
            self.pe_id,
            controller.enable[self.pe_id]
            & ~lines_to_mask(lines, controller.lines),
        )

    def pending(self, lines: Optional[LinesArg] = None) -> int:
        """Pending-and-enabled mask, optionally restricted to ``lines``."""
        mask = (lines_to_mask(lines, self.controller.lines)
                if lines is not None else ~0)
        return self.controller.pending_mask & self.enabled_mask & mask

    def wait(self, lines: Optional[LinesArg] = None
             ) -> Generator[object, None, int]:
        """Block until an enabled line in ``lines`` pends; claim and return it.

        Returns the claimed mask after acknowledging it.  ``lines=None``
        waits for any enabled line.  Waiting for a masked line would never
        wake, so at least one requested line must be enabled.
        """
        controller = self.controller
        mask = (lines_to_mask(lines, controller.lines)
                if lines is not None else controller.line_mask)
        if not mask & self.enabled_mask:
            raise ValueError(
                f"pe{self.pe_id} waits on masked interrupt lines "
                f"{mask:#x} (enabled {self.enabled_mask:#x})"
            )
        probe = controller.probes.irq_wait
        if probe is not None:
            probe(self.pe_id)
        while True:
            hit = controller.pending_mask & self.enabled_mask & mask
            if hit:
                probe = controller.probes.irq_claim
                if probe is not None:
                    probe(self.pe_id, hit)
                controller.ack_mask(hit)
                controller.wakeups += 1
                return hit
            yield self._event
