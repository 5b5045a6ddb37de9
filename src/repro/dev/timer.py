"""Compare-match timer peripheral (one-shot and periodic).

A :class:`TimerPeripheral` counts platform clock cycles toward a compare
value and raises its interrupt line on expiry.  The counting process rides
the kernel's timed fast path — while armed it is a plain ``yield cycles``
loop, so a free-running periodic timer costs one timed step per period and
nothing else.  Software programs it through the register window; a timer
can also be configured to ``auto_start`` at elaboration, which makes the
platform never-idle (the regression target of the ``Platform.run``
``max_time`` clamp tests).

Register map (word offsets)::

    0  CTRL     R/W: bit0 enable, bit1 periodic
    1  COMPARE  R/W: compare value in clock cycles
    2  STATUS   R: expiry count since the last clear   W: clear
    3  IRQ_LINE R: the controller line this timer raises

A CTRL/COMPARE write while a period is already in flight takes effect at
the *next* expiry boundary (the in-flight timed wait is not recalled);
disabling mid-period suppresses the pending expiry.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..kernel import Event, Module
from .irq import InterruptController
from .peripheral import RegisterFilePeripheral

REG_CTRL = 0
REG_COMPARE = 1
REG_STATUS = 2
REG_IRQ_LINE = 3

CTRL_ENABLE = 1 << 0
CTRL_PERIODIC = 1 << 1


class TimerPeripheral(RegisterFilePeripheral):
    """A compare-match timer raising an IRQ on every expiry."""

    kind = "timer"

    def __init__(
        self,
        name: str,
        controller: InterruptController,
        irq_line: int,
        clock_period: int,
        compare_cycles: int = 1000,
        periodic: bool = False,
        auto_start: bool = False,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(name, 4, parent=parent)
        if compare_cycles < 1:
            raise ValueError("compare_cycles must be >= 1")
        self.controller = controller
        self.irq_line = irq_line
        self.clock_period = clock_period
        self._regs[REG_COMPARE] = compare_cycles
        self._regs[REG_IRQ_LINE] = irq_line
        if auto_start:
            self._regs[REG_CTRL] = CTRL_ENABLE | (CTRL_PERIODIC if periodic
                                                  else 0)
        elif periodic:
            self._regs[REG_CTRL] = CTRL_PERIODIC
        #: Total expirations over the run (STATUS is software-clearable).
        self.expirations = 0
        #: Bumped on every CTRL/COMPARE write; invalidates in-flight waits.
        self._generation = 0
        self._program_event = Event(f"{name}_program")
        self.add_event(self._program_event)
        self.add_process(self._run, name="tick")

    # -- register semantics -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._regs[REG_CTRL] & CTRL_ENABLE)

    @property
    def periodic(self) -> bool:
        return bool(self._regs[REG_CTRL] & CTRL_PERIODIC)

    def on_write(self, index: int, value: int) -> None:
        if index == REG_STATUS:
            self._regs[REG_STATUS] = 0
            return
        if index == REG_IRQ_LINE:
            return  # read-only
        self._regs[index] = value
        if index in (REG_CTRL, REG_COMPARE):
            self._generation += 1
            self._program_event.notify()

    # -- counting process ----------------------------------------------------------
    def _run(self) -> Generator[object, None, None]:
        while True:
            if not self.enabled:
                yield self._program_event
                continue
            generation = self._generation
            compare = max(1, self._regs[REG_COMPARE])
            yield compare * self.clock_period
            if self._generation != generation:
                continue  # reprogrammed mid-period: restart with new values
            self.expirations += 1
            self._regs[REG_STATUS] += 1
            self.controller.raise_irq(self.irq_line)
            if not self.periodic:
                self._regs[REG_CTRL] &= ~CTRL_ENABLE

    # -- reporting ---------------------------------------------------------------------
    def report(self) -> dict:
        data = super().report()
        data.update(
            irq_line=self.irq_line,
            compare_cycles=self._regs[REG_COMPARE],
            periodic=self.periodic,
            enabled=self.enabled,
            expirations=self.expirations,
        )
        return data
