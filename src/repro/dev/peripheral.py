"""Memory-mapped register-file peripheral base class.

Every ``repro.dev`` device (interrupt controller, DMA engine, timer) is a
:class:`RegisterFilePeripheral`: a kernel :class:`~repro.kernel.Module` that
is also a fabric :class:`~repro.fabric.BusSlave`, exposing a decoded window
of 32-bit registers behind ``Fabric.attach_slave``.  Subclasses customise
behaviour through two side-effect hooks:

* :meth:`on_read` — observe / transform the value a bus read returns
  (e.g. a pending-mask register computed from latched state);
* :meth:`on_write` — apply a bus write (e.g. a ``GO`` bit kicking a DMA
  transfer, a write-one-to-clear acknowledge register).

Scalar and burst transactions both decode into per-word hook calls, so a
driver can program a whole channel with one burst write.  Every hook of a
burst runs when ``serve`` is called, at the first cycle of its window (one
cycle per word); the transfer completes when the window ends.  Accesses outside
the register file or misaligned answer ``SLAVE_ERROR`` without raising —
devices must never crash the simulation on a bad software access.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..fabric import BusOp, BusRequest, BusResponse, BusSlave, ResponseStatus
from ..fabric.transaction import WORD_SIZE
from ..kernel import Module


class RegisterFilePeripheral(Module, BusSlave):
    """A bus-attached device built from a window of word registers."""

    #: Short device-kind tag surfaced in reports.
    kind = "peripheral"

    def __init__(
        self,
        name: str,
        num_regs: int,
        parent: Optional[Module] = None,
    ) -> None:
        Module.__init__(self, name, parent)
        if num_regs < 1:
            raise ValueError("a register file needs at least one register")
        self._regs: List[int] = [0] * num_regs
        #: Words read / written over the bus (reports).
        self.reg_reads = 0
        self.reg_writes = 0
        #: Rejected accesses (bad offset, misaligned, bad size).
        self.access_errors = 0

    # -- geometry ----------------------------------------------------------------
    @property
    def num_regs(self) -> int:
        return len(self._regs)

    def window_bytes(self) -> int:
        """Size of the decoded register window in bytes."""
        return len(self._regs) * WORD_SIZE

    # -- side-effect hooks (override in subclasses) --------------------------------
    def on_read(self, index: int, value: int) -> int:
        """Return the value a bus read of register ``index`` observes."""
        return value

    def on_write(self, index: int, value: int) -> None:
        """Apply a bus write of ``value`` to register ``index``."""
        self._regs[index] = value

    # -- direct (non-bus) register access ------------------------------------------
    def read_reg(self, index: int) -> int:
        """Raw backing value of register ``index`` (no hook, no bus)."""
        return self._regs[index]

    def write_reg(self, index: int, value: int) -> None:
        """Set the backing value of register ``index`` (no hook, no bus)."""
        self._regs[index] = value & 0xFFFFFFFF

    # -- BusSlave protocol ------------------------------------------------------------
    def serve(self, request: BusRequest, offset: int
              ) -> Tuple[BusResponse, int]:
        count = max(1, request.word_count)
        if offset % WORD_SIZE or request.size != WORD_SIZE:
            self.access_errors += 1
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), count
        index = offset // WORD_SIZE
        if index + count > len(self._regs):
            self.access_errors += 1
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), count
        if request.op is BusOp.WRITE:
            words = (request.burst_data if request.burst_data is not None
                     else [request.data])
            for position, word in enumerate(words):
                self.on_write(index + position, word & 0xFFFFFFFF)
            self.reg_writes += len(words)
            return BusResponse(), count
        if request.burst_length:
            values = [self.on_read(index + position,
                                   self._regs[index + position]) & 0xFFFFFFFF
                      for position in range(request.burst_length)]
            self.reg_reads += len(values)
            return BusResponse(burst_data=values), count
        self.reg_reads += 1
        return (BusResponse(data=self.on_read(index, self._regs[index])
                            & 0xFFFFFFFF), count)

    # -- reporting ---------------------------------------------------------------------
    def report(self) -> dict:
        """Summary dictionary surfaced in ``SimulationReport.device_reports``."""
        return {
            "name": self.name,
            "kind": self.kind,
            "reg_reads": self.reg_reads,
            "reg_writes": self.reg_writes,
            "access_errors": self.access_errors,
        }
