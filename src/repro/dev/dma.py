"""Memory-to-memory DMA engine: a register-file device that is also a
first-class fabric master.

The engine owns its own ``Fabric.master_port()`` (master id above the PEs)
and moves data between dynamic shared memories by speaking the exact
wrapper protocol the PEs use — burst READ_ARRAY / WRITE_ARRAY command
sequences through each memory's I/O array window, chunked to the engine's
``burst_words``.  That makes its traffic indistinguishable from PE traffic
at every layer below: the arbitration policies grant it like any master,
the per-memory monitors count its transfers, and the MSI ``CoherenceDomain``
snoops its writes (a DMA write invalidates matching L1 lines, superseding
dirty copies, because the engine is an *uncached* master).

One caveat of uncached reads: the coherence domain cannot write back a
PE's dirty line on the engine's behalf, so driver software must flush
source buffers before kicking a transfer.  :meth:`DmaDriver.flush` does
that with the protocol's RESERVE/RELEASE pair, which the L1 uses as a
flush barrier.

Channel register map (word offsets)::

    0   CTRL        W: bit0 GO
    1   STATUS      R: 0 idle, 1 busy, 2 done, 3 error    W: clear to idle
    2   SRC_MEM     R/W: source memory index
    3   SRC_PTR     R/W: source Vptr
    4   SRC_OFF     R/W: source element offset
    5   DST_MEM     R/W: destination memory index
    6   DST_PTR     R/W: destination Vptr
    7   DST_OFF     R/W: destination element offset
    8   COUNT       R/W: elements to copy
    9   WORDS_DONE  R: elements copied of the current/last transfer
    10  IRQ_LINE    R: completion interrupt line
    11  TRANSFERS   R: completed transfers since elaboration

Programming is burst-friendly: ``SRC_MEM..COUNT`` are contiguous, so a
driver programs a whole channel with one burst write and then sets GO.

Each transfer is bracketed by the ``dma_begin`` / ``dma_end`` points of
the platform's :class:`~repro.kernel.probes.Probes` bus.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..fabric import MasterPort
from ..kernel import Event, Module, Probes
from ..wrapper.api import IO_ARRAY_WORDS, SharedMemoryAPI
from .irq import InterruptController
from .peripheral import RegisterFilePeripheral

REG_CTRL = 0
REG_STATUS = 1
REG_SRC_MEM = 2
REG_SRC_PTR = 3
REG_SRC_OFF = 4
REG_DST_MEM = 5
REG_DST_PTR = 6
REG_DST_OFF = 7
REG_COUNT = 8
REG_WORDS_DONE = 9
REG_IRQ_LINE = 10
REG_TRANSFERS = 11
NUM_REGS = 12

#: Number of channel registers a programming burst covers (SRC_MEM..COUNT).
PROGRAM_REGS = REG_COUNT - REG_SRC_MEM + 1

CTRL_GO = 1 << 0

STATUS_IDLE = 0
STATUS_BUSY = 1
STATUS_DONE = 2
STATUS_ERROR = 3


class DmaEngine(RegisterFilePeripheral):
    """A single-channel memory-to-memory DMA engine."""

    kind = "dma"

    def __init__(
        self,
        name: str,
        port: MasterPort,
        memory_apis: List[SharedMemoryAPI],
        controller: InterruptController,
        irq_line: int,
        burst_words: int = 64,
        parent: Optional[Module] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        super().__init__(name, NUM_REGS, parent=parent)
        self.probes = probes if probes is not None else Probes()
        if burst_words < 1:
            raise ValueError("burst_words must be >= 1")
        self.port = port
        #: One protocol client per dynamic memory, bound to the engine's
        #: own master port (``raise_on_error=False``: bad programming must
        #: end in STATUS_ERROR, never crash the simulation).
        self.memory_apis = memory_apis
        self.controller = controller
        self.irq_line = irq_line
        self.burst_words = min(burst_words, IO_ARRAY_WORDS)
        self._regs[REG_IRQ_LINE] = irq_line
        #: Totals over the run (reports).
        self.words_copied = 0
        self.transfers = 0
        self.errors = 0
        self._go_event = Event(f"{name}_go")
        self.add_event(self._go_event)
        self.add_process(self._run, name="engine")

    # -- register semantics -------------------------------------------------------
    @property
    def status(self) -> int:
        return self._regs[REG_STATUS]

    def on_write(self, index: int, value: int) -> None:
        if index == REG_CTRL:
            if value & CTRL_GO and self.status != STATUS_BUSY:
                self._regs[REG_STATUS] = STATUS_BUSY
                self._regs[REG_WORDS_DONE] = 0
                self._go_event.notify()
            return
        if index == REG_STATUS:
            if self.status != STATUS_BUSY:
                self._regs[REG_STATUS] = STATUS_IDLE
            return
        if index in (REG_WORDS_DONE, REG_IRQ_LINE, REG_TRANSFERS):
            return  # read-only
        self._regs[index] = value

    # -- the engine ----------------------------------------------------------------
    def _api(self, index: int) -> Optional[SharedMemoryAPI]:
        if 0 <= index < len(self.memory_apis):
            return self.memory_apis[index]
        return None

    def _run(self) -> Generator[object, None, None]:
        while True:
            if self.status != STATUS_BUSY:
                yield self._go_event
                continue
            probe = self.probes.dma_begin
            if probe is not None:
                probe(self, self._regs[REG_COUNT])
            ok = yield from self._transfer()
            probe = self.probes.dma_end
            if probe is not None:
                probe(self, ok, self._regs[REG_WORDS_DONE])
            if ok:
                self._regs[REG_STATUS] = STATUS_DONE
                self.transfers += 1
                self._regs[REG_TRANSFERS] = self.transfers
            else:
                self._regs[REG_STATUS] = STATUS_ERROR
                self.errors += 1
            # Completion and error both interrupt; software reads STATUS.
            self.controller.raise_irq(self.irq_line)

    def _transfer(self) -> Generator[object, None, bool]:
        source = self._api(self._regs[REG_SRC_MEM])
        destination = self._api(self._regs[REG_DST_MEM])
        count = self._regs[REG_COUNT]
        if source is None or destination is None or count < 1:
            return False
        src_ptr = self._regs[REG_SRC_PTR]
        dst_ptr = self._regs[REG_DST_PTR]
        src_off = self._regs[REG_SRC_OFF]
        dst_off = self._regs[REG_DST_OFF]
        copied = 0
        while copied < count:
            chunk = min(self.burst_words, count - copied)
            data = yield from source.read_array(src_ptr, chunk,
                                                offset=src_off + copied)
            if data is None:
                return False
            ok = yield from destination.write_array(dst_ptr, data,
                                                    offset=dst_off + copied)
            if not ok:
                return False
            copied += chunk
            self._regs[REG_WORDS_DONE] = copied
            self.words_copied += chunk
        return True

    # -- reporting ---------------------------------------------------------------------
    def report(self) -> dict:
        data = super().report()
        data.update(
            master_id=self.port.master_id,
            irq_line=self.irq_line,
            burst_words=self.burst_words,
            transfers=self.transfers,
            words_copied=self.words_copied,
            errors=self.errors,
            status=self.status,
        )
        return data


class DmaDriver:
    """The software side: programs a DMA engine from a task over the bus.

    Built on the task context's raw port and device layout, so it works on
    every topology and with caches enabled (device-window accesses pass
    through an L1 untouched).  The completion path is interrupt-driven via
    ``ctx.wait_irq``.
    """

    def __init__(self, ctx, engine_index: int = 0) -> None:
        if ctx.devices is None or not ctx.devices.dmas:
            raise ValueError(f"{ctx.name}: the platform has no DMA engine")
        slot = ctx.devices.dma(engine_index)
        self.ctx = ctx
        self.base = slot.base
        self.irq_line = slot.irq_line
        ctx.enable_irq(self.irq_line)

    # -- raw register access ------------------------------------------------------
    def read_reg(self, index: int) -> Generator[object, None, int]:
        response = yield from self.ctx.port.read(self.base + 4 * index,
                                                 tag="dma.reg")
        return response.data

    def write_reg(self, index: int, value: int
                  ) -> Generator[object, None, None]:
        yield from self.ctx.port.write(self.base + 4 * index,
                                       value & 0xFFFFFFFF, tag="dma.reg")

    # -- channel operations ---------------------------------------------------------
    def start(self, src_mem: int, src_ptr: int, dst_mem: int, dst_ptr: int,
              count: int, src_off: int = 0, dst_off: int = 0
              ) -> Generator[object, None, None]:
        """Program the channel (one burst write) and kick the transfer."""
        yield from self.ctx.port.burst_write(
            self.base + 4 * REG_SRC_MEM,
            [src_mem, src_ptr, src_off, dst_mem, dst_ptr, dst_off, count],
            tag="dma.program",
        )
        yield from self.write_reg(REG_CTRL, CTRL_GO)

    def wait(self) -> Generator[object, None, bool]:
        """Block on the completion IRQ; returns True when the copy succeeded."""
        yield from self.ctx.wait_irq(self.irq_line)
        status = yield from self.read_reg(REG_STATUS)
        yield from self.write_reg(REG_STATUS, 0)
        return status == STATUS_DONE

    def copy(self, src_mem: int, src_ptr: int, dst_mem: int, dst_ptr: int,
             count: int, src_off: int = 0, dst_off: int = 0
             ) -> Generator[object, None, bool]:
        """Synchronous start + wait."""
        yield from self.start(src_mem, src_ptr, dst_mem, dst_ptr, count,
                              src_off=src_off, dst_off=dst_off)
        return (yield from self.wait())

    def flush(self, api: SharedMemoryAPI, vptr: int
              ) -> Generator[object, None, None]:
        """Write back any dirty cached data of ``vptr`` before a transfer.

        The protocol's RESERVE is an L1 flush barrier (and RELEASE flushes
        the reserver's own dirty lines), so this makes memory current for
        the engine's uncached reads.  Harmless without caches.
        """
        yield from api.reserve(vptr)
        yield from api.release(vptr)
