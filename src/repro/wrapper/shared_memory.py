"""The dynamic shared memory wrapper — the paper's contribution.

:class:`SharedMemoryWrapper` is a bus slave answering the dynamic-memory
protocol — whose rules live once in
:meth:`~repro.memory.dynamic_base.DynamicMemorySlave._execute`, shared with
the fully-modelled baseline — while storing the application data in *host*
memory.  It supplies only storage and timing:

* rows are the pointer table's (Vptr, Hptr, type, dim, reservation bit)
  entries, and the table is the memory's
  :class:`~repro.memory.dynamic_base.AllocationIndex`, through which exact
  and interior pointers resolve;
* ALLOC → host ``calloc`` through the translator plus a new table row, FREE
  → row removed (table re-compacted) and host ``free`` issued;
* READ/WRITE → one native host access through the translator,
  WRITE_ARRAY/READ_ARRAY → the whole I/O-array block in one host operation.

Timing comes from the cycle-true FSM (:class:`~repro.wrapper.wrapper_fsm.WrapperFsm`)
parameterised by :class:`~repro.wrapper.delays.WrapperDelays`; the host work
per operation grows only with the pointer table's costs (exact and interior
lookup O(log live), byte accounting O(1), removal O(log live) plus list
compaction), which is what makes the model fast on the host.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

from ..memory.dynamic_base import DynamicMemorySlave
from ..memory.host_memory import HostMemory
from ..memory.protocol import (
    ARRAY_OPCODES,
    DATA_TYPE_SIZES,
    DataType,
    Endianness,
    MemCommand,
    MemOpcode,
)
from .delays import WrapperDelays
from .errors import TranslationError
from .pointer_table import PointerEntry, PointerTable
from .translator import Translator
from .wrapper_fsm import WrapperFsm


class SharedMemoryWrapper(DynamicMemorySlave):
    """Host-backed dynamic shared memory module.

    Parameters
    ----------
    capacity_bytes:
        Simulated capacity of the shared memory; allocations beyond it are
        refused with ``ERR_FULL`` (the paper's finite-size modelling).
        ``None`` removes the limit.
    sm_addr:
        Identifier checked against the ``sm_addr`` word of every command.
    host:
        The host memory layer; platforms typically share one instance among
        all wrappers so that global host-usage statistics are meaningful.
    delays:
        FSM delay parameters (accuracy knobs).
    endianness:
        Byte order of the simulated architecture.
    base_vptr:
        Virtual address the first allocation receives (lets every shared
        memory own a distinct virtual window in multi-memory platforms).
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        sm_addr: int = 0,
        host: Optional[HostMemory] = None,
        delays: Optional[WrapperDelays] = None,
        endianness: Endianness = Endianness.LITTLE,
        base_vptr: int = 0,
        name: str = "shared_mem",
    ) -> None:
        super().__init__(sm_addr=sm_addr, endianness=endianness, name=name)
        self.host = host if host is not None else HostMemory()
        self.delays = delays if delays is not None else WrapperDelays()
        self.table = PointerTable(capacity_bytes=capacity_bytes, base_vptr=base_vptr)
        self.rows = self.table
        self.translator = Translator(self.host, endianness)
        self.fsm = WrapperFsm(self.delays)

    # -- diagnostics ------------------------------------------------------------------
    def account_idle_cycles(self, cycles: int) -> None:
        """Account ``cycles`` idle-state FSM evaluations at once.

        Cycle-driven platforms batch their idle bookkeeping (see
        :meth:`repro.soc.platform.MemoryIdleTicker.end_of_simulation`); the
        counters end up exactly as if the FSM's idle state had been
        evaluated every cycle.
        """
        self.idle_cycles += cycles
        self.fsm.account_idle(cycles)

    # -- storage ------------------------------------------------------------------------
    def _allocate(self, dim: int, data_type: DataType) -> Optional[PointerEntry]:
        if not self.table.would_fit(dim * DATA_TYPE_SIZES[data_type]):
            return None
        try:
            block = self.translator.host_calloc(dim, data_type)
        except TranslationError:
            return None
        return self.table.insert(block, dim, data_type)

    def _free(self, entry: PointerEntry) -> None:
        self.table.remove(entry.vptr)
        self.translator.host_free(entry.hptr)

    def _load(self, entry: PointerEntry, index: int) -> int:
        return self.translator.load_element(
            entry.hptr, index * entry.element_size, entry.data_type)

    def _store(self, entry: PointerEntry, index: int, value: int) -> None:
        self.translator.store_element(
            entry.hptr, index * entry.element_size, value, entry.data_type)

    def _load_array(self, entry: PointerEntry, index: int,
                    count: int) -> List[int]:
        return self.translator.load_array(
            entry.hptr, index * entry.element_size, count, entry.data_type)

    def _store_array(self, entry: PointerEntry, index: int,
                     words: List[int]) -> None:
        self.translator.store_array(
            entry.hptr, index * entry.element_size, words, entry.data_type)

    # -- timing ------------------------------------------------------------------------------------
    def _cycles_for(self, command: MemCommand, words: int) -> int:
        byte_count = 0
        if command.opcode == MemOpcode.ALLOC:
            byte_count = command.dim * DATA_TYPE_SIZES[command.data_type]
        elif command.opcode in ARRAY_OPCODES:
            byte_count = command.dim * 4
        return self.fsm.run_operation(command.opcode, words=words,
                                      byte_count=byte_count)

    # -- reporting ----------------------------------------------------------------------------------
    def report(self) -> dict:
        """Summary of wrapper activity (used by platform reports and benches)."""
        return {
            "name": self.name,
            "sm_addr": self.sm_addr,
            "live_allocations": self.live_count(),
            "used_bytes": self.used_bytes(),
            "capacity_bytes": self.table.capacity_bytes,
            "total_allocations": self.table.total_allocations,
            "total_frees": self.table.total_frees,
            "peak_used_bytes": self.table.peak_used_bytes,
            "fsm_cycles": self.fsm.cycles,
            "fsm_occupancy": self.fsm.occupancy(),
            "op_counts": {op.name: count for op, count in self.op_counts.items()},
            "host_stats": self.host.stats.as_dict(),
            "translator_stats": asdict(self.translator.stats),
        }
