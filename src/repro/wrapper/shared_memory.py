"""The dynamic shared memory wrapper — the paper's contribution.

:class:`SharedMemoryWrapper` is a bus slave exposing the dynamic-memory
protocol (the same register window as the fully-modelled baseline) while
storing the application data in *host* memory:

* ALLOC → host ``calloc`` through the translator; the new (Vptr, Hptr, type,
  dim, reservation bit) row is added to the pointer table; the Vptr is
  returned to the master.
* WRITE/READ → pointer-table lookup (with pointer-arithmetic resolution for
  interior pointers), then a single native host access through the
  translator.
* WRITE_ARRAY/READ_ARRAY → the I/O arrays stage the words, the translator
  moves the whole block with one host operation.
* FREE → table entry removed (table re-compacted), host ``free`` issued,
  used-bytes counter decremented.
* RESERVE/RELEASE → the reservation bit provides the paper's data-coherence
  semaphore.

Timing comes from the cycle-true FSM (:class:`~repro.wrapper.wrapper_fsm.WrapperFsm`)
parameterised by :class:`~repro.wrapper.delays.WrapperDelays`; the host work
per operation grows only with the pointer table's costs (exact and interior
lookup O(log live), byte accounting O(1), removal O(log live) plus list
compaction), which is what makes the model fast on the host.
"""

from __future__ import annotations

from typing import List, Optional

from ..memory.dynamic_base import DynamicMemorySlave
from ..memory.host_memory import HostMemory
from ..memory.protocol import (
    ARRAY_OPCODES,
    DATA_TYPE_SIZES,
    Endianness,
    MemCommand,
    MemOpcode,
    MemResult,
    MemStatus,
)
from .delays import WrapperDelays
from .errors import PointerTableError, TranslationError
from .pointer_table import PointerTable
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

    def live_count(self) -> int:
        return self.table.live_count()

    def used_bytes(self) -> int:
        return self.table.used_bytes()

    @property
    def capacity_bytes(self) -> Optional[int]:
        """The configured simulated capacity (None = unlimited)."""
        return self.table.capacity_bytes

    # -- functional behaviour --------------------------------------------------------------
    def _execute(self, command: MemCommand, io_words: List[int],
                 master_id: int) -> MemResult:
        opcode = command.opcode
        if opcode == MemOpcode.ALLOC:
            return self._op_alloc(command)
        if opcode == MemOpcode.FREE:
            return self._op_free(command, master_id)
        if opcode == MemOpcode.WRITE:
            return self._op_write(command, master_id)
        if opcode == MemOpcode.READ:
            return self._op_read(command)
        if opcode == MemOpcode.WRITE_ARRAY:
            return self._op_write_array(command, io_words, master_id)
        if opcode == MemOpcode.READ_ARRAY:
            return self._op_read_array(command)
        if opcode == MemOpcode.RESERVE:
            return self._op_reserve(command, master_id)
        if opcode == MemOpcode.RELEASE:
            return self._op_release(command, master_id)
        if opcode == MemOpcode.QUERY:
            return self._op_query(command)
        if opcode == MemOpcode.NOP:
            return MemResult(MemStatus.OK)
        return MemResult(MemStatus.ERR_BAD_OPCODE)

    # -- operations ---------------------------------------------------------------------------
    def _op_alloc(self, command: MemCommand) -> MemResult:
        if command.dim <= 0:
            return MemResult(MemStatus.ERR_MALFORMED)
        size_bytes = command.dim * DATA_TYPE_SIZES[command.data_type]
        if not self.table.would_fit(size_bytes):
            return MemResult(MemStatus.ERR_FULL)
        try:
            block = self.translator.host_calloc(command.dim, command.data_type)
        except TranslationError:
            return MemResult(MemStatus.ERR_FULL)
        entry = self.table.insert(block, command.dim, command.data_type)
        return MemResult(MemStatus.OK, value=entry.vptr)

    def _op_free(self, command: MemCommand, master_id: int) -> MemResult:
        try:
            entry = self.table.lookup(command.vptr)
        except PointerTableError:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        if not self.table.check_access(entry, master_id):
            return MemResult(MemStatus.ERR_RESERVED)
        self.table.remove(command.vptr)
        self.translator.host_free(entry.hptr)
        return MemResult(MemStatus.OK)

    def _resolve_element(self, command: MemCommand):
        """Resolve vptr+offset to (entry, byte offset); MemResult on error."""
        resolved = self.table.try_resolve(command.vptr)
        if resolved is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        entry, byte_offset = resolved
        element_index = byte_offset // entry.element_size + command.offset
        if element_index < 0 or element_index >= entry.dim:
            return MemResult(MemStatus.ERR_OUT_OF_RANGE)
        return entry, element_index * entry.element_size

    def _op_write(self, command: MemCommand, master_id: int) -> MemResult:
        resolved = self._resolve_element(command)
        if isinstance(resolved, MemResult):
            return resolved
        entry, byte_offset = resolved
        if not self.table.check_access(entry, master_id):
            return MemResult(MemStatus.ERR_RESERVED)
        self.translator.store_element(entry.hptr, byte_offset, command.data,
                                      entry.data_type)
        return MemResult(MemStatus.OK)

    def _op_read(self, command: MemCommand) -> MemResult:
        resolved = self._resolve_element(command)
        if isinstance(resolved, MemResult):
            return resolved
        entry, byte_offset = resolved
        value = self.translator.load_element(entry.hptr, byte_offset, entry.data_type)
        return MemResult(MemStatus.OK, value=value & 0xFFFFFFFF)

    def _array_bounds(self, command: MemCommand):
        resolved = self.table.try_resolve(command.vptr)
        if resolved is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        entry, byte_offset = resolved
        start = byte_offset // entry.element_size + command.offset
        if command.dim < 0 or start < 0 or start + command.dim > entry.dim:
            return MemResult(MemStatus.ERR_OUT_OF_RANGE)
        return entry, start * entry.element_size

    def _op_write_array(self, command: MemCommand, io_words: List[int],
                        master_id: int) -> MemResult:
        bounds = self._array_bounds(command)
        if isinstance(bounds, MemResult):
            return bounds
        entry, byte_offset = bounds
        if not self.table.check_access(entry, master_id):
            return MemResult(MemStatus.ERR_RESERVED)
        self.translator.store_array(entry.hptr, byte_offset,
                                    io_words[:command.dim], entry.data_type)
        return MemResult(MemStatus.OK, value=command.dim)

    def _op_read_array(self, command: MemCommand) -> MemResult:
        bounds = self._array_bounds(command)
        if isinstance(bounds, MemResult):
            return bounds
        entry, byte_offset = bounds
        words = self.translator.load_array(entry.hptr, byte_offset, command.dim,
                                           entry.data_type)
        return MemResult(MemStatus.OK, value=command.dim, burst=words)

    def _op_reserve(self, command: MemCommand, master_id: int) -> MemResult:
        try:
            self.table.reserve(command.vptr, master_id)
        except PointerTableError:
            if self.table.try_resolve(command.vptr) is None:
                return MemResult(MemStatus.ERR_INVALID_PTR)
            return MemResult(MemStatus.ERR_RESERVED)
        return MemResult(MemStatus.OK)

    def _op_release(self, command: MemCommand, master_id: int) -> MemResult:
        try:
            self.table.release(command.vptr, master_id)
        except PointerTableError:
            if self.table.try_resolve(command.vptr) is None:
                return MemResult(MemStatus.ERR_INVALID_PTR)
            return MemResult(MemStatus.ERR_RESERVED)
        return MemResult(MemStatus.OK)

    def _op_query(self, command: MemCommand) -> MemResult:
        try:
            entry = self.table.lookup(command.vptr)
        except PointerTableError:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        return MemResult(MemStatus.OK, value=entry.size_bytes)

    # -- timing ------------------------------------------------------------------------------------
    def _cycles_for(self, command: MemCommand, result: MemResult) -> int:
        words = byte_count = 0
        if command.opcode == MemOpcode.ALLOC:
            byte_count = command.dim * DATA_TYPE_SIZES[command.data_type]
        elif command.opcode in ARRAY_OPCODES:
            byte_count = command.dim * 4
            # Only an array command that completed moved any words.
            if result.ok:
                words = command.dim
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
            "capacity_bytes": self.capacity_bytes,
            "total_allocations": self.table.total_allocations,
            "total_frees": self.table.total_frees,
            "peak_used_bytes": self.table.peak_used_bytes,
            "fsm_cycles": self.fsm.cycles,
            "fsm_occupancy": self.fsm.occupancy(),
            "op_counts": {op.name: count for op, count in self.op_counts.items()},
            "host_stats": self.host.stats.as_dict(),
            "translator_stats": {
                "host_allocs": self.translator.stats.host_allocs,
                "host_frees": self.translator.stats.host_frees,
                "element_reads": self.translator.stats.element_reads,
                "element_writes": self.translator.stats.element_writes,
                "array_elements_moved": self.translator.stats.array_elements_moved,
            },
        }
