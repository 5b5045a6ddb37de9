"""The traditional baseline: a fully-modelled dynamic memory.

This module represents what the paper calls "complex and slow dynamic memory
models": the heap allocator's metadata and the application data both live in
the *simulated* memory table, and every allocator step is charged simulated
cycles (and costs real host work) proportional to the number of header words
it touches.  The module speaks the same protocol as the host-backed wrapper
(:mod:`repro.memory.protocol`), so the software API and workloads run
unchanged on either — which is precisely what experiment E2 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .dynamic_base import (
    REGISTER_ACCESS_CYCLES,
    DynamicMemorySlave,
    decode_array,
    decode_element,
    encode_array,
    encode_element,
)
from .heap import CountingAccessor, FreeListHeap, HeapError
from .latency import LatencyModel
from .protocol import (
    DATA_TYPE_SIZES,
    DataType,
    Endianness,
    MemCommand,
    MemOpcode,
    MemResult,
    MemStatus,
)


@dataclass
class _Allocation:
    """Python-side mirror of one live allocation's typing information."""

    vptr: int
    dim: int
    data_type: DataType
    reserved_by: Optional[int] = None

    @property
    def element_size(self) -> int:
        return DATA_TYPE_SIZES[self.data_type]

    @property
    def size_bytes(self) -> int:
        return self.dim * self.element_size


class ModeledDynamicMemory(DynamicMemorySlave):
    """A dynamic memory whose allocator runs inside the simulated storage.

    Parameters
    ----------
    size_bytes:
        Capacity of the simulated memory table (heap region).
    sm_addr:
        Identifier matched against the ``sm_addr`` field of every command.
    latency:
        Base latency parameters; allocator header accesses are charged on top
        (``header_access_cycles`` each), which is what makes this model slow
        for allocation-heavy workloads.
    """

    def __init__(
        self,
        size_bytes: int,
        sm_addr: int = 0,
        endianness: Endianness = Endianness.LITTLE,
        latency: Optional[LatencyModel] = None,
        header_access_cycles: int = 1,
        name: str = "modeled_dynmem",
    ) -> None:
        super().__init__(sm_addr=sm_addr, endianness=endianness, name=name)
        if size_bytes <= 64:
            raise ValueError("modeled dynamic memory needs more than 64 bytes")
        self.size_bytes = size_bytes
        self.storage = bytearray(size_bytes)
        self.latency_model = latency if latency is not None else LatencyModel()
        self.header_access_cycles = header_access_cycles
        self._accessor = CountingAccessor(self._read_word, self._write_word)
        self.heap = FreeListHeap(self._accessor, base=0, size_bytes=size_bytes)
        self.heap.initialize()
        self._allocations: Dict[int, _Allocation] = {}
        #: (heap accessor reads+writes) of the executed command not yet
        #: charged by :meth:`_cycles_for`.
        self._last_heap_accesses = 0

    # -- word accessor over the simulated storage ----------------------------------
    def _read_word(self, address: int) -> int:
        return int.from_bytes(self.storage[address:address + 4], "little")

    def _write_word(self, address: int, value: int) -> None:
        self.storage[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- diagnostics ----------------------------------------------------------------
    def live_count(self) -> int:
        return len(self._allocations)

    def used_bytes(self) -> int:
        return sum(a.size_bytes for a in self._allocations.values())

    # -- functional behaviour ----------------------------------------------------------
    def _execute(self, command: MemCommand, io_words: List[int],
                 master_id: int) -> MemResult:
        before = self._accessor.accesses
        try:
            result = self._dispatch(command, io_words, master_id)
        except HeapError:
            result = MemResult(MemStatus.ERR_INVALID_PTR)
        self._last_heap_accesses = self._accessor.accesses - before
        return result

    def _dispatch(self, command: MemCommand, io_words: List[int],
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

    # -- individual operations -------------------------------------------------------------
    def _op_alloc(self, command: MemCommand) -> MemResult:
        if command.dim <= 0:
            return MemResult(MemStatus.ERR_MALFORMED)
        element_size = DATA_TYPE_SIZES[command.data_type]
        payload = self.heap.malloc(command.dim * element_size)
        if payload is None:
            return MemResult(MemStatus.ERR_FULL)
        allocation = _Allocation(payload, command.dim, command.data_type)
        self._allocations[payload] = allocation
        return MemResult(MemStatus.OK, value=payload)

    def _find(self, vptr: int) -> Optional[Tuple[_Allocation, int]]:
        """Resolve ``vptr`` to (allocation, byte offset) with pointer arithmetic."""
        allocation = self._allocations.get(vptr)
        if allocation is not None:
            return allocation, 0
        for candidate in self._allocations.values():
            if candidate.vptr <= vptr < candidate.vptr + candidate.size_bytes:
                return candidate, vptr - candidate.vptr
        return None

    def _op_free(self, command: MemCommand, master_id: int) -> MemResult:
        allocation = self._allocations.get(command.vptr)
        if allocation is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        if allocation.reserved_by is not None and allocation.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        self.heap.free(command.vptr)
        del self._allocations[command.vptr]
        return MemResult(MemStatus.OK)

    def _element_position(self, command: MemCommand
                          ) -> "MemResult | Tuple[_Allocation, int]":
        found = self._find(command.vptr)
        if found is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        allocation, byte_offset = found
        element_index = byte_offset // allocation.element_size + command.offset
        if element_index < 0 or element_index >= allocation.dim:
            return MemResult(MemStatus.ERR_OUT_OF_RANGE)
        return allocation, allocation.vptr + element_index * allocation.element_size

    def _op_write(self, command: MemCommand, master_id: int) -> MemResult:
        position = self._element_position(command)
        if isinstance(position, MemResult):
            return position
        allocation, address = position
        if allocation.reserved_by is not None and allocation.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        payload = encode_element(command.data, allocation.data_type, self.endianness)
        self.storage[address:address + len(payload)] = payload
        return MemResult(MemStatus.OK)

    def _op_read(self, command: MemCommand) -> MemResult:
        position = self._element_position(command)
        if isinstance(position, MemResult):
            return position
        allocation, address = position
        raw = self.storage[address:address + allocation.element_size]
        value = decode_element(raw, allocation.data_type, self.endianness)
        return MemResult(MemStatus.OK, value=value & 0xFFFFFFFF)

    def _op_write_array(self, command: MemCommand, io_words: List[int],
                        master_id: int) -> MemResult:
        found = self._find(command.vptr)
        if found is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        allocation, byte_offset = found
        if allocation.reserved_by is not None and allocation.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        start = byte_offset // allocation.element_size + command.offset
        if command.dim < 0 or start < 0 or start + command.dim > allocation.dim:
            return MemResult(MemStatus.ERR_OUT_OF_RANGE)
        address = allocation.vptr + start * allocation.element_size
        payload = encode_array(io_words[:command.dim], allocation.data_type,
                               self.endianness)
        self.storage[address:address + len(payload)] = payload
        return MemResult(MemStatus.OK, value=command.dim)

    def _op_read_array(self, command: MemCommand) -> MemResult:
        found = self._find(command.vptr)
        if found is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        allocation, byte_offset = found
        start = byte_offset // allocation.element_size + command.offset
        if command.dim < 0 or start < 0 or start + command.dim > allocation.dim:
            return MemResult(MemStatus.ERR_OUT_OF_RANGE)
        address = allocation.vptr + start * allocation.element_size
        raw = self.storage[address:address + command.dim * allocation.element_size]
        words = decode_array(raw, command.dim, allocation.data_type,
                             self.endianness)
        return MemResult(MemStatus.OK, value=command.dim, burst=words)

    def _op_reserve(self, command: MemCommand, master_id: int) -> MemResult:
        allocation = self._allocations.get(command.vptr)
        if allocation is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        if allocation.reserved_by is not None and allocation.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        allocation.reserved_by = master_id
        return MemResult(MemStatus.OK)

    def _op_release(self, command: MemCommand, master_id: int) -> MemResult:
        allocation = self._allocations.get(command.vptr)
        if allocation is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        if allocation.reserved_by is not None and allocation.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        allocation.reserved_by = None
        return MemResult(MemStatus.OK)

    def _op_query(self, command: MemCommand) -> MemResult:
        allocation = self._allocations.get(command.vptr)
        if allocation is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        return MemResult(MemStatus.OK, value=allocation.size_bytes)

    # -- timing ------------------------------------------------------------------------------
    def _cycles_for(self, command: MemCommand, result: MemResult) -> int:
        model = self.latency_model
        heap_cost = self._last_heap_accesses * self.header_access_cycles
        # Consumed here: a command refused before ``_execute`` walked nothing.
        self._last_heap_accesses = 0
        opcode = command.opcode
        if opcode == MemOpcode.ALLOC:
            return model.alloc(command.dim) + heap_cost
        if opcode == MemOpcode.FREE:
            return model.free(0) + heap_cost
        if opcode == MemOpcode.WRITE:
            return model.scalar_write(4) + heap_cost
        if opcode == MemOpcode.READ:
            return model.scalar_read(4) + heap_cost
        if opcode == MemOpcode.WRITE_ARRAY:
            return model.burst_write(command.dim, command.dim * 4) + heap_cost
        if opcode == MemOpcode.READ_ARRAY:
            return model.burst_read(command.dim, command.dim * 4) + heap_cost
        return max(1, REGISTER_ACCESS_CYCLES + heap_cost)

    # -- bench helpers -------------------------------------------------------------------------
    def heap_accesses(self) -> int:
        """Total allocator header-word accesses performed so far."""
        return self._accessor.accesses
