"""The traditional baseline: a fully-modelled dynamic memory.

This module represents what the paper calls "complex and slow dynamic memory
models": the heap allocator's metadata and the application data both live in
the *simulated* memory table, and every allocator step is charged simulated
cycles (and costs real host work) proportional to the number of header words
it touches.  It answers the same protocol as the host-backed wrapper, whose
rules live once in
:meth:`~repro.memory.dynamic_base.DynamicMemorySlave._execute`; this module
supplies only storage (allocator headers and element bytes in the simulated
table; the rows, disjoint heap payloads, in the shared
:class:`~repro.memory.dynamic_base.AllocationIndex`) and timing.  So the
software API and workloads run unchanged on either and only speed and timing
differ — which is precisely what experiment E2 needs.
"""

from __future__ import annotations

from typing import List, Optional

from .dynamic_base import (
    REGISTER_ACCESS_CYCLES,
    Allocation,
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
        #: (heap accessor reads+writes) of the executed command not yet
        #: charged by :meth:`_cycles_for`.
        self._last_heap_accesses = 0

    # -- word accessor over the simulated storage ----------------------------------
    def _read_word(self, address: int) -> int:
        return int.from_bytes(self.storage[address:address + 4], "little")

    def _write_word(self, address: int, value: int) -> None:
        self.storage[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- the protocol, with allocator costs counted ---------------------------------
    def _execute(self, command: MemCommand, io_words: List[int],
                 master_id: int) -> MemResult:
        before = self._accessor.accesses
        try:
            result = super()._execute(command, io_words, master_id)
        except HeapError:
            result = MemResult(MemStatus.ERR_INVALID_PTR)
        self._last_heap_accesses = self._accessor.accesses - before
        return result

    # -- storage: bytes in the simulated table ------------------------------------
    def _allocate(self, dim: int, data_type: DataType) -> Optional[Allocation]:
        size_bytes = dim * DATA_TYPE_SIZES[data_type]
        payload = self.heap.malloc(size_bytes)
        if payload is None:
            return None
        # ALLOC is calloc: a reused block must not show its last owner's data.
        self.storage[payload:payload + size_bytes] = bytes(size_bytes)
        allocation = Allocation(payload, dim, data_type)
        self.rows.add(allocation)
        return allocation

    def _free(self, allocation: Allocation) -> None:
        self.heap.free(allocation.vptr)
        self.rows.remove(allocation.vptr)

    # The payload address a heap returns is the allocation's Vptr, so an
    # element's Vptr is its address in the simulated table.
    def _load(self, allocation: Allocation, index: int) -> int:
        address = allocation.vptr + index * allocation.element_size
        return decode_element(
            self.storage[address:address + allocation.element_size],
            allocation.data_type, self.endianness)

    def _store(self, allocation: Allocation, index: int, value: int) -> None:
        payload = encode_element(value, allocation.data_type, self.endianness)
        address = allocation.vptr + index * allocation.element_size
        self.storage[address:address + len(payload)] = payload

    def _load_array(self, allocation: Allocation, index: int,
                    count: int) -> List[int]:
        address = allocation.vptr + index * allocation.element_size
        raw = self.storage[address:address + count * allocation.element_size]
        return decode_array(raw, count, allocation.data_type, self.endianness)

    def _store_array(self, allocation: Allocation, index: int,
                     words: List[int]) -> None:
        payload = encode_array(words, allocation.data_type, self.endianness)
        address = allocation.vptr + index * allocation.element_size
        self.storage[address:address + len(payload)] = payload

    # -- timing ------------------------------------------------------------------------------
    def _cycles_for(self, command: MemCommand, words: int) -> int:
        model = self.latency_model
        heap_cost = self._last_heap_accesses * self.header_access_cycles
        opcode = command.opcode
        if opcode == MemOpcode.ALLOC:
            return model.alloc() + heap_cost
        if opcode == MemOpcode.FREE:
            return model.free() + heap_cost
        if opcode == MemOpcode.WRITE:
            return model.scalar_write() + heap_cost
        if opcode == MemOpcode.READ:
            return model.scalar_read() + heap_cost
        if opcode == MemOpcode.WRITE_ARRAY:
            return model.burst_write(words) + heap_cost
        if opcode == MemOpcode.READ_ARRAY:
            return model.burst_read(words) + heap_cost
        return max(1, REGISTER_ACCESS_CYCLES + heap_cost)

    # -- reporting -----------------------------------------------------------------------------
    def heap_accesses(self) -> int:
        """Total allocator header-word accesses performed so far."""
        return self._accessor.accesses

    def report(self) -> dict:
        """Summary of the memory's activity (its block of platform reports)."""
        return {
            "name": self.name,
            "live_allocations": self.live_count(),
            "used_bytes": self.used_bytes(),
            "heap_accesses": self.heap_accesses(),
            "op_counts": {op.name: count for op, count in self.op_counts.items()},
        }
