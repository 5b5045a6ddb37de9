"""Shared bus-side machinery and protocol rules for dynamic memory modules.

Both the paper's host-backed shared-memory wrapper and the traditional
fully-modelled baseline expose the same register window (defined in
:mod:`repro.memory.protocol`), so the software API can target either.  This
module implements everything they have in common once:

* executing command-port bursts, the one way a command is launched, as
  :func:`~repro.memory.protocol.launched_command` decodes them,
* the protocol's semantics (:meth:`DynamicMemorySlave._execute`): ALLOC
  validation, exact-base FREE / RESERVE / RELEASE / QUERY, interior-pointer
  READ / WRITE and array transfers, the check order (pointer, then bounds,
  then reservation) and the reservation semaphore, over one
  :class:`Allocation` row,
* the live rows, in an :class:`AllocationIndex`: the one structure the
  pointer table, the modelled memory and the shadow map keep rows in,
* the I/O array staging buffer used for indexed-structure transfers,
* element encode/decode helpers (data type width, signedness, endianness),
* per-opcode operation counters used by the evaluation benches.

Concrete modules supply only storage — how a row is made and dropped and
where its bytes live, through the six hooks ``_allocate``, ``_free``,
``_load``, ``_store``, ``_load_array`` and ``_store_array`` — and timing
(:meth:`DynamicMemorySlave._cycles_for`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fabric import BusSlave
from ..fabric import BusOp, BusRequest, BusResponse, ResponseStatus
from .protocol import (
    ARRAY_OPCODES,
    DATA_TYPE_SIGNED,
    DATA_TYPE_SIZES,
    IO_ARRAY_BASE,
    IO_ARRAY_BYTES,
    REG_LIVE_COUNT,
    REG_RESULT,
    REG_STATUS,
    REG_USED_BYTES,
    REGISTER_WINDOW_BYTES,
    DataType,
    Endianness,
    MemCommand,
    MemOpcode,
    MemResult,
    MemStatus,
    launched_command,
)

# ---------------------------------------------------------------------------
# Element encoding helpers (shared by the translator and the baseline).
# ---------------------------------------------------------------------------


def encode_element(value: int, data_type: DataType, endianness: Endianness) -> bytes:
    """Encode one element into its in-memory byte representation."""
    size = DATA_TYPE_SIZES[data_type]
    if data_type is DataType.FLOAT32:
        # Values cross the interconnect as raw 32-bit patterns.
        return struct.pack(
            "<I" if endianness is Endianness.LITTLE else ">I", value & 0xFFFFFFFF
        )
    mask = (1 << (8 * size)) - 1
    return (value & mask).to_bytes(size, endianness.value)


def decode_element(payload: bytes, data_type: DataType, endianness: Endianness) -> int:
    """Decode one element from its in-memory byte representation."""
    size = DATA_TYPE_SIZES[data_type]
    if len(payload) != size:
        raise ValueError(f"expected {size} bytes for {data_type.name}, got {len(payload)}")
    raw = int.from_bytes(payload, endianness.value)
    if DATA_TYPE_SIGNED[data_type] and raw >= 1 << (8 * size - 1):
        raw -= 1 << (8 * size)
    return raw


#: ``struct`` codes per data type: (pack, unpack).  Packing is unsigned after
#: masking to the element width, as :func:`encode_element` does.  Unpacking
#: INT8 / INT16 through the signed code is :func:`decode_element`'s sign
#: extension; a 32-bit element (FLOAT32 travels as its raw pattern) already
#: is its canonical word.
_STRUCT_CODES = {
    DataType.UINT8: ("B", "B"),
    DataType.INT8: ("B", "b"),
    DataType.UINT16: ("H", "H"),
    DataType.INT16: ("H", "h"),
    DataType.UINT32: ("I", "I"),
    DataType.INT32: ("I", "I"),
    DataType.FLOAT32: ("I", "I"),
}

#: (data type, endianness) -> (pack format, element mask, unpack format,
#: unpacked values are negative-capable); the formats take the element count.
_ARRAY_CODEC = {
    (data_type, endianness): (
        f"{prefix}%d{pack}",
        (1 << (8 * DATA_TYPE_SIZES[data_type])) - 1,
        f"{prefix}%d{unpack}",
        pack != unpack,
    )
    for data_type, (pack, unpack) in _STRUCT_CODES.items()
    for endianness, prefix in ((Endianness.LITTLE, "<"), (Endianness.BIG, ">"))
}


def encode_array(values: Sequence[int], data_type: DataType,
                 endianness: Endianness) -> bytes:
    """Encode ``values`` as consecutive elements: one :func:`encode_element`
    each, packed in a single call; a 32-bit word is masked only if out of range."""
    pack_format, mask, _, _ = _ARRAY_CODEC[data_type, endianness]
    if mask == 0xFFFFFFFF:
        try:
            return struct.pack(pack_format % len(values), *values)
        except struct.error:
            pass
    return struct.pack(pack_format % len(values),
                       *[value & mask for value in values])


def decode_array(payload: bytes, count: int, data_type: DataType,
                 endianness: Endianness) -> List[int]:
    """Decode ``count`` consecutive elements into canonical 32-bit words:
    one ``decode_element(...) & 0xFFFFFFFF`` each, unpacked in a single call."""
    size = DATA_TYPE_SIZES[data_type]
    if len(payload) != count * size:
        raise ValueError(f"expected {count * size} bytes for {count} x "
                         f"{data_type.name}, got {len(payload)}")
    _, _, unpack_format, signed = _ARRAY_CODEC[data_type, endianness]
    words = struct.unpack(unpack_format % count, payload)
    if signed:
        return [word & 0xFFFFFFFF for word in words]
    return list(words)


def to_signed(value: int, data_type: DataType) -> int:
    """Reinterpret a raw register word as the (possibly signed) element value."""
    size = DATA_TYPE_SIZES[data_type]
    mask = (1 << (8 * size)) - 1
    raw = value & mask
    if DATA_TYPE_SIGNED[data_type] and raw >= 1 << (8 * size - 1):
        raw -= 1 << (8 * size)
    return raw


#: Commands addressing elements, which accept interior pointers.
_ELEMENT_OPCODES = frozenset((MemOpcode.READ, MemOpcode.WRITE, *ARRAY_OPCODES))

# ---------------------------------------------------------------------------
# The allocation row and the common slave base class.
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class Allocation:
    """One live allocation: its virtual range, element typing and the
    reservation bit (the master holding the semaphore, or ``None``).

    ``vptr``, ``dim`` and ``data_type`` never change once the row exists, so
    the sizes derived from them are fixed at construction.  Rows compare by
    identity: a freed range may be reissued to an equal-looking new row.
    """

    vptr: int
    dim: int
    data_type: DataType
    reserved_by: Optional[int] = None
    #: Size in bytes of one element of this allocation.
    element_size: int = field(init=False)
    #: Total payload size of the allocation in bytes.
    size_bytes: int = field(init=False)
    #: First virtual address *after* this allocation.
    end_vptr: int = field(init=False)

    def __post_init__(self) -> None:
        self.element_size = DATA_TYPE_SIZES[self.data_type]
        self.size_bytes = self.dim * self.element_size
        self.end_vptr = self.vptr + self.size_bytes

    def element_byte(self, index: int) -> int:
        """Byte address (in vptr space) of element ``index``."""
        return self.vptr + index * self.element_size

    def locate(self, vptr: int, offset: int, count: int) -> Optional[int]:
        """Index of the first of ``count`` elements starting ``offset``
        elements past the one ``vptr`` points into, or ``None`` unless all
        of them lie inside this allocation (``vptr`` must, see
        :meth:`AllocationIndex.containing`)."""
        index = (vptr - self.vptr) // self.element_size + offset
        if index < 0 or count < 0 or index + count > self.dim:
            return None
        return index


class AllocationIndex:
    """The live rows of one memory in ascending base order: the paper's
    table of allocations (Figure 2), where an interior pointer resolves to
    the allocation that holds it.

    Invariant, kept by every caller of :meth:`add`: bases are unique and
    live ranges are disjoint and non-empty, so the last base at or below a
    pointer is the only row that can hold it.  ``rows[i].vptr`` is
    ``bases[i]``, and ``live_bytes`` is the rows' summed ``size_bytes``.
    """

    def __init__(self) -> None:
        self.bases: List[int] = []
        self.rows: List[Allocation] = []
        self.live_bytes = 0

    def add(self, row: Allocation) -> None:
        """Insert ``row``: an append when it lies past every live row (the
        wrapper's Vptr rule), else a bisected insert (a first-fit reuse, a
        shadow replay)."""
        bases = self.bases
        if not bases or row.vptr > bases[-1]:
            bases.append(row.vptr)
            self.rows.append(row)
        else:
            at = bisect_left(bases, row.vptr)
            bases.insert(at, row.vptr)
            self.rows.insert(at, row)
        self.live_bytes += row.size_bytes

    def remove(self, vptr: int) -> Optional[Allocation]:
        """Drop and return the row whose base is exactly ``vptr``, or
        ``None`` when there is none."""
        bases = self.bases
        at = bisect_left(bases, vptr)
        if at == len(bases) or bases[at] != vptr:
            return None
        row = self.rows.pop(at)
        del bases[at]
        self.live_bytes -= row.size_bytes
        return row

    def lookup(self, vptr: int) -> Optional[Allocation]:
        """The row whose base is exactly ``vptr``, or ``None``."""
        bases = self.bases
        at = bisect_left(bases, vptr)
        return self.rows[at] if at < len(bases) and bases[at] == vptr else None

    def containing(self, vptr: int) -> Optional[Allocation]:
        """The row whose range holds a possibly-interior ``vptr``, or
        ``None`` (the paper's pointer arithmetic)."""
        at = bisect_right(self.bases, vptr)
        if at and vptr < self.rows[at - 1].end_vptr:
            return self.rows[at - 1]
        return None


#: Cycles charged for a plain register / I/O-array access.
REGISTER_ACCESS_CYCLES = 1


class DynamicMemorySlave(BusSlave):
    """Bus-facing front end shared by all dynamic memory modules."""

    def __init__(self, sm_addr: int = 0,
                 endianness: Endianness = Endianness.LITTLE,
                 name: str = "dynmem") -> None:
        self.name = name
        self.sm_addr = sm_addr
        self.endianness = endianness
        #: Per-master I/O arrays (staging buffers for indexed-structure
        #: transfers).  Keeping one array per master port mirrors hardware
        #: wrappers with per-port I/O registers and prevents interleaved
        #: transactions from different processors clobbering each other's
        #: staged data.
        self._io_arrays: Dict[int, List[int]] = {}
        #: The live allocations (the wrapper puts its pointer table here).
        self.rows = AllocationIndex()
        self.last_status: MemStatus = MemStatus.OK
        self.last_result: int = 0
        self.op_counts: Counter = Counter()
        #: Idle evaluations performed by cycle-driven platforms (see
        #: ``PlatformConfig.idle_tick_memories``).
        self.idle_cycles = 0

    def account_idle_cycles(self, cycles: int) -> None:
        """Account ``cycles`` idle evaluations at once (batched bookkeeping)."""
        self.idle_cycles += cycles

    # -- I/O array staging ------------------------------------------------------
    def io_array_for(self, master_id: int) -> List[int]:
        """The staging I/O array of ``master_id`` (created on first use)."""
        if master_id not in self._io_arrays:
            self._io_arrays[master_id] = [0] * (IO_ARRAY_BYTES // 4)
        return self._io_arrays[master_id]

    # -- the protocol ------------------------------------------------------------
    def _execute(self, command: MemCommand, io_words: List[int],
                 master_id: int) -> MemResult:
        """Perform ``command`` for ``master_id`` over the storage hooks.

        FREE / RESERVE / RELEASE / QUERY name an allocation by its exact
        base; READ / WRITE and the array commands accept interior pointers.
        A command is checked for its pointer, then its bounds, then a
        foreign reservation, which only modifying commands honour.
        ``io_words`` is the requester's live I/O array: read-only here.
        """
        if command.sm_addr != self.sm_addr:
            return MemResult(MemStatus.ERR_BAD_SM_ADDR)
        opcode = command.opcode
        if opcode in _ELEMENT_OPCODES:
            count = command.dim if opcode in ARRAY_OPCODES else 1
            if count > len(io_words):
                # More words than the I/O array can stage: refuse, execute nothing.
                return MemResult(MemStatus.ERR_MALFORMED)
            alloc = self.rows.containing(command.vptr)
            if alloc is None:
                return MemResult(MemStatus.ERR_INVALID_PTR)
            index = alloc.locate(command.vptr, command.offset, count)
            if index is None:
                return MemResult(MemStatus.ERR_OUT_OF_RANGE)
            if opcode is MemOpcode.READ:
                return MemResult(MemStatus.OK,
                                 self._load(alloc, index) & 0xFFFFFFFF)
            if opcode is MemOpcode.READ_ARRAY:
                return MemResult(MemStatus.OK, count,
                                 self._load_array(alloc, index, count))
            if alloc.reserved_by is not None and alloc.reserved_by != master_id:
                return MemResult(MemStatus.ERR_RESERVED)
            if opcode is MemOpcode.WRITE:
                self._store(alloc, index, command.data)
                return MemResult(MemStatus.OK)
            self._store_array(alloc, index, io_words[:count])
            return MemResult(MemStatus.OK, count)
        if opcode is MemOpcode.ALLOC:
            if command.dim <= 0:
                return MemResult(MemStatus.ERR_MALFORMED)
            alloc = self._allocate(command.dim, command.data_type)
            if alloc is None:
                return MemResult(MemStatus.ERR_FULL)
            return MemResult(MemStatus.OK, alloc.vptr)
        if opcode is MemOpcode.NOP:
            return MemResult(MemStatus.OK)
        # FREE, RESERVE, RELEASE, QUERY.
        alloc = self.rows.lookup(command.vptr)
        if alloc is None:
            return MemResult(MemStatus.ERR_INVALID_PTR)
        if opcode is MemOpcode.QUERY:
            return MemResult(MemStatus.OK, alloc.size_bytes)
        if alloc.reserved_by is not None and alloc.reserved_by != master_id:
            return MemResult(MemStatus.ERR_RESERVED)
        if opcode is MemOpcode.FREE:
            self._free(alloc)
        else:
            # The semaphore: only a free bit or its holder gets this far.
            alloc.reserved_by = master_id if opcode is MemOpcode.RESERVE else None
        return MemResult(MemStatus.OK)

    # -- storage hooks ---------------------------------------------------------------
    def _allocate(self, dim: int, data_type: DataType) -> Optional[Allocation]:
        """Create a row of ``dim`` (> 0) elements in :attr:`rows`, or
        ``None`` when full."""
        raise NotImplementedError

    def _free(self, alloc: Allocation) -> None:
        """Delete ``alloc`` from :attr:`rows`, and its storage."""
        raise NotImplementedError

    def _load(self, alloc: Allocation, index: int) -> int:
        """Element ``index`` of ``alloc``, sign-extended per its data type."""
        raise NotImplementedError

    def _store(self, alloc: Allocation, index: int, value: int) -> None:
        """Store ``value`` as element ``index`` of ``alloc``."""
        raise NotImplementedError

    def _load_array(self, alloc: Allocation, index: int, count: int) -> List[int]:
        """``count`` elements of ``alloc`` from ``index``, as canonical words."""
        raise NotImplementedError

    def _store_array(self, alloc: Allocation, index: int,
                     words: List[int]) -> None:
        """Store ``words`` as consecutive elements of ``alloc`` from ``index``."""
        raise NotImplementedError

    # -- timing and diagnostics --------------------------------------------------------
    def _cycles_for(self, command: MemCommand, words: int) -> int:
        """Number of slave cycles the operation should consume; ``words`` is
        how many an array command moved (0 for a refused one)."""
        raise NotImplementedError

    def live_count(self) -> int:
        """Number of live allocations (diagnostic register)."""
        return len(self.rows.rows)

    def used_bytes(self) -> int:
        """Bytes currently allocated (diagnostic register)."""
        return self.rows.live_bytes

    # -- BusSlave protocol ------------------------------------------------------
    def serve(self, request: BusRequest, offset: int
              ) -> Tuple[BusResponse, int]:
        if offset >= REGISTER_WINDOW_BYTES:
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), 2
        command = launched_command(request, offset)
        if command is not None:
            response, cycles = self._handle_command(request, command)
        elif offset >= IO_ARRAY_BASE:
            response, cycles = self._handle_io_array(request, offset)
        else:
            response, cycles = self._handle_register(request, offset)
        return response, max(1, cycles)

    # -- command handling ----------------------------------------------------------
    def _handle_command(self, request: BusRequest,
                        command: "MemCommand | MemStatus"):
        if command is MemStatus.ERR_MALFORMED:
            self.last_status = MemStatus.ERR_MALFORMED
            self.last_result = 0
            return (BusResponse(status=ResponseStatus.NACK,
                                data=int(MemStatus.ERR_MALFORMED)),
                    REGISTER_ACCESS_CYCLES + len(request.burst_data))
        io_array = self.io_array_for(request.master_id)
        result = self._execute(command, io_array, request.master_id)
        self.last_status = result.status
        self.last_result = result.value
        self.op_counts[command.opcode] += 1
        if result.burst is not None:
            # Stage read-array results (canonical words) for later burst reads.
            io_array[:len(result.burst)] = result.burst
        # Only an array command that completed moved any words.  Delivering
        # the command words costs one cycle per word on top of the operation
        # itself (opcode + sm_addr + operands, as in the paper's
        # cycle-by-cycle handshake).
        words = (command.dim if result.status is MemStatus.OK
                 and command.opcode in ARRAY_OPCODES else 0)
        cycles = self._cycles_for(command, words) + len(request.burst_data)
        status = ResponseStatus.OK if result.ok else ResponseStatus.NACK
        return BusResponse(status=status, data=result.value), cycles

    # -- register file handling --------------------------------------------------------
    def _handle_register(self, request: BusRequest, offset: int):
        """Reads of the four result registers; below the I/O array, every
        other access (a write that is not the command burst, a read of an
        unmapped offset) is refused and changes nothing."""
        value = (self._read_register(offset) if request.op is BusOp.READ
                 else None)
        if value is None:
            return (BusResponse(status=ResponseStatus.SLAVE_ERROR),
                    REGISTER_ACCESS_CYCLES)
        return BusResponse(data=value), REGISTER_ACCESS_CYCLES

    def _read_register(self, offset: int) -> Optional[int]:
        if offset == REG_STATUS:
            return int(self.last_status)
        if offset == REG_RESULT:
            return self.last_result & 0xFFFFFFFF
        if offset == REG_LIVE_COUNT:
            return self.live_count()
        if offset == REG_USED_BYTES:
            return self.used_bytes()
        return None

    # -- I/O array handling ----------------------------------------------------------------
    def _handle_io_array(self, request: BusRequest, offset: int):
        io_array = self.io_array_for(request.master_id)
        index = (offset - IO_ARRAY_BASE) // 4
        words = request.word_count
        cycles = REGISTER_ACCESS_CYCLES + max(0, words - 1)
        if index + words > len(io_array):
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), cycles
        if request.op is BusOp.WRITE:
            payload = (request.burst_data if request.burst_data is not None
                       else [request.data])
            if payload and (min(payload) < 0 or max(payload) > 0xFFFFFFFF):
                payload = [word & 0xFFFFFFFF for word in payload]
            io_array[index:index + len(payload)] = payload
            return BusResponse(), cycles
        if request.burst_length:
            return (BusResponse(burst_data=io_array[
                index:index + request.burst_length]), cycles)
        return BusResponse(data=io_array[index]), cycles
