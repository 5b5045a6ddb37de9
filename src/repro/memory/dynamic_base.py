"""Shared bus-side machinery for dynamic memory modules.

Both the paper's host-backed shared-memory wrapper and the traditional
fully-modelled baseline expose the same register window (defined in
:mod:`repro.memory.protocol`), so the software API can target either.  This
module implements the common plumbing once:

* decoding of command-port bursts and of individual register pokes,
* the I/O array staging buffer used for indexed-structure transfers,
* element encode/decode helpers (data type width, signedness, endianness),
* per-opcode operation counters used by the evaluation benches.

Concrete modules implement :meth:`DynamicMemorySlave._execute` (functional
behaviour) and :meth:`DynamicMemorySlave._cycles_for` (timing).
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..fabric import BusSlave
from ..fabric import BusOp, BusRequest, BusResponse, ResponseStatus
from .protocol import (
    ARRAY_OPCODES,
    DATA_TYPE_SIGNED,
    DATA_TYPE_SIZES,
    IO_ARRAY_BASE,
    IO_ARRAY_BYTES,
    REG_COMMAND,
    REG_DATA_IN,
    REG_DIM,
    REG_GO,
    REG_LIVE_COUNT,
    REG_OFFSET,
    REG_OPCODE,
    REG_RESULT,
    REG_SM_ADDR,
    REG_STATUS,
    REG_TYPE,
    REG_USED_BYTES,
    REG_VPTR,
    REGISTER_WINDOW_BYTES,
    DataType,
    Endianness,
    MemCommand,
    MemOpcode,
    MemResult,
    MemStatus,
    ProtocolError,
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
    each, packed in a single call."""
    pack_format, mask, _, _ = _ARRAY_CODEC[data_type, endianness]
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


# ---------------------------------------------------------------------------
# The common slave base class.
# ---------------------------------------------------------------------------

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
        self.last_status: MemStatus = MemStatus.OK
        self.last_result: int = 0
        self.op_counts: Counter = Counter()
        self.op_cycles: Counter = Counter()
        self.register_accesses = 0
        #: Idle evaluations performed by cycle-driven platforms (see
        #: ``PlatformConfig.idle_tick_memories``).
        self.idle_cycles = 0
        self._staged: Dict[int, int] = {}

    def account_idle_cycles(self, cycles: int) -> None:
        """Account ``cycles`` idle evaluations at once (batched bookkeeping)."""
        self.idle_cycles += cycles

    # -- I/O array staging ------------------------------------------------------
    def io_array_for(self, master_id: int) -> List[int]:
        """The staging I/O array of ``master_id`` (created on first use)."""
        if master_id not in self._io_arrays:
            self._io_arrays[master_id] = [0] * (IO_ARRAY_BYTES // 4)
        return self._io_arrays[master_id]

    # -- subclass hooks -------------------------------------------------------
    def _execute(self, command: MemCommand, io_words: List[int],
                 master_id: int) -> MemResult:
        """Perform the operation functionally and return its result.

        ``io_words`` is the requester's live I/O array: read-only here."""
        raise NotImplementedError

    def _cycles_for(self, command: MemCommand, result: MemResult) -> int:
        """Number of slave cycles the operation should consume."""
        raise NotImplementedError

    def live_count(self) -> int:
        """Number of live allocations (diagnostic register)."""
        raise NotImplementedError

    def used_bytes(self) -> int:
        """Bytes currently allocated (diagnostic register)."""
        raise NotImplementedError

    # -- BusSlave protocol ------------------------------------------------------
    def serve(self, request: BusRequest, offset: int
              ) -> Tuple[BusResponse, int]:
        if offset >= REGISTER_WINDOW_BYTES:
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), 2
        if self._is_command(request, offset):
            response, cycles = self._handle_command(request)
        elif offset >= IO_ARRAY_BASE:
            response, cycles = self._handle_io_array(request, offset)
        else:
            response, cycles = self._handle_register(request, offset)
        return response, max(1, cycles)

    # -- command handling ----------------------------------------------------------
    @staticmethod
    def _is_command(request: BusRequest, offset: int) -> bool:
        return (offset == REG_COMMAND and request.op is BusOp.WRITE
                and request.burst_data is not None)

    def _handle_command(self, request: BusRequest):
        assert request.burst_data is not None
        try:
            command = MemCommand.from_words(request.burst_data)
        except ProtocolError:
            self.last_status = MemStatus.ERR_MALFORMED
            self.last_result = 0
            return (BusResponse(status=ResponseStatus.NACK,
                                data=int(MemStatus.ERR_MALFORMED)),
                    REGISTER_ACCESS_CYCLES + len(request.burst_data))
        result = self._run_command(command, request.master_id)
        cycles = self._cycles_for(command, result)
        # Delivering the command words costs one cycle per word on top of the
        # operation itself (opcode + sm_addr + operands, as in the paper's
        # cycle-by-cycle handshake).
        cycles += len(request.burst_data)
        status = ResponseStatus.OK if result.ok else ResponseStatus.NACK
        return BusResponse(status=status, data=result.value), cycles

    def _run_command(self, command: MemCommand, master_id: int) -> MemResult:
        io_array = self.io_array_for(master_id)
        if command.sm_addr != self.sm_addr:
            result = MemResult(MemStatus.ERR_BAD_SM_ADDR)
        elif command.opcode in ARRAY_OPCODES and command.dim > len(io_array):
            # More words than the I/O array can stage: refuse, execute nothing.
            result = MemResult(MemStatus.ERR_MALFORMED)
        else:
            result = self._execute(command, io_array, master_id)
        self.last_status = result.status
        self.last_result = result.value
        self.op_counts[command.opcode] += 1
        if result.burst is not None:
            # Stage read-array results in the I/O array for later burst reads.
            io_array[:len(result.burst)] = [word & 0xFFFFFFFF
                                            for word in result.burst]
        return result

    # -- register file handling --------------------------------------------------------
    def _handle_register(self, request: BusRequest, offset: int):
        self.register_accesses += 1
        cycles = REGISTER_ACCESS_CYCLES
        if request.op is BusOp.WRITE:
            if offset == REG_GO:
                command = self._command_from_staged()
                result = self._run_command(command, request.master_id)
                cycles = self._cycles_for(command, result) + cycles
                status = ResponseStatus.OK if result.ok else ResponseStatus.NACK
                return BusResponse(status=status, data=result.value), cycles
            self._staged[offset] = request.data
            return BusResponse(), cycles
        # Reads.
        value = self._read_register(offset)
        if value is None:
            return BusResponse(status=ResponseStatus.SLAVE_ERROR), cycles
        return BusResponse(data=value), cycles

    def _read_register(self, offset: int) -> Optional[int]:
        if offset == REG_STATUS:
            return int(self.last_status)
        if offset == REG_RESULT:
            return self.last_result & 0xFFFFFFFF
        if offset == REG_LIVE_COUNT:
            return self.live_count()
        if offset == REG_USED_BYTES:
            return self.used_bytes()
        if offset < REG_STATUS:
            # Operand registers read back their staged value.
            return self._staged.get(offset, 0)
        return None

    def _command_from_staged(self) -> MemCommand:
        opcode_raw = self._staged.get(REG_OPCODE, int(MemOpcode.NOP))
        try:
            opcode = MemOpcode(opcode_raw)
        except ValueError:
            opcode = MemOpcode.NOP
        try:
            data_type = DataType(self._staged.get(REG_TYPE, int(DataType.UINT32)))
        except ValueError:
            data_type = DataType.UINT32
        return MemCommand(
            opcode=opcode,
            sm_addr=self._staged.get(REG_SM_ADDR, self.sm_addr),
            vptr=self._staged.get(REG_VPTR, 0),
            dim=self._staged.get(REG_DIM, 0),
            data_type=data_type,
            data=self._staged.get(REG_DATA_IN, 0),
            offset=self._staged.get(REG_OFFSET, 0),
        )

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
            io_array[index:index + len(payload)] = [word & 0xFFFFFFFF
                                                    for word in payload]
            return BusResponse(), cycles
        if request.burst_length:
            return (BusResponse(burst_data=list(
                io_array[index:index + request.burst_length])), cycles)
        return BusResponse(data=io_array[index]), cycles
