"""The dynamic-memory transaction protocol.

This module defines the *contract* between processing elements and any
dynamic memory module on the interconnect: the paper's host-backed shared
memory wrapper (:mod:`repro.wrapper`) and the traditional fully-modelled
baseline (:mod:`repro.memory.modeled_dynamic_memory`) both implement it, so
software written against the high-level API runs unchanged on either.

Following Figure 2 of the paper, every transaction starts with an *opcode*
and the *shared-memory address* (``sm_addr``, identifying the memory module)
followed by the operands.  On our memory-mapped interconnect the command is
delivered as one burst write to the module's command port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence


class MemOpcode(enum.IntEnum):
    """Operation codes understood by dynamic memory modules."""

    NOP = 0x00
    #: Allocate ``dim`` elements of ``data_type`` (maps to host ``calloc``).
    ALLOC = 0x01
    #: Free the allocation identified by a virtual pointer.
    FREE = 0x02
    #: Write one element at ``vptr`` (+ element offset).
    WRITE = 0x03
    #: Read one element at ``vptr`` (+ element offset).
    READ = 0x04
    #: Write ``dim`` elements from the I/O array (indexed structures).
    WRITE_ARRAY = 0x05
    #: Read ``dim`` elements into the I/O array (indexed structures).
    READ_ARRAY = 0x06
    #: Set the reservation bit (semaphore) of a virtual pointer.
    RESERVE = 0x07
    #: Clear the reservation bit of a virtual pointer.
    RELEASE = 0x08
    #: Query the size/type of an allocation (diagnostic).
    QUERY = 0x09


class MemStatus(enum.IntEnum):
    """Completion status codes returned in the status register."""

    OK = 0x0
    #: The allocation would exceed the configured memory capacity.
    ERR_FULL = 0x1
    #: The virtual pointer does not belong to any live allocation.
    ERR_INVALID_PTR = 0x2
    #: The pointer is reserved by a different master (coherence conflict).
    ERR_RESERVED = 0x3
    #: Unknown opcode.
    ERR_BAD_OPCODE = 0x4
    #: The ``sm_addr`` field does not match this memory module.
    ERR_BAD_SM_ADDR = 0x5
    #: Access past the end of the addressed allocation.
    ERR_OUT_OF_RANGE = 0x6
    #: Malformed command (missing operands, bad data type...).
    ERR_MALFORMED = 0x7


class DataType(enum.IntEnum):
    """Element data types supported by the translator."""

    UINT8 = 0x0
    INT8 = 0x1
    UINT16 = 0x2
    INT16 = 0x3
    UINT32 = 0x4
    INT32 = 0x5
    FLOAT32 = 0x6


#: Element size in bytes for every :class:`DataType`.
DATA_TYPE_SIZES = {
    DataType.UINT8: 1,
    DataType.INT8: 1,
    DataType.UINT16: 2,
    DataType.INT16: 2,
    DataType.UINT32: 4,
    DataType.INT32: 4,
    DataType.FLOAT32: 4,
}

#: True for types interpreted as signed two's-complement integers.
DATA_TYPE_SIGNED = {
    DataType.UINT8: False,
    DataType.INT8: True,
    DataType.UINT16: False,
    DataType.INT16: True,
    DataType.UINT32: False,
    DataType.INT32: True,
    DataType.FLOAT32: False,
}


def data_type_size(data_type: "DataType | int") -> int:
    """Element size in bytes of ``data_type`` (raises on unknown types)."""
    return DATA_TYPE_SIZES[DataType(data_type)]


class Endianness(enum.Enum):
    """Byte order of the *simulated* architecture."""

    LITTLE = "little"
    BIG = "big"


# --------------------------------------------------------------------------
# Register map of a dynamic memory module (word-aligned byte offsets).
# --------------------------------------------------------------------------

#: Burst-write command port: [opcode, sm_addr, operands...] in one transfer.
REG_COMMAND = 0x00
#: Read-only: status of the last completed operation.
REG_STATUS = 0x40
#: Read-only: primary result of the last completed operation.
REG_RESULT = 0x44
#: Read-only: number of live allocations (diagnostic).
REG_LIVE_COUNT = 0x48
#: Read-only: bytes currently allocated (diagnostic).
REG_USED_BYTES = 0x4C
#: Base of the I/O array window used by burst (indexed-structure) transfers.
IO_ARRAY_BASE = 0x100
#: Size of the I/O array window in bytes (256 words).
IO_ARRAY_BYTES = 0x400
#: Total size of a dynamic memory module's register window.
REGISTER_WINDOW_BYTES = IO_ARRAY_BASE + IO_ARRAY_BYTES


#: Operand words following ``[opcode, sm_addr]`` on the wire, per opcode.
#: ALLOC carries ``(dim, data_type)``; every other opcode a prefix of
#: ``(vptr, offset, third)``, where ``third`` is ``data`` for WRITE and
#: ``dim`` for the array opcodes.
OPERAND_COUNT = {
    MemOpcode.NOP: 0,
    MemOpcode.ALLOC: 2,
    MemOpcode.FREE: 1,
    MemOpcode.WRITE: 3,
    MemOpcode.READ: 2,
    MemOpcode.WRITE_ARRAY: 3,
    MemOpcode.READ_ARRAY: 3,
    MemOpcode.RESERVE: 1,
    MemOpcode.RELEASE: 1,
    MemOpcode.QUERY: 1,
}

#: The opcodes that move ``dim`` words through the I/O array.
ARRAY_OPCODES = (MemOpcode.READ_ARRAY, MemOpcode.WRITE_ARRAY)

# Wire value -> enum member: a dict probe, not an ``Enum(...)`` call, because
# every launched command is decoded once on the simulation's hot path.
_OPCODE_OF = {int(member): member for member in MemOpcode}
_DATA_TYPE_OF = {int(member): member for member in DataType}


@dataclass
class MemCommand:
    """A decoded dynamic-memory command (opcode + operands)."""

    opcode: MemOpcode
    sm_addr: int = 0
    vptr: int = 0
    dim: int = 0
    data_type: DataType = DataType.UINT32
    data: int = 0
    offset: int = 0

    def to_words(self) -> List[int]:
        """Encode the command as the word sequence sent to ``REG_COMMAND``.

        Word order matches the paper's transaction format: opcode and
        sm_addr first, then the operands needed by the opcode.
        """
        opcode = self.opcode
        if opcode is MemOpcode.ALLOC:
            return [int(opcode), self.sm_addr, self.dim, int(self.data_type)]
        third = self.data if opcode is MemOpcode.WRITE else self.dim
        return [int(opcode), self.sm_addr, self.vptr, self.offset,
                third][:2 + OPERAND_COUNT.get(opcode, 0)]

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "MemCommand":
        """Decode a word sequence received on the command port.

        ``words`` is only read (callers hand over the live burst); words
        past the opcode's operands are ignored.  Raises
        :class:`ProtocolError` when the sequence is malformed.
        """
        if len(words) < 2:
            raise ProtocolError("command needs at least opcode and sm_addr")
        opcode = _OPCODE_OF.get(words[0])
        if opcode is None:
            raise ProtocolError(f"unknown opcode {words[0]:#x}")
        count = OPERAND_COUNT[opcode]
        if len(words) < 2 + count:
            raise _malformed(opcode, words)
        if opcode is MemOpcode.ALLOC:
            data_type = _DATA_TYPE_OF.get(words[3])
            if data_type is None:
                raise _malformed(opcode, words)
            return cls(opcode, words[1], dim=words[2], data_type=data_type)
        command = cls(opcode, words[1])
        if count > 0:
            command.vptr = words[2]
        if count > 1:
            command.offset = words[3]
        if count > 2 and opcode is MemOpcode.WRITE:
            command.data = words[4]
        elif count > 2:
            command.dim = words[4]
        return command


@dataclass
class MemResult:
    """The outcome of a dynamic-memory operation."""

    status: MemStatus
    value: int = 0
    burst: Optional[List[int]] = None

    @property
    def ok(self) -> bool:
        """True when the operation completed with :attr:`MemStatus.OK`."""
        return self.status is MemStatus.OK


class ProtocolError(Exception):
    """Raised when a command cannot be encoded or decoded."""


def _malformed(opcode: MemOpcode, words: Sequence[int]) -> ProtocolError:
    return ProtocolError(
        f"malformed operand list {list(words[2:])!r} for opcode {opcode.name}")


def launched_command(request, offset: int
                     ) -> "MemCommand | MemStatus | None":
    """The command a bus ``request`` launches at byte ``offset`` of a
    memory's register window: ``None`` unless it is a burst write to
    :data:`REG_COMMAND`, else the decoded :class:`MemCommand`, or
    :attr:`MemStatus.ERR_MALFORMED` (which the memory NACKs) when its words
    do not decode.  The outcome is kept on ``request.decoded``, so each
    burst is decoded at most once; a sender that encoded a
    :class:`MemCommand` may set it there itself.
    """
    if offset != REG_COMMAND or request.burst_data is None:
        return None
    command = request.decoded
    # ``BusOp.WRITE``, reached through the request: importing the fabric
    # here would load it on a sweep's set-up path, which needs none.
    if command is None and request.op is type(request.op).WRITE:
        try:
            command = request.decoded = MemCommand.from_words(request.burst_data)
        except ProtocolError:
            command = request.decoded = MemStatus.ERR_MALFORMED
    return command
