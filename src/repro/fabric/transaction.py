"""Bus transaction data types.

The interconnect carries memory-mapped word transactions between masters
(processing elements, DMA engines) and slaves (static memories, the dynamic
shared-memory wrappers, peripherals).  A transaction is a
:class:`BusRequest` answered by a :class:`BusResponse`.

Scalar transfers move one word of ``size`` bytes.  Burst transfers carry a
list of words (``burst_data`` for writes, ``burst_length`` for reads); the
paper's wrapper uses bursts for its *I/O arrays* when indexed structures are
exchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class BusOp(enum.Enum):
    """The two operations a memory-mapped transaction may perform."""

    READ = "read"
    WRITE = "write"


class ResponseStatus(enum.Enum):
    """Completion status of a transaction."""

    OK = "ok"
    #: The slave understood the request but refused it (e.g. reservation held
    #: by another master, allocation beyond the configured capacity).
    NACK = "nack"
    #: No slave is mapped at the requested address.
    DECODE_ERROR = "decode_error"
    #: The slave detected an internal error (bad opcode, invalid pointer...).
    SLAVE_ERROR = "slave_error"


#: Default word width in bytes used throughout the platform (ARM-style 32-bit).
WORD_SIZE = 4


@dataclass
class BusRequest:
    """A single master-initiated transfer."""

    master_id: int
    op: BusOp
    address: int
    #: Word payload for scalar writes; ignored for reads.
    data: int = 0
    #: Transfer size in bytes (1, 2 or 4) for scalar transfers.
    size: int = WORD_SIZE
    #: Payload words for burst writes (takes precedence over ``data``).
    burst_data: Optional[List[int]] = None
    #: Number of words to read for burst reads.
    burst_length: int = 0
    #: Free-form label read by instrumentation (e.g. "fetch", "api.alloc").
    tag: str = ""
    #: A slave protocol's decode of ``burst_data`` (then fixed), kept for
    #: every layer the request crosses; opaque to the fabric.  A class
    #: default, not a field: no constructor, comparison or repr carries it.
    decoded = None
    #: The shadow-map row a served ALLOC / FREE / RESERVE / RELEASE acted
    #: on, left by :meth:`ShadowMap.snoop`; a class default like ``decoded``.
    row = None
    #: The address-map region the fabric decoded ``address`` to when it
    #: queued the request (``None`` on a decode error), so instrumentation
    #: decodes nothing again; a class default like ``decoded``.
    region = None

    def __post_init__(self) -> None:
        if self.size not in (1, 2, WORD_SIZE):
            raise ValueError(f"unsupported transfer size {self.size}")
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.burst_length < 0:
            raise ValueError("burst length must be non-negative")

    @property
    def is_burst(self) -> bool:
        """True when the request transfers more than one word."""
        return bool(self.burst_data) or self.burst_length > 0

    @property
    def word_count(self) -> int:
        """Number of data words moved by this request."""
        if self.burst_data is not None:
            return len(self.burst_data)
        if self.burst_length:
            return self.burst_length
        return 1

    def describe(self) -> str:
        """Short human-readable description used in logs and error messages."""
        kind = "burst " if self.is_burst else ""
        return (
            f"{kind}{self.op.value} m{self.master_id} @0x{self.address:08x} "
            f"({self.word_count} word{'s' if self.word_count != 1 else ''})"
        )


#: Tag suffixes of cache-internal transfers (line fills, writebacks, I/O
#: array restages), appended to the cache's name.  They move data on
#: behalf of *some* master through *some* port and carry no software-level
#: ordering, so instrumentation tells them apart from PE traffic by tag.
CACHE_TAG_SUFFIXES = (".fill", ".writeback", ".restage")


def cache_transfer_kind(tag: str) -> Optional[str]:
    """``"fill"`` / ``"writeback"`` / ``"restage"`` when ``tag`` marks a
    cache-internal transfer, ``None`` for a master's own traffic."""
    if not tag.endswith(CACHE_TAG_SUFFIXES):
        return None
    return tag[tag.rindex(".") + 1:]


@dataclass
class BusResponse:
    """The slave's answer to a :class:`BusRequest`."""

    status: ResponseStatus = ResponseStatus.OK
    #: Word returned by scalar reads (or a status/result word for wrappers).
    data: int = 0
    #: Words returned by burst reads.
    burst_data: List[int] = field(default_factory=list)
    #: Cycles the slave spent serving the request (filled by the slave).
    slave_cycles: int = 0
    #: Total cycles from grant to completion (filled by the interconnect).
    total_cycles: int = 0

    @property
    def ok(self) -> bool:
        """True when the transaction completed successfully."""
        return self.status is ResponseStatus.OK


def decode_error_response() -> BusResponse:
    """A canned response for requests that hit an unmapped address."""
    return BusResponse(status=ResponseStatus.DECODE_ERROR)
