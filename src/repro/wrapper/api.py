"""High-level software API for the dynamic shared memories.

The paper provides the ISSs with "high level APIs very similar to the host
machine functions ... using a C formalism".  :class:`SharedMemoryAPI` is
that layer: a thin, allocation-aware client bound to one master port and one
dynamic memory's bus window.  All methods are generators meant to be driven
with ``yield from`` inside a kernel process (ISS or task processor), because
every call turns into interconnect transactions::

    vptr = yield from smem.alloc(160, DataType.INT16)   # sm_calloc()
    yield from smem.write(vptr, sample, offset=i)       # *(ptr + i) = sample
    value = yield from smem.read(vptr, offset=i)        # sample = *(ptr + i)
    yield from smem.free(vptr)                          # sm_free()

The same API drives both the host-backed wrapper and the fully-modelled
baseline, since they share the protocol of :mod:`repro.memory.protocol`.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..fabric import BusResponse, MasterPort, ResponseStatus
from ..memory.dynamic_base import to_signed
from ..memory.protocol import (
    IO_ARRAY_BASE,
    IO_ARRAY_BYTES,
    REG_COMMAND,
    REG_STATUS,
    DataType,
    MemOpcode,
    MemStatus,
)
from .errors import ApiError

#: Maximum number of words one I/O-array transfer can stage.
IO_ARRAY_WORDS = IO_ARRAY_BYTES // 4

# Opcodes as the plain ints ``MemCommand.to_words()`` puts on the wire: each
# operation writes its ``[opcode, sm_addr, operands...]`` list itself.
_ALLOC, _FREE, _QUERY = int(MemOpcode.ALLOC), int(MemOpcode.FREE), int(MemOpcode.QUERY)
_READ, _WRITE = int(MemOpcode.READ), int(MemOpcode.WRITE)
_READ_ARRAY, _WRITE_ARRAY = int(MemOpcode.READ_ARRAY), int(MemOpcode.WRITE_ARRAY)
_RESERVE, _RELEASE = int(MemOpcode.RESERVE), int(MemOpcode.RELEASE)

#: Every operation name that tags a transaction (``<tag_prefix>.<name>``).
_OPERATIONS = ("alloc", "free", "query", "write", "read", "write_array",
               "read_array", "reserve", "release", "status", "io_stage",
               "io_fetch")


class SharedMemoryAPI:
    """C-formalism dynamic memory API bound to one memory module's window."""

    def __init__(
        self,
        port: MasterPort,
        base_address: int,
        sm_addr: int = 0,
        raise_on_error: bool = True,
        tag_prefix: str = "smem",
    ) -> None:
        self.port = port
        self.base_address = base_address
        self.sm_addr = sm_addr
        self.raise_on_error = raise_on_error
        self.tag_prefix = tag_prefix
        self._command_addr = base_address + REG_COMMAND
        self._io_array_addr = base_address + IO_ARRAY_BASE
        #: Operation name -> transaction tag, formatted once per API object.
        self._tags = {op: f"{tag_prefix}.{op}" for op in _OPERATIONS}
        #: Status of the most recent operation (updated on every call).
        self.last_status: MemStatus = MemStatus.OK
        #: Count of API calls issued, for reports.
        self.calls = 0
        #: The port's hit front (``PortHelpers``), read once.
        self._scalar_hit, self._hit_wait = port.scalar_hit, port.hit_wait

    # -- low-level helpers ------------------------------------------------------------
    def _send(self, words: List[int], tag: str
              ) -> Generator[object, None, BusResponse]:
        self.calls += 1
        response = yield from self.port.burst_write(
            self._command_addr, words, tag=self._tags[tag])
        if response.status is ResponseStatus.OK:
            self.last_status = MemStatus.OK
        else:
            yield from self._fetch_error_status(tag)
        return response

    def _fetch_error_status(self, tag: str) -> Generator[object, None, None]:
        """Read the status register after a refused command (and raise)."""
        self.last_status = yield from self.status()
        if self.raise_on_error:
            raise ApiError(
                f"shared-memory operation {tag!r} failed with "
                f"{self.last_status.name}", int(self.last_status)
            )

    # -- management calls ---------------------------------------------------------------
    def alloc(self, dim: int, data_type: DataType = DataType.UINT32
              ) -> Generator[object, None, Optional[int]]:
        """``sm_calloc(dim, type)`` — returns the new Vptr (None on failure)."""
        response = yield from self._send(
            [_ALLOC, self.sm_addr, dim, int(data_type)], "alloc")
        return response.data if response.ok else None

    def free(self, vptr: int) -> Generator[object, None, bool]:
        """``sm_free(vptr)`` — returns True on success."""
        response = yield from self._send([_FREE, self.sm_addr, vptr], "free")
        return response.ok

    def query(self, vptr: int) -> Generator[object, None, Optional[int]]:
        """Size in bytes of the allocation holding ``vptr`` (None if unknown)."""
        response = yield from self._send([_QUERY, self.sm_addr, vptr], "query")
        return response.data if response.ok else None

    # -- scalar accesses -----------------------------------------------------------------
    # ``write`` and ``read`` are ``_send`` written out, after the cached
    # port's hit front: a scalar access that hits in an L1 is the hottest
    # path of a cached platform, and is answered here without a command.
    def write(self, vptr: int, value: int, offset: int = 0
              ) -> Generator[object, None, bool]:
        """Store one element at ``vptr[offset]``."""
        self.calls += 1
        value &= 0xFFFFFFFF
        if self._scalar_hit is not None and self._scalar_hit(
                self._command_addr, True, self.sm_addr, vptr, offset,
                value) is not None:
            yield self._hit_wait
            self.last_status = MemStatus.OK
            return True
        response = yield from self.port.burst_write(
            self._command_addr, [_WRITE, self.sm_addr, vptr, offset, value],
            tag=self._tags["write"])
        if response.status is ResponseStatus.OK:
            self.last_status = MemStatus.OK
            return True
        yield from self._fetch_error_status("write")
        return False

    def read(self, vptr: int, offset: int = 0
             ) -> Generator[object, None, Optional[int]]:
        """Load one element from ``vptr[offset]`` as a raw unsigned word."""
        self.calls += 1
        if self._scalar_hit is not None:
            word = self._scalar_hit(self._command_addr, False, self.sm_addr,
                                    vptr, offset, 0)
            if word is not None:
                yield self._hit_wait
                self.last_status = MemStatus.OK
                return word
        response = yield from self.port.burst_write(
            self._command_addr, [_READ, self.sm_addr, vptr, offset],
            tag=self._tags["read"])
        if response.status is ResponseStatus.OK:
            self.last_status = MemStatus.OK
            return response.data
        yield from self._fetch_error_status("read")
        return None

    def read_signed(self, vptr: int, data_type: DataType, offset: int = 0
                    ) -> Generator[object, None, Optional[int]]:
        """Load one element and sign-extend it according to ``data_type``."""
        raw = yield from self.read(vptr, offset=offset)
        if raw is None:
            return None
        return to_signed(raw, data_type)

    # -- indexed structure (array) transfers ------------------------------------------------
    def write_array(self, vptr: int, values: List[int], offset: int = 0
                    ) -> Generator[object, None, bool]:
        """Store a whole array, chunked through the I/O array window."""
        position = 0
        while position < len(values):
            chunk = values[position:position + IO_ARRAY_WORDS]
            if min(chunk) < 0 or max(chunk) > 0xFFFFFFFF:
                chunk = [v & 0xFFFFFFFF for v in chunk]
            yield from self.port.burst_write(
                self._io_array_addr, chunk, tag=self._tags["io_stage"])
            response = yield from self._send(
                [_WRITE_ARRAY, self.sm_addr, vptr, offset + position, len(chunk)],
                "write_array",
            )
            if not response.ok:
                return False
            position += len(chunk)
        return True

    def read_array(self, vptr: int, dim: int, offset: int = 0
                   ) -> Generator[object, None, Optional[List[int]]]:
        """Load ``dim`` elements, chunked through the I/O array window."""
        values: List[int] = []
        position = 0
        while position < dim:
            chunk_len = min(IO_ARRAY_WORDS, dim - position)
            response = yield from self._send(
                [_READ_ARRAY, self.sm_addr, vptr, offset + position, chunk_len],
                "read_array",
            )
            if not response.ok:
                return None
            data = yield from self.port.burst_read(
                self._io_array_addr, chunk_len,
                tag=self._tags["io_fetch"],
            )
            values.extend(data.burst_data)
            position += chunk_len
        return values

    def read_array_signed(self, vptr: int, dim: int, data_type: DataType,
                          offset: int = 0
                          ) -> Generator[object, None, Optional[List[int]]]:
        """Load ``dim`` elements and sign-extend each according to ``data_type``."""
        raw = yield from self.read_array(vptr, dim, offset=offset)
        if raw is None:
            return None
        return [to_signed(word, data_type) for word in raw]

    # -- coherence -----------------------------------------------------------------------------
    def reserve(self, vptr: int) -> Generator[object, None, bool]:
        """Set the reservation bit of ``vptr`` (semaphore acquire)."""
        response = yield from self._send([_RESERVE, self.sm_addr, vptr], "reserve")
        return response.ok

    def release(self, vptr: int) -> Generator[object, None, bool]:
        """Clear the reservation bit of ``vptr`` (semaphore release)."""
        response = yield from self._send([_RELEASE, self.sm_addr, vptr], "release")
        return response.ok

    def try_reserve(self, vptr: int) -> Generator[object, None, bool]:
        """Non-raising reserve; returns False when another master holds it."""
        saved = self.raise_on_error
        self.raise_on_error = False
        try:
            ok = yield from self.reserve(vptr)
        finally:
            self.raise_on_error = saved
        return ok

    # -- convenience --------------------------------------------------------------------------------
    def memcpy(self, dst_vptr: int, src_vptr: int, dim: int,
               dst_offset: int = 0, src_offset: int = 0
               ) -> Generator[object, None, bool]:
        """Copy ``dim`` elements between two allocations (possibly on one memory)."""
        data = yield from self.read_array(src_vptr, dim, offset=src_offset)
        if data is None:
            return False
        return (yield from self.write_array(dst_vptr, data, offset=dst_offset))

    def status(self) -> Generator[object, None, MemStatus]:
        """Read the memory module's status register."""
        response = yield from self.port.read(self.base_address + REG_STATUS,
                                             tag=self._tags["status"])
        try:
            return MemStatus(response.data)
        except ValueError:
            return MemStatus.ERR_MALFORMED
