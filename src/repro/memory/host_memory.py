"""The host-machine memory layer.

The paper's key idea is to let the *host* machine's memory management carry
the simulated application's dynamic data: allocations become host ``calloc``
calls, accesses become native loads/stores, deallocation becomes ``free``.
In this Python reproduction the host layer hands out :class:`HostBlock`
objects backed by ``bytearray`` storage — the Python equivalent of a pointer
returned by ``calloc`` — and tracks global usage statistics so the capacity
experiments can report how much host memory the simulation actually holds.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Dict, Optional


class HostAllocationError(Exception):
    """Raised when the host layer refuses an allocation (limit exceeded)."""


class HostAccessError(Exception):
    """Raised on out-of-bounds access to a host block or use-after-free."""


@dataclass
class HostMemoryStats:
    """Aggregate statistics of the host memory layer."""

    alloc_calls: int = 0
    free_calls: int = 0
    bytes_allocated: int = 0
    bytes_freed: int = 0
    live_bytes: int = 0
    peak_live_bytes: int = 0
    native_reads: int = 0
    native_writes: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view used by reports."""
        return asdict(self)


class HostBlock:
    """A host allocation: the reproduction's stand-in for a real ``Hptr``."""

    __slots__ = ("handle", "size", "_data", "_owner", "freed")

    def __init__(self, handle: int, size: int, owner: "HostMemory") -> None:
        self.handle = handle
        self.size = size
        self._data = bytearray(size)  # calloc semantics: zero-initialised
        self._owner = owner
        self.freed = False

    # -- native accesses ---------------------------------------------------
    def read_bytes(self, offset: int, length: int) -> bytearray:
        """Read ``length`` bytes starting at ``offset`` (a copy)."""
        self._check(offset, length)
        self._owner.stats.native_reads += 1
        return self._data[offset:offset + length]

    def write_bytes(self, offset: int, payload: bytes) -> None:
        """Write ``payload`` starting at ``offset``."""
        self._check(offset, len(payload))
        self._owner.stats.native_writes += 1
        self._data[offset:offset + len(payload)] = payload

    def _check(self, offset: int, length: int) -> None:
        if self.freed:
            raise HostAccessError(f"use-after-free of host block {self.handle}")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise HostAccessError(
                f"access [{offset}, {offset + length}) outside host block of "
                f"{self.size} bytes"
            )

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "freed" if self.freed else "live"
        return f"HostBlock(handle={self.handle}, size={self.size}, {state})"


class HostMemory:
    """The host OS / MMU / memory abstraction of Figure 1's bottom layer.

    ``limit_bytes`` optionally caps the total live bytes the host layer will
    hand out, which lets tests exercise host-side allocation failure
    independently of the *simulated* capacity limit enforced by the wrapper.
    """

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        self.limit_bytes = limit_bytes
        self.stats = HostMemoryStats()
        self._blocks: Dict[int, HostBlock] = {}
        self._handles = itertools.count(1)

    # -- calloc / free ----------------------------------------------------------
    def calloc(self, count: int, element_size: int) -> HostBlock:
        """Allocate ``count * element_size`` zero-initialised bytes."""
        if count < 0 or element_size <= 0:
            raise HostAllocationError(
                f"invalid calloc({count}, {element_size}) request"
            )
        size = count * element_size
        if self.limit_bytes is not None and self.stats.live_bytes + size > self.limit_bytes:
            raise HostAllocationError(
                f"host memory limit of {self.limit_bytes} bytes exceeded"
            )
        block = HostBlock(next(self._handles), size, self)
        self._blocks[block.handle] = block
        self.stats.alloc_calls += 1
        self.stats.bytes_allocated += size
        self.stats.live_bytes += size
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes,
                                         self.stats.live_bytes)
        return block

    def malloc(self, size: int) -> HostBlock:
        """Allocate ``size`` bytes (zero-initialised, like ``calloc(size, 1)``)."""
        return self.calloc(size, 1)

    def free(self, block: HostBlock) -> None:
        """Release a block; double frees raise :class:`HostAccessError`."""
        if block.freed or block.handle not in self._blocks:
            raise HostAccessError(f"double free of host block {block.handle}")
        block.freed = True
        del self._blocks[block.handle]
        self.stats.free_calls += 1
        self.stats.bytes_freed += block.size
        self.stats.live_bytes -= block.size

    # -- queries -------------------------------------------------------------------
    @property
    def live_blocks(self) -> int:
        """Number of currently live allocations."""
        return len(self._blocks)

    def check_all_freed(self) -> bool:
        """True when every allocation has been released (leak check)."""
        return not self._blocks
