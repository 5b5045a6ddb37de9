"""The wrapper's pointer table.

Figure 2 of the paper shows the table at the heart of the wrapper's
functional part.  Each live allocation has one entry holding:

* the **virtual pointer** (Vptr) handed to the simulated software,
* the **host pointer** (Hptr) — here a :class:`~repro.memory.HostBlock`,
* the element **type** and **dimension** of the allocation,
* the **reservation bit** used as a semaphore for data coherence.

Virtual pointers are generated exactly as described in the paper: every new
Vptr is the previous entry's Vptr plus the previous allocation's size in
bytes, and the very first Vptr is zero (an optional ``base_vptr`` shifts the
whole virtual range, which platforms use to give every shared memory its own
virtual window).  On deallocation the entry is removed and the table is
re-compacted; surviving Vptrs never change.

That rule keeps the table strictly sorted by Vptr with disjoint ranges (a
new entry starts where the last survivor ends), so one sorted Vptr list
searched with ``bisect`` serves exact-base lookup and interior-pointer
resolve alike: both O(log live), byte accounting O(1) (a running counter),
removal O(log live) plus the list compaction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..memory.host_memory import HostBlock
from ..memory.protocol import DATA_TYPE_SIZES, DataType
from .errors import PointerTableError


@dataclass(slots=True)
class PointerEntry:
    """One row of the pointer table.

    ``vptr``, ``dim`` and ``data_type`` never change once the row exists, so
    the sizes derived from them are fixed at construction.
    """

    vptr: int
    hptr: HostBlock
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

    @property
    def reserved(self) -> bool:
        """True when some master holds the reservation bit."""
        return self.reserved_by is not None

    def contains(self, vptr: int) -> bool:
        """True when ``vptr`` points inside this allocation."""
        return self.vptr <= vptr < self.end_vptr


class PointerTable:
    """Ordered table of live allocations with paper-faithful Vptr generation."""

    def __init__(self, capacity_bytes: Optional[int] = None, base_vptr: int = 0) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity must be positive (or None for unlimited)")
        self.capacity_bytes = capacity_bytes
        self.base_vptr = base_vptr
        self._entries: List[PointerEntry] = []
        #: ``_entries[i].vptr`` for every row: the strictly increasing search index.
        self._vptrs: List[int] = []
        self._used_bytes = 0
        #: Running counters used by the evaluation benches.
        self.total_allocations = 0
        self.total_frees = 0
        self.peak_entries = 0
        self.peak_used_bytes = 0

    # -- size accounting -----------------------------------------------------------
    def used_bytes(self) -> int:
        """Sum of the live allocations' sizes."""
        return self._used_bytes

    def free_bytes(self) -> Optional[int]:
        """Remaining capacity, or ``None`` when the table is unlimited."""
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self._used_bytes

    def would_fit(self, size_bytes: int) -> bool:
        """True if an allocation of ``size_bytes`` respects the capacity limit."""
        if self.capacity_bytes is None:
            return True
        return self._used_bytes + size_bytes <= self.capacity_bytes

    # -- Vptr generation ---------------------------------------------------------------
    def next_vptr(self) -> int:
        """The Vptr the next allocation will receive.

        Paper rule: previous entry's Vptr plus previous allocation's size;
        zero (plus the configured base) for the first entry.
        """
        if not self._entries:
            return self.base_vptr
        return self._entries[-1].end_vptr

    # -- table operations ------------------------------------------------------------------
    def insert(self, hptr: HostBlock, dim: int, data_type: DataType) -> PointerEntry:
        """Add a new allocation and return its entry (Vptr already assigned)."""
        if dim <= 0:
            raise PointerTableError("allocation dimension must be positive")
        size_bytes = dim * DATA_TYPE_SIZES[data_type]
        if not self.would_fit(size_bytes):
            raise PointerTableError(
                f"allocation of {size_bytes} bytes exceeds capacity "
                f"{self.capacity_bytes}"
            )
        entry = PointerEntry(self.next_vptr(), hptr, dim, data_type)
        self._entries.append(entry)
        self._vptrs.append(entry.vptr)
        self._used_bytes += size_bytes
        self.total_allocations += 1
        self.peak_entries = max(self.peak_entries, len(self._entries))
        self.peak_used_bytes = max(self.peak_used_bytes, self._used_bytes)
        return entry

    def _base_index(self, vptr: int) -> int:
        """Position of the entry whose Vptr is exactly ``vptr``."""
        index = bisect_right(self._vptrs, vptr) - 1
        if index < 0 or self._vptrs[index] != vptr:
            raise PointerTableError(f"no allocation with Vptr {vptr:#x}")
        return index

    def remove(self, vptr: int) -> PointerEntry:
        """Remove the entry whose Vptr is exactly ``vptr`` and re-compact.

        Re-compaction preserves the order and the Vptrs of the surviving
        entries (only the lists are compacted, as in the paper).
        """
        index = self._base_index(vptr)
        entry = self._entries.pop(index)
        del self._vptrs[index]
        self._used_bytes -= entry.size_bytes
        self.total_frees += 1
        return entry

    def lookup(self, vptr: int) -> PointerEntry:
        """Find the entry whose Vptr is exactly ``vptr``."""
        return self._entries[self._base_index(vptr)]

    def resolve(self, vptr: int) -> Tuple[PointerEntry, int]:
        """Resolve a possibly-interior pointer to ``(entry, byte_offset)``.

        This implements the paper's pointer-arithmetic support: a Vptr that
        is not in the table is matched against the allocation that contains
        it, and the host pointer is later offset accordingly.
        """
        # Ranges are disjoint: only the last entry starting at or below
        # ``vptr`` can contain it.
        index = bisect_right(self._vptrs, vptr) - 1
        if index >= 0 and self._entries[index].contains(vptr):
            return self._entries[index], vptr - self._vptrs[index]
        raise PointerTableError(f"Vptr {vptr:#x} does not fall in any allocation")

    def try_resolve(self, vptr: int) -> Optional[Tuple[PointerEntry, int]]:
        """Like :meth:`resolve` but returns ``None`` instead of raising."""
        try:
            return self.resolve(vptr)
        except PointerTableError:
            return None

    # -- reservation bits --------------------------------------------------------------------
    def reserve(self, vptr: int, master_id: int) -> PointerEntry:
        """Set the reservation bit of ``vptr`` on behalf of ``master_id``."""
        entry = self.lookup(vptr)
        if entry.reserved and entry.reserved_by != master_id:
            raise PointerTableError(
                f"Vptr {vptr:#x} already reserved by master {entry.reserved_by}"
            )
        entry.reserved_by = master_id
        return entry

    def release(self, vptr: int, master_id: int) -> PointerEntry:
        """Clear the reservation bit (only the holder may clear it)."""
        entry = self.lookup(vptr)
        if entry.reserved and entry.reserved_by != master_id:
            raise PointerTableError(
                f"Vptr {vptr:#x} is reserved by master {entry.reserved_by}"
            )
        entry.reserved_by = None
        return entry

    def check_access(self, entry: PointerEntry, master_id: int) -> bool:
        """True when ``master_id`` may modify ``entry`` (reservation honoured)."""
        return not entry.reserved or entry.reserved_by == master_id

    # -- inspection ---------------------------------------------------------------------------
    @property
    def entries(self) -> List[PointerEntry]:
        """Live entries in table order (oldest first)."""
        return list(self._entries)

    def live_count(self) -> int:
        """Number of live allocations."""
        return len(self._entries)

    def check_consistency(self) -> None:
        """Verify the table invariants in one pass over the sorted order.

        Vptrs strictly increase and no range reaches into the next one, the
        search index and the byte counter agree with the rows, and the
        capacity is respected.  Only live entries count: Vptr ranges are
        legitimately *reused* after frees (see the generation rule).
        """
        if self._vptrs != [entry.vptr for entry in self._entries]:
            raise PointerTableError("Vptr index out of step with the entries")
        floor = self.base_vptr
        for entry in self._entries:
            if entry.dim <= 0:
                raise PointerTableError("entry with non-positive dimension")
            if entry.vptr < floor:
                raise PointerTableError(
                    f"virtual range at {entry.vptr:#x} starts below {floor:#x}")
            floor = entry.end_vptr
        if self._used_bytes != sum(entry.size_bytes for entry in self._entries):
            raise PointerTableError("used-bytes counter out of step with the entries")
        if self.capacity_bytes is not None and self._used_bytes > self.capacity_bytes:
            raise PointerTableError("capacity limit exceeded")
