"""The wrapper's pointer table.

Figure 2 of the paper shows the table at the heart of the wrapper's
functional part.  Each live allocation has one entry holding:

* the **virtual pointer** (Vptr) handed to the simulated software,
* the **host pointer** (Hptr) — here a :class:`~repro.memory.HostBlock`,
* the element **type** and **dimension** of the allocation,
* the **reservation bit** used as a semaphore for data coherence (the
  protocol rule that sets and clears it lives in
  :class:`~repro.memory.dynamic_base.DynamicMemorySlave`).

Virtual pointers are generated exactly as described in the paper: every new
Vptr is the previous entry's Vptr plus the previous allocation's size in
bytes, and the very first Vptr is zero (an optional ``base_vptr`` shifts the
whole virtual range, which platforms use to give every shared memory its own
virtual window).  On deallocation the entry is removed and the table is
re-compacted; surviving Vptrs never change.

That rule makes every new entry start where the last survivor ends, so the
table is an :class:`~repro.memory.dynamic_base.AllocationIndex` whose every
insert is an append: exact-base lookup, interior-pointer resolve and removal
are one ``bisect`` each, O(log live) plus the list compaction, and byte
accounting is O(1) (the index's running ``live_bytes``).  This module adds
only what the paper adds to that index: Vptr generation, the capacity limit,
the bench counters and :meth:`PointerTable.check_consistency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..memory.dynamic_base import Allocation, AllocationIndex
from ..memory.host_memory import HostBlock
from ..memory.protocol import DATA_TYPE_SIZES, DataType
from .errors import PointerTableError


@dataclass(slots=True, eq=False)
class PointerEntry(Allocation):
    """One row of the pointer table: an :class:`Allocation` plus its host
    block (the paper's Hptr)."""

    hptr: HostBlock = field(kw_only=True)


class PointerTable(AllocationIndex):
    """Ordered table of live allocations with paper-faithful Vptr generation."""

    def __init__(self, capacity_bytes: Optional[int] = None, base_vptr: int = 0) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity must be positive (or None for unlimited)")
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self.base_vptr = base_vptr
        #: Running counters used by the evaluation benches.
        self.total_allocations = 0
        self.total_frees = 0
        self.peak_entries = 0
        self.peak_used_bytes = 0

    # -- size accounting -----------------------------------------------------------
    def would_fit(self, size_bytes: int) -> bool:
        """True if an allocation of ``size_bytes`` respects the capacity limit."""
        if self.capacity_bytes is None:
            return True
        return self.live_bytes + size_bytes <= self.capacity_bytes

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
        # Paper rule: previous entry's Vptr plus previous allocation's size;
        # zero (plus the configured base) for the first entry.
        vptr = self.rows[-1].end_vptr if self.rows else self.base_vptr
        entry = PointerEntry(vptr, dim, data_type, hptr=hptr)
        self.add(entry)
        self.total_allocations += 1
        self.peak_entries = max(self.peak_entries, len(self.rows))
        self.peak_used_bytes = max(self.peak_used_bytes, self.live_bytes)
        return entry

    def remove(self, vptr: int) -> PointerEntry:
        """Remove the entry whose Vptr is exactly ``vptr`` and re-compact.

        Re-compaction preserves the order and the Vptrs of the surviving
        entries (only the lists are compacted, as in the paper).
        """
        entry = super().remove(vptr)
        if entry is None:
            raise PointerTableError(f"no allocation with Vptr {vptr:#x}")
        self.total_frees += 1
        return entry

    # -- inspection ---------------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify the table invariants in one pass over the sorted order.

        Vptrs strictly increase and no range reaches into the next one, the
        search index and the byte counter agree with the rows, and the
        capacity is respected.  Only live entries count: Vptr ranges are
        legitimately *reused* after frees (see the generation rule).
        """
        if self.bases != [entry.vptr for entry in self.rows]:
            raise PointerTableError("Vptr index out of step with the entries")
        floor = self.base_vptr
        for entry in self.rows:
            if entry.dim <= 0:
                raise PointerTableError("entry with non-positive dimension")
            if entry.vptr < floor:
                raise PointerTableError(
                    f"virtual range at {entry.vptr:#x} starts below {floor:#x}")
            floor = entry.end_vptr
        if self.live_bytes != sum(entry.size_bytes for entry in self.rows):
            raise PointerTableError("used-bytes counter out of step with the entries")
        if self.capacity_bytes is not None and self.live_bytes > self.capacity_bytes:
            raise PointerTableError("capacity limit exceeded")
