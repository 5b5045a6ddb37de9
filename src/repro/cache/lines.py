"""Resident L1 lines and the set-associative directory that holds them.

The synchronous line store of one cache: what :class:`~repro.cache.l1.L1Cache`
keeps, and what the coherence domain and the coherence checker read and
drop from outside it.  Nothing here suspends or issues bus traffic; the
cache's generators decide *when* a line is filled, written back or evicted.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from ..memory.dynamic_base import to_signed
from ..memory.protocol import DataType
from .geometry import CacheGeometry
from .shadow import SharedAllocation


def canonical_word(value: int, data_type: DataType) -> int:
    """The raw word the wrapper would return for a stored ``value``.

    Mirrors the translator's element encode/decode round trip (truncate to
    the element width, sign-extend signed types, mask to 32 bits).
    """
    return to_signed(value, data_type) & 0xFFFFFFFF


class MSIState(enum.Enum):
    """Stable states of a resident line (INVALID = not resident)."""

    SHARED = "S"
    MODIFIED = "M"


class CacheLine:
    """One resident line: the slice of an allocation a line range covers."""

    __slots__ = ("alloc", "line_no", "first_index", "words", "present",
                 "dirty", "state")

    def __init__(self, alloc: SharedAllocation, line_no: int,
                 first_index: int, count: int) -> None:
        self.alloc = alloc
        self.line_no = line_no
        #: Element index (within the allocation) stored in slot 0.
        self.first_index = first_index
        self.words: List[int] = [0] * count
        self.present: List[bool] = [False] * count
        self.dirty: List[bool] = [False] * count
        self.state = MSIState.SHARED

    # -- geometry ----------------------------------------------------------------
    @property
    def mem_index(self) -> int:
        return self.alloc.mem_index

    @property
    def n_slots(self) -> int:
        return len(self.words)

    @property
    def lo_byte(self) -> int:
        return self.alloc.element_byte(self.first_index)

    @property
    def hi_byte(self) -> int:
        return self.alloc.element_byte(self.first_index + self.n_slots)

    def slot_of(self, element_index: int) -> int:
        return element_index - self.first_index

    def covers(self, element_index: int) -> bool:
        return 0 <= element_index - self.first_index < self.n_slots

    # -- state -------------------------------------------------------------------
    def store(self, slot: int, word: int) -> None:
        """Hold ``word`` (canonical form) in ``slot`` as newer than memory."""
        self.words[slot] = word
        self.present[slot] = True
        self.dirty[slot] = True

    def has_dirty(self) -> bool:
        return any(self.dirty)

    def is_modified(self) -> bool:
        return self.state is MSIState.MODIFIED

    def downgrade(self) -> None:
        """MODIFIED -> SHARED after a successful writeback."""
        if not self.has_dirty():
            self.state = MSIState.SHARED

    def scrub_slots(self, lo_byte: int, hi_byte: int,
                    supersede_dirty: bool = False) -> None:
        """Mark the slots inside ``[lo_byte, hi_byte)`` absent.

        Used after a write reached memory without going through this cache.
        By default only clean slots are scrubbed (a concurrently racing
        *cached* writer's dirty data is still owed a writeback); with
        ``supersede_dirty`` the dirty slots in the range are discarded too —
        the caller knows the memory write serialized *after* them (an
        uncached master's write observed on the bus), so writing them back
        later would clobber the newer value.
        """
        size = self.alloc.element_size
        for slot in range(self.n_slots):
            byte = self.alloc.element_byte(self.first_index + slot)
            if lo_byte < byte + size and byte < hi_byte:
                if supersede_dirty:
                    self.dirty[slot] = False
                    self.present[slot] = False
                elif not self.dirty[slot]:
                    self.present[slot] = False
        if supersede_dirty:
            self.downgrade()

    def dirty_runs(self) -> List[Tuple[int, int]]:
        """Contiguous runs of dirty slots as ``(slot_start, length)``."""
        runs: List[Tuple[int, int]] = []
        start = None
        for slot, is_dirty in enumerate(self.dirty):
            if is_dirty and start is None:
                start = slot
            elif not is_dirty and start is not None:
                runs.append((start, slot - start))
                start = None
        if start is not None:
            runs.append((start, len(self.dirty) - start))
        return runs


class LineDirectory:
    """The resident lines of one cache: per set, at most ``ways`` lines,
    most recently used first."""

    def __init__(self, geometry: CacheGeometry) -> None:
        #: Geometry read on every lookup, hoisted.
        self._n_sets = geometry.sets
        self._line_bytes = geometry.line_bytes
        self.sets: List[List[CacheLine]] = [[] for _ in range(geometry.sets)]

    def ways_of(self, line_no: int) -> List[CacheLine]:
        """The set ``line_no`` maps to (modulo placement), MRU first."""
        return self.sets[line_no % self._n_sets]

    def lookup(self, mem_index: int, alloc_uid: int, line_no: int
               ) -> Optional[CacheLine]:
        """The resident line ``line_no`` of allocation generation
        ``alloc_uid``, moved to MRU; ``None`` when it is not resident."""
        ways = self.sets[line_no % self._n_sets]
        for position, line in enumerate(ways):
            alloc = line.alloc
            if (line.line_no == line_no and alloc.uid == alloc_uid
                    and alloc.mem_index == mem_index):
                if position:  # move to MRU
                    ways.pop(position)
                    ways.insert(0, line)
                return line
        return None

    def holds(self, line: CacheLine) -> bool:
        """True while ``line`` is resident."""
        return line in self.sets[line.line_no % self._n_sets]

    def discard(self, line: CacheLine) -> bool:
        """Remove ``line``; False when it was not resident."""
        ways = self.sets[line.line_no % self._n_sets]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def overlapping(self, mem_index: int, lo_byte: int, hi_byte: int
                    ) -> List[CacheLine]:
        """Every resident line overlapping ``[lo_byte, hi_byte)`` byte range.

        An overlapping line's ``line_no`` necessarily falls inside the
        range's line-number span (lines are clamped to their line's byte
        window), so small ranges probe only their sets instead of walking
        the whole directory; ranges wider than the directory fall back to
        the full scan.
        """
        if hi_byte <= lo_byte:
            return []
        line_nos = range(lo_byte // self._line_bytes,
                         (hi_byte - 1) // self._line_bytes + 1)
        if len(line_nos) <= self._n_sets:
            candidates = [line for line_no in line_nos
                          for line in self.sets[line_no % self._n_sets]
                          if line.line_no == line_no]
        else:
            candidates = [line for ways in self.sets for line in ways]
        return [line for line in candidates
                if line.mem_index == mem_index and line.lo_byte < hi_byte
                and lo_byte < line.hi_byte]

    def dirty_overlapping(self, mem_index: int, lo_byte: int, hi_byte: int
                          ) -> List[CacheLine]:
        """:meth:`overlapping`, only the lines holding dirty slots."""
        return [line for line in self.overlapping(mem_index, lo_byte, hi_byte)
                if line.has_dirty()]

    def span(self, alloc: SharedAllocation, line_no: int) -> Tuple[int, int]:
        """Element range ``(first, count)`` of ``alloc`` inside ``line_no``."""
        line_lo = line_no * self._line_bytes
        size = alloc.element_size
        first = max(0, -((line_lo - alloc.vptr) // -size))
        last = min(alloc.dim - 1,
                   (line_lo + self._line_bytes - 1 - alloc.vptr) // size)
        return first, max(0, last - first + 1)

    def line_numbers(self, alloc: SharedAllocation, start: int, count: int
                     ) -> range:
        """Line numbers covering ``alloc[start:start+count]``."""
        return range(alloc.element_byte(start) // self._line_bytes,
                     (alloc.element_byte(start + count) - 1)
                     // self._line_bytes + 1)

    def __iter__(self) -> Iterator[CacheLine]:
        """Every resident line (snapshot order; safe against mutation)."""
        return iter([line for ways in self.sets for line in ways])

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets)
