"""Resident L1 lines and the set-associative directory that holds them.

The synchronous line store of one cache: what :class:`~repro.cache.l1.L1Cache`
keeps, and what the coherence domain and the coherence checker read and
drop from outside it.  Nothing here suspends or issues bus traffic; the
cache's generators decide *when* a line is filled, written back or evicted.
"""

from __future__ import annotations

import enum
from itertools import groupby
from typing import Iterator, List, Optional, Tuple

from ..memory.dynamic_base import to_signed
from ..memory.protocol import DATA_TYPE_SIZES, DataType
from .geometry import CacheGeometry
from .shadow import SharedAllocation


def canonical_word(value: int, data_type: DataType) -> int:
    """The raw word the wrapper would return for a stored ``value``.

    Mirrors the translator's element encode/decode round trip (truncate to
    the element width, sign-extend signed types, mask to 32 bits).
    """
    return to_signed(value, data_type) & 0xFFFFFFFF


def canonical_words(words: List[int], data_type: DataType = DataType.UINT32
                    ) -> List[int]:
    """:func:`canonical_word` of each of ``words``; for a 32-bit type (the
    default), ``words`` itself when all are in range: no per-word Python."""
    if DATA_TYPE_SIZES[data_type] != 4:
        return [canonical_word(word, data_type) for word in words]
    if not words or (min(words) >= 0 and max(words) <= 0xFFFFFFFF):
        return words
    return [word & 0xFFFFFFFF for word in words]


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
    def lo_byte(self) -> int:
        return self.alloc.element_byte(self.first_index)

    @property
    def hi_byte(self) -> int:
        return self.alloc.element_byte(self.first_index + len(self.words))

    # -- state -------------------------------------------------------------------
    def install_clean(self, slot: int, words: List[int]) -> None:
        """Hold ``words`` (canonical, read from memory) as clean data from
        ``slot`` on, one slice, except in dirty slots: theirs is newer."""
        end = slot + len(words)
        if not any(self.dirty[slot:end]):
            self.words[slot:end] = words
            self.present[slot:end] = [True] * len(words)
            return
        for at, word in enumerate(words, slot):
            if not self.dirty[at]:
                self.words[at] = word
                self.present[at] = True

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
        base = self.alloc.element_byte(self.first_index)
        for slot in range(max(0, (lo_byte - base) // size),
                          min(len(self.words), -((base - hi_byte) // size))):
            if supersede_dirty or not self.dirty[slot]:
                self.present[slot] = self.dirty[slot] = False
        if supersede_dirty:
            self.downgrade()

    def dirty_runs(self) -> List[Tuple[int, int]]:
        """Contiguous runs of dirty slots as ``(slot_start, length)``."""
        runs: List[Tuple[int, int]] = []
        slot = 0
        for is_dirty, run in groupby(self.dirty):
            length = len(list(run))
            if is_dirty:
                runs.append((slot, length))
            slot += length
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

    def lookup(self, alloc: SharedAllocation, line_no: int
               ) -> Optional[CacheLine]:
        """The resident line ``line_no`` of the row ``alloc`` (one
        generation, by identity), moved to MRU; ``None`` if not resident."""
        ways = self.sets[line_no % self._n_sets]
        for line in ways:
            if line.alloc is alloc and line.line_no == line_no:
                if ways[0] is not line:  # move to MRU
                    ways.remove(line)
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
