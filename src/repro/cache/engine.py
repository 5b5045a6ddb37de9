"""The line engine of an L1 cache: fills, installs, evictions, writebacks.

:class:`LineEngine` owns one cache's :class:`~repro.cache.lines.LineDirectory`
and every transfer the cache makes on its own behalf; the coherence domain
drives its writebacks through any master's port.  The command front,
:class:`~repro.cache.l1.L1Cache`, extends it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..fabric import CACHE_TAG_SUFFIXES, BusOp, BusRequest, BusResponse
from ..memory.protocol import IO_ARRAY_BASE, REG_COMMAND, MemCommand, MemOpcode
from .coherence import CoherenceDomain
from .geometry import CacheConfig
from .lines import CacheLine, LineDirectory, MSIState, canonical_words
from .shadow import SharedAllocation


@dataclass
class CacheStats:
    """Hit/miss/traffic counters of one L1 cache."""

    hits: int = 0
    misses: int = 0
    array_hits: int = 0
    array_misses: int = 0
    array_absorbs: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    write_throughs: int = 0
    invalidations_received: int = 0
    uncached_ops: int = 0
    fallbacks: int = 0
    reservation_stalls: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.array_hits + self.array_misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if not lookups:
            return 0.0
        return (self.hits + self.array_hits) / lookups

    def as_dict(self) -> dict:
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


def reserved_by_other(holder: Optional[int], master_id: int) -> bool:
    """True when ``holder``, an allocation's ``reserved_by``, is a master
    other than ``master_id``: a foreign reservation."""
    return holder is not None and holder != master_id


class LineEngine:
    """The line side of one L1 cache (see module docstring)."""

    def __init__(self, name: str, config: CacheConfig, port,
                 domain: CoherenceDomain, windows: Dict[int, int]) -> None:
        self.name = name
        self._fill_tag, self._writeback_tag, self._restage_tag = (
            name + suffix for suffix in CACHE_TAG_SUFFIXES)
        self.config = config
        self.geometry = config.geometry
        self._raw = port
        self.master_id = port.master_id
        self.domain = domain
        self._shadow = domain.shadow
        #: memory index -> window base address (the forward map, address ->
        #: window, is :meth:`~repro.cache.l1.L1Cache._window_of`).
        self._window_base = {mem: base for base, mem in windows.items()}
        self.stats = CacheStats()
        self.lines = LineDirectory(config.geometry)
        self._line_bytes = config.geometry.line_bytes

    @property
    def raw_port(self):
        """The underlying (uncached) master port, used by snoop writebacks."""
        return self._raw

    def _launch(self, port, command: MemCommand, tag: str
                ) -> Generator[object, None, BusResponse]:
        """Launch ``command`` through ``port``, its decode attached."""
        request = BusRequest(port.master_id, BusOp.WRITE,
                             self._window_base[command.sm_addr] + REG_COMMAND,
                             burst_data=command.to_words(), tag=tag)
        request.decoded = command
        return port.transfer(request)

    # -- line directory ------------------------------------------------------------
    def drop_line(self, line: CacheLine, evicted: bool = False,
                  silent: bool = False) -> None:
        """Remove a line (invalidate); dirty data is discarded by the caller's
        contract (coherence invalidations write back first when needed).

        ``silent`` drops are allocation-lifetime bookkeeping (FREE/ALLOC
        scrubbing) and count neither as evictions nor as coherence
        invalidations, so the MSI diagnostics stay meaningful.
        """
        if self.lines.discard(line) and not silent:
            if evicted:
                self.stats.evictions += 1
            else:
                self.stats.invalidations_received += 1

    def _collect(self, alloc: SharedAllocation, start: int, dim: int
                 ) -> Optional[List[int]]:
        """All ``dim`` words from resident lines, or None on any gap; a
        line's words are taken as one slice."""
        words: List[int] = []
        index, end = start, start + dim
        while index < end:
            line = self.lines.lookup(alloc, alloc.element_byte(index)
                                     // self._line_bytes)
            if line is None:
                return None
            first = line.first_index
            upto = min(end, first + len(line.words))
            if not all(line.present[index - first:upto - first]):
                return None
            words += line.words[index - first:upto - first]
            index = upto
        return words

    def _range_prepared(self, alloc: SharedAllocation, start: int, count: int,
                        lines: Dict[int, CacheLine]) -> bool:
        """Synchronous: every line covering the range is prepared and still
        resident, so a dirty install of the whole range cannot fail."""
        return all(line_no in lines and self.lines.holds(lines[line_no])
                   for line_no in self.lines.line_numbers(alloc, start, count))

    # -- fills, installs, evictions ------------------------------------------------------
    def _fill(self, alloc: SharedAllocation, line_no: int
              ) -> Generator[object, None,
                             Tuple[int, Optional[List[int]], Optional[CacheLine]]]:
        """Fetch the allocation-clamped line ``line_no`` with one burst.

        Returns ``(first_element, words, line)``.  ``words`` is ``None``
        when the fetch itself failed; ``line`` is ``None`` when the data
        could not stay resident (no victim available, or a concurrent
        writer invalidated the placeholder mid-fill — the placeholder is
        registered in the directory *before* the first suspension exactly
        so that remote upgrades drop it and the stale payload is never
        installed).
        """
        first, count = self.lines.span(alloc, line_no)
        if count <= 0:
            return first, None, None
        line = yield from self._place(alloc, line_no, first, count)
        yield from self.domain.snoop_read(self, alloc, first, count)
        guard = self.domain.begin_fill(self, alloc.mem_index,
                                       alloc.element_byte(first),
                                       alloc.element_byte(first + count))
        try:
            payload = yield from self._launch(self._raw, MemCommand(
                MemOpcode.READ_ARRAY, sm_addr=alloc.mem_index, vptr=alloc.vptr,
                offset=first, dim=count), self._fill_tag)
            if payload.ok:  # the READ_ARRAY ack: fetch the io array
                payload = yield from self._raw.burst_read(
                    self._window_base[alloc.mem_index] + IO_ARRAY_BASE, count,
                    tag=self._fill_tag)
        finally:
            self.domain.end_fill(guard)
        words = None
        if payload.ok and len(payload.burst_data) == count:
            self.stats.fills += 1
            words = canonical_words(payload.burst_data)
        # After a poisoned fetch (a conflicting write completed at the memory
        # while the payload was in flight) the words are a correct read,
        # serialized when the fill was served, but stale *now*.
        if words is None or guard.poisoned:
            if line is not None and not any(line.present):
                self.lines.discard(line)  # a placeholder that got no data
            return first, words, None
        if line is None or not self.lines.holds(line):
            return first, words, None
        line.install_clean(0, words)
        return first, words, line

    def _place(self, alloc: SharedAllocation, line_no: int, first: int,
               count: int) -> Generator[object, None, Optional[CacheLine]]:
        """The resident line ``line_no`` of ``alloc``, else a new empty
        placeholder for its ``count`` elements from ``first``, at MRU;
        ``None`` when no way can be freed.  May suspend for an eviction
        writeback."""
        line = self.lines.lookup(alloc, line_no)
        if line is None:
            ways = self.lines.ways_of(line_no)
            if (yield from self._make_room(ways)):
                line = CacheLine(alloc, line_no, first, count)
                ways.insert(0, line)
        return line

    def _prepare_lines(self, alloc: SharedAllocation, start: int, count: int
                       ) -> Generator[object, None, Dict[int, CacheLine]]:
        """Make every line covering the range resident (placeholders for the
        missing ones); may suspend for eviction writebacks."""
        prepared: Dict[int, CacheLine] = {}
        for line_no in self.lines.line_numbers(alloc, start, count):
            first, span = self.lines.span(alloc, line_no)
            if span > 0:
                line = yield from self._place(alloc, line_no, first, span)
                if line is not None:
                    prepared[line_no] = line
        return prepared

    def _finalize_install(self, alloc: SharedAllocation, start: int,
                          words: List[int], lines: Dict[int, CacheLine],
                          dirty: bool) -> bool:
        """Synchronously copy ``words`` (canonical) into the prepared lines.

        Lines that were invalidated (or evicted) while preparation or the
        data transfer suspended are skipped — and for clean installs any
        range a remote cache has dirty/MODIFIED is skipped too, so a fetch
        that predates a remote write can never go resident.  Returns True
        when the whole range ended up resident.
        """
        complete = True
        end = start + len(words)
        for line_no in self.lines.line_numbers(alloc, start, len(words)):
            line = lines.get(line_no)
            if line is None or not self.lines.holds(line):
                complete = False
                continue
            if not dirty and self.domain.any_remote_modified(
                    self, alloc.mem_index, line.lo_byte, line.hi_byte):
                complete = False
                continue
            first = line.first_index
            lo, hi = max(start, first), min(end, first + len(line.words))
            run = words[lo - start:hi - start]
            lo, hi = lo - first, hi - first  # the run's slots
            if dirty:
                line.words[lo:hi] = run
                line.present[lo:hi] = line.dirty[lo:hi] = [True] * len(run)
                line.state = MSIState.MODIFIED
            else:
                line.install_clean(lo, run)
        return complete

    def _make_room(self, ways: List[CacheLine]
                   ) -> Generator[object, None, bool]:
        """Free one way of the set ``ways`` (LRU victim, writeback when
        dirty)."""
        if len(ways) < self.geometry.ways:
            return True
        for line in reversed(list(ways)):
            if not line.has_dirty():
                self.drop_line(line, evicted=True)
                return True
        for line in reversed(list(ways)):
            if reserved_by_other(line.alloc.reserved_by, self.master_id):
                continue  # cannot write back while a foreign master holds it
            if (yield from self.writeback_line(line, self._raw)):
                self.drop_line(line, evicted=True)
                return True
        return False

    # -- writebacks ----------------------------------------------------------------------
    def writeback_line(self, line: CacheLine, port
                       ) -> Generator[object, None, bool]:
        """Write the line's dirty runs back to its memory module via ``port``.

        Returns True when every dirty element reached memory (dirty flags
        cleared); False leaves the remaining runs dirty for a later retry.
        """
        alloc = line.alloc
        if reserved_by_other(alloc.reserved_by, port.master_id):
            return False
        for slot_start, length in line.dirty_runs():
            if self._shadow.find(line.mem_index, alloc.vptr) is not alloc:
                # The allocation died (FREE, possibly re-ALLOC reusing the
                # vptr range) while an earlier run's transfer suspended us:
                # writing the dead data now would corrupt the new owner.
                return False
            first_element = line.first_index + slot_start
            # Snapshot what actually goes on the bus: the owner may re-dirty
            # a slot while the transfer suspends this process, and a dirty
            # flag may only be cleared for the exact value that reached
            # memory (the snoop loop retries until the line drains).
            written = list(line.words[slot_start:slot_start + length])
            if length == 1:
                command = MemCommand(
                    MemOpcode.WRITE, sm_addr=line.mem_index, vptr=alloc.vptr,
                    offset=first_element, data=written[0])
            else:
                stage = yield from port.burst_write(
                    self._window_base[line.mem_index] + IO_ARRAY_BASE,
                    written, tag=self._writeback_tag)
                if not stage.ok:
                    return False
                if self._shadow.find(line.mem_index,
                                     alloc.vptr) is not alloc:
                    return False  # allocation died while the stage ran
                command = MemCommand(
                    MemOpcode.WRITE_ARRAY, sm_addr=line.mem_index,
                    vptr=alloc.vptr, offset=first_element, dim=length)
            response = yield from self._launch(port, command,
                                               self._writeback_tag)
            if not response.ok:
                return False
            for slot in range(slot_start, slot_start + length):
                if line.words[slot] == written[slot - slot_start]:
                    line.dirty[slot] = False
        self.stats.writebacks += 1
        return True

    def _flush_own_dirty(self, alloc: SharedAllocation, lo_byte: int,
                         hi_byte: int) -> Generator[object, None, None]:
        dirty = [line for line in self.lines.overlapping(
            alloc.mem_index, lo_byte, hi_byte) if line.has_dirty()]
        for line in dirty:
            if (yield from self.writeback_line(line, self._raw)):
                line.downgrade()
