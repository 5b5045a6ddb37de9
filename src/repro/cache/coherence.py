"""MSI snooping coherence over the shared interconnect.

One :class:`CoherenceDomain` per platform ties the per-PE L1 caches
(:class:`~repro.cache.l1.L1Cache`) together:

* it reads the platform's :class:`~repro.cache.shadow.ShadowMap`, the
  mirror of every dynamic memory's pointer table, so caches can resolve
  ``vptr + offset`` to allocation-clamped line ranges exactly the way the
  memory does;
* it implements the snoop channel of the MSI protocol: before a cache
  fills a line it snoops the others (a remote MODIFIED overlap is written
  back and downgraded to SHARED); before a cache takes a line MODIFIED the
  other caches' overlapping lines are written back if dirty and invalidated;
* the shadow map's fabric snooper passes it every served command
  (:meth:`CoherenceDomain.command_served`), so commands issued by
  *uncached* masters (raw testbench traffic, ISS programs) still
  invalidate stale lines conservatively: their writes supersede any cached
  dirty copy of the written range.
  The one gap raw masters keep under the write-back policy: their *reads*
  cannot trigger a snoop writeback (the snooper runs synchronously inside
  the bus process and cannot issue bus transactions), so a raw read may
  observe pre-writeback memory; mixed platforms that need raw readers
  should use write-through caches.

Snoop-triggered writebacks are issued through the *requesting* master's
port, inside the requesting PE's process — the snoop channel itself is not
modelled as data-bus traffic (only the writebacks and fills it triggers
are), which matches the dedicated snoop networks of bus-based MPSoCs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Generator, List

from ..fabric import BusRequest
from ..memory.protocol import MemCommand, MemOpcode
from .shadow import SharedAllocation, ShadowMap


@dataclass
class DomainStats:
    """Aggregate coherence activity of one domain."""

    snoop_reads: int = 0
    snoop_upgrades: int = 0
    snoop_writebacks: int = 0
    invalidations: int = 0
    #: Dirty lines whose stale clean slots were scrubbed (kept resident)
    #: after an uncached write — distinct from full invalidations.
    scrubs: int = 0
    flush_barriers: int = 0
    bus_snoops: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class FillGuard:
    """Tracks one in-flight clean line fetch so conflicting writes can
    poison it before the fetched (now stale) data goes resident.

    Between a fetch being *served* by the memory and its payload being
    *installed* by the requesting cache, the requester's process is
    suspended; on interconnects where completion lags service (the mesh
    NoC's response network, a crossbar channel racing another), a write
    can complete at the memory inside that window.  The write's
    invalidation hook cannot see the not-yet-resident line, so it marks
    the guard instead and the install is skipped.
    """

    __slots__ = ("owner", "mem_index", "lo", "hi", "poisoned")

    def __init__(self, owner, mem_index: int, lo: int, hi: int) -> None:
        self.owner = owner
        self.mem_index = mem_index
        self.lo = lo
        self.hi = hi
        self.poisoned = False

    def overlaps(self, mem_index: int, lo: int, hi: int) -> bool:
        return (self.mem_index == mem_index and self.lo < hi
                and lo < self.hi)


class CoherenceDomain:
    """Snooping MSI coherence glue shared by every L1 cache of a platform."""

    def __init__(self, shadow: ShadowMap) -> None:
        self._caches: List[object] = []
        #: Master ids that own a cache in this domain.
        self._cached_master_ids: set = set()
        #: The platform's one allocation mirror, kept by its snooper.
        self.shadow = shadow
        self.stats = DomainStats()
        #: In-flight clean fetches awaiting install (see :class:`FillGuard`).
        self._fills: List[FillGuard] = []

    # -- cache registration ------------------------------------------------------
    def register_cache(self, cache) -> None:
        """Add one L1 cache to the snoop set."""
        self._caches.append(cache)
        self._cached_master_ids.add(cache.master_id)

    def _others(self, requester):
        return [cache for cache in self._caches if cache is not requester]

    # -- snoop channel -----------------------------------------------------------
    #: Upper bound on snoop passes before giving up on a line another
    #: master keeps re-dirtying faster than it can be written back.
    MAX_SNOOP_PASSES = 64

    def snoop_read(self, requester, alloc: SharedAllocation, first: int,
                   count: int) -> Generator[object, None, None]:
        """Read snoop: remote MODIFIED overlaps are written back and
        downgraded to SHARED.

        Driven with ``yield from`` inside the requesting PE's process; the
        writebacks ride the requester's master port.  Loops until no remote
        overlap is dirty *or MODIFIED* at a synchronous exit: the owner may
        dirty another element of the line while a writeback suspends this
        process, and it must not be left in MODIFIED (it would keep writing
        without re-acquiring, invisibly to the fill that follows this
        snoop).  Once every overlap is SHARED, any later remote write has
        to go through :meth:`acquire_exclusive`, which invalidates the
        requester's placeholder line and keeps the stale fetch out.
        """
        self.stats.snoop_reads += 1
        lo = alloc.element_byte(first)
        hi = alloc.element_byte(first + count)
        for _pass in range(self.MAX_SNOOP_PASSES):
            flagged = [
                (cache, line)
                for cache in self._others(requester)
                for line in cache.lines.overlapping(alloc.mem_index, lo, hi)
                if line.has_dirty() or line.is_modified()
            ]
            if not flagged:
                return
            progressed = False
            for cache, line in flagged:
                if line.has_dirty():
                    if (yield from cache.writeback_line(
                            line, requester.raw_port)):
                        self.stats.snoop_writebacks += 1
                        progressed = True
                line.downgrade()
                if not line.is_modified():
                    progressed = True
            if not progressed:
                return  # writebacks blocked (foreign reservation): give up

    def acquire_exclusive(self, requester, alloc: SharedAllocation, first: int,
                          count: int) -> Generator[object, None, None]:
        """Write snoop: every other cache's overlapping line is invalidated
        (written back first when dirty, so no update is ever lost).

        Loops until no remote copy survives: a writeback suspends the
        requesting process, and another PE may install a fresh copy in the
        meantime.  The final pass performs only synchronous drops, so when
        this generator returns the requester may take MODIFIED ownership
        without yielding first.
        """
        self.stats.snoop_upgrades += 1
        lo = alloc.element_byte(first)
        hi = alloc.element_byte(first + count)
        for _pass in range(self.MAX_SNOOP_PASSES):
            overlapping = [
                (cache, line)
                for cache in self._others(requester)
                for line in cache.lines.overlapping(alloc.mem_index, lo, hi)
            ]
            if not overlapping:
                return
            dirty = [(cache, line) for cache, line in overlapping
                     if line.has_dirty()]
            if not dirty:
                for cache, line in overlapping:
                    self.stats.invalidations += 1
                    cache.drop_line(line)
                return
            progressed = False
            for cache, line in dirty:
                if (yield from cache.writeback_line(line, requester.raw_port)):
                    self.stats.snoop_writebacks += 1
                    progressed = True
            if not progressed:
                # Writebacks blocked (foreign reservation) and nothing can
                # advance without yielding: give up rather than busy-loop.
                # Callers re-check any_remote_modified() before taking
                # MODIFIED ownership and fall back to an uncached write.
                return

    def any_remote_modified(self, requester, mem_index: int, lo_byte: int,
                            hi_byte: int) -> bool:
        """True when another cache holds dirty/MODIFIED data in the range.

        Synchronous (no bus traffic): used as the install-time conflict
        check that keeps a fetched-but-outdated line out of the cache.
        """
        for cache in self._others(requester):
            for line in cache.lines.overlapping(mem_index, lo_byte, hi_byte):
                if line.has_dirty() or line.is_modified():
                    return True
        return False

    def flush_alloc(self, requester, alloc: SharedAllocation
                    ) -> Generator[object, None, None]:
        """Reservation barrier: write back every cache's dirty lines of
        ``alloc`` (lines stay valid, downgraded to SHARED)."""
        self.stats.flush_barriers += 1
        for cache in self._caches:
            dirty = [line for line in cache.lines.overlapping(
                alloc.mem_index, alloc.vptr, alloc.end_vptr)
                if line.has_dirty()]
            for line in dirty:
                if (yield from cache.writeback_line(line, requester.raw_port)):
                    self.stats.snoop_writebacks += 1
                    line.downgrade()

    # -- in-flight fill tracking -------------------------------------------------
    def begin_fill(self, owner, mem_index: int, lo_byte: int,
                   hi_byte: int) -> FillGuard:
        """Register a clean fetch of ``[lo_byte, hi_byte)`` about to fly."""
        guard = FillGuard(owner, mem_index, lo_byte, hi_byte)
        self._fills.append(guard)
        return guard

    def end_fill(self, guard: FillGuard) -> None:
        """Deregister a fetch (installed or abandoned)."""
        try:
            self._fills.remove(guard)
        except ValueError:  # pragma: no cover - defensive double end
            pass

    def _poison_fills(self, mem_index: int, lo_byte: int, hi_byte: int,
                      requester=None) -> None:
        for guard in self._fills:
            if guard.owner is not requester and guard.overlaps(
                    mem_index, lo_byte, hi_byte):
                guard.poisoned = True

    # -- non-bus invalidation ----------------------------------------------------
    def invalidate_range(self, mem_index: int, lo_byte: int, hi_byte: int,
                         requester=None, supersede_dirty: bool = False) -> None:
        """Scrub stale copies after a write went to memory around the caches.

        Clean lines overlapping ``[lo_byte, hi_byte)`` are dropped.  A
        dirty line is *not* dropped; its slots inside the range are
        scrubbed per :meth:`CacheLine.scrub_slots` — by default keeping the
        dirty ones (a racing *cached* writer's data is still owed a
        writeback), with ``supersede_dirty`` discarding them too (the
        caller observed the memory write serialize after them, e.g. an
        uncached master's write on the bus).
        """
        self._poison_fills(mem_index, lo_byte, hi_byte, requester=requester)
        for cache in self._caches:
            if cache is requester:
                continue
            for line in cache.lines.overlapping(mem_index, lo_byte, hi_byte):
                if line.has_dirty():
                    line.scrub_slots(lo_byte, hi_byte,
                                     supersede_dirty=supersede_dirty)
                    self.stats.scrubs += 1
                else:
                    cache.drop_line(line)
                    self.stats.invalidations += 1

    def _drop_range(self, mem_index: int, lo_byte: int, hi_byte: int) -> None:
        # Allocation-lifetime scrub: in-flight fetches of the dead (or
        # recycled) range must not install either, whoever owns them.
        self._poison_fills(mem_index, lo_byte, hi_byte)
        for cache in self._caches:
            for line in cache.lines.overlapping(mem_index, lo_byte, hi_byte):
                cache.drop_line(line, silent=True)

    # -- served commands ---------------------------------------------------------
    def command_served(self, mem_index: int, command: MemCommand,
                       request: BusRequest) -> None:
        """Act on ``command``, served on memory ``mem_index`` as
        ``request``'s service window closed, once the shadow map's snooper
        replayed it: synchronously inside the bus process, before any
        other master can observe the new state.

        A new or dead allocation drops every line (of any generation)
        overlapping it, so calloc-zeroed or recycled memory is never
        shadowed by stale data.  Writes from masters that own no cache in
        this domain invalidate overlapping lines, so raw traffic injected
        next to cached PEs cannot leave stale data behind.
        """
        self.stats.bus_snoops += 1
        opcode = command.opcode
        if opcode is MemOpcode.ALLOC or opcode is MemOpcode.FREE:
            alloc = request.row
            if alloc is not None:
                self._drop_range(mem_index, alloc.vptr, alloc.end_vptr)
            return
        # Data writes: cached masters ran the full MSI protocol already;
        # only uncached traffic needs the conservative invalidation.
        if (request.master_id in self._cached_master_ids
                or (opcode is not MemOpcode.WRITE
                    and opcode is not MemOpcode.WRITE_ARRAY)):
            return
        count = command.dim if opcode is MemOpcode.WRITE_ARRAY else 1
        located = self.shadow.resolve(mem_index, command.vptr, command.offset,
                                      count)
        if located is not None:
            alloc, start = located
            self.invalidate_range(mem_index, alloc.element_byte(start),
                                  alloc.element_byte(start + count),
                                  supersede_dirty=True)
