"""Per-PE L1 data cache shim over the dynamic shared-memory protocol.

An :class:`L1Cache` sits between one processing element's master port and
the interconnect.  The software stack is unchanged: the PE's
:class:`~repro.wrapper.api.SharedMemoryAPI` talks to a
:class:`CachedPort` exposing the exact :class:`~repro.fabric.port.MasterPort`
interface (the :class:`~repro.fabric.port.PortHelpers` over the cache's own
``transfer``), and the cache serves the command bursts flowing through it:

* scalar READs hit in the cache or trigger a line-sized burst fill
  (READ_ARRAY through the real port, clamped to the owning allocation);
* scalar WRITEs update the line (write-back + write-allocate) or are
  forwarded (write-through);
* whole READ_ARRAY / WRITE_ARRAY transfers are served from / absorbed into
  the cache when every element is covered, and install their data on the
  way through otherwise;
* ALLOC / FREE / RESERVE / RELEASE always reach the memory module, whose
  service the platform's :class:`~repro.cache.shadow.ShadowMap` replays —
  the wrapper FSM command region itself is never cached, only the *data*
  behind it.

Structure: *one decision, then generators*.  :meth:`L1Cache.scalar_hit`
is the one place a scalar access is decided: a plain method that bisects
the shadow map's sorted-base index, finds the line by identity and serves
a hit on the spot.  The API calls it from its own frame, so a hit costs
no command words, bus request or decode.  A miss leaves its located row
for the command burst that follows (decoded once for every layer it
crosses), and :meth:`L1Cache._scalar` goes on from there.  Only what the
decision cannot serve (a miss, a SHARED line awaiting the upgrade snoop,
a write that must reach memory or stall, array transfers, barriers)
enters the per-opcode generators.  The lines themselves are
:class:`~repro.cache.engine.LineEngine`'s, which moves array words in
list slices.

Cached words are stored in the exact canonical form the wrapper returns
(element encode/decode round trip, i.e. ``to_signed(value) & 0xFFFFFFFF``),
so cache-served reads are bit-identical with wrapper-served ones.

Reservation (semaphore) semantics are preserved: while an allocation's
reservation bit is held, writes to it bypass the cache (so their visibility
matches the uncached platform) and writebacks never race the holder —
acquiring the bit acts as a flush barrier (see
:class:`~repro.cache.coherence.CoherenceDomain`).

Cache lines are *allocation-clamped*: a line covers the intersection of its
byte range (in the memory's virtual-pointer space) with one live
allocation, and is keyed by the allocation's generation uid, so vptr reuse
after frees can never alias stale data.  The lines and their set directory
live in :mod:`repro.cache.lines`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Generator, List, Optional, Tuple

from ..fabric import BusOp, BusRequest, BusResponse, PortHelpers, ResponseStatus
from ..memory.protocol import (IO_ARRAY_BASE, REGISTER_WINDOW_BYTES,
                               MemCommand, MemOpcode, launched_command)
from .coherence import CoherenceDomain
from .engine import LineEngine, reserved_by_other
from .geometry import CacheConfig, WritePolicy
from .lines import MSIState, canonical_word, canonical_words
from .shadow import NO_ROWS, SharedAllocation


class CachedPort(PortHelpers):
    """Drop-in :class:`~repro.fabric.port.MasterPort` facade.

    ``transfer`` is the cache's own, so the inherited helpers all go
    through the cache; it fills in the hit front ``PortHelpers`` declares.
    """

    def __init__(self, cache: "L1Cache", port) -> None:
        self._port = port
        #: ``transfer`` is the cache's own bound method: a facade generator
        #: in between would cost every access a frame and add nothing.
        self.transfer = cache.transfer
        self.scalar_hit, self.hit_wait = cache.scalar_hit, cache._hit_wait
        #: A port's id never changes: read it once, not per request.
        self.master_id = port.master_id

    @property
    def _interconnect(self):
        return self._port._interconnect


class L1Cache(LineEngine):
    """One processing element's L1 data cache (see module docstring)."""

    def __init__(self, name: str, config: CacheConfig, port,
                 domain: CoherenceDomain, windows: Dict[int, int],
                 clock_period: int) -> None:
        super().__init__(name, config, port, domain, windows)
        #: What :meth:`scalar_hit` reads on every access, hoisted: the
        #: directory's sets and the shadow map's sorted-base index.
        self._sets, self._n_sets = self.lines.sets, config.geometry.sets
        self._by_base = self._shadow.by_base
        self.policy = config.policy
        #: command register address -> memory index, for the hit front.
        self._command_mem = self._shadow.command_mem
        self._hit_wait = config.hit_cycles * clock_period
        self._hit_cycles = config.hit_cycles
        #: Back-off while a foreign reservation blocks a write, and the
        #: stall bound after which the write is forwarded anyway (so true
        #: reservation misuse still surfaces as the wrapper's error).
        self._stall_wait = 8 * clock_period
        self._max_stalls = 1024
        #: Buffered I/O-array stage awaiting its WRITE_ARRAY (write-back).
        self._pending_stage: Optional[Tuple[int, BusRequest]] = None
        #: Copy of the last forwarded stage (write-through install).
        self._observed_stage: Optional[Tuple[int, List[int]]] = None
        #: Words staged for the io fetch of a cache-served READ_ARRAY.
        self._pending_fetch: Optional[Tuple[int, int, List[int]]] = None
        #: Range of a forwarded READ_ARRAY to install from its io fetch,
        #: plus the fill guard covering it:
        #: ``(alloc, start, dim, mem_index, guard)``.
        self._pending_install: Optional[Tuple] = None
        #: What :meth:`scalar_hit` located for the request path on a miss.
        self._missed: Optional[Tuple] = None
        domain.register_cache(self)
        self.port = CachedPort(self, port)

    # -- local answers -----------------------------------------------------------------
    def _local(self, data: int = 0, burst: Optional[List[int]] = None
               ) -> BusResponse:
        return BusResponse(ResponseStatus.OK, data, list(burst or ()), 0,
                           self._hit_cycles)

    # -- main entry point --------------------------------------------------------------
    def _window_of(self, address: int) -> Optional[Tuple[int, int, int]]:
        """``(base, mem_index, offset)`` when ``address`` hits a memory window."""
        for mem_index, base in self._window_base.items():
            if base <= address < base + REGISTER_WINDOW_BYTES:
                return base, mem_index, address - base
        return None

    def transfer(self, request: BusRequest
                 ) -> Generator[object, None, BusResponse]:
        """The CachedPort's transfer: serve or forward ``request``."""
        window = self._window_of(request.address)

        # 1. An absorbed READ_ARRAY left its payload staged for the io fetch.
        if self._pending_fetch is not None:
            mem_index, count, words = self._pending_fetch
            self._pending_fetch = None
            if (window is not None and window[1] == mem_index
                    and window[2] == IO_ARRAY_BASE
                    and request.op is BusOp.READ
                    and request.burst_length == count):
                yield self._hit_wait
                return self._local(data=0, burst=words)
            # Unexpected interleaving: drop the staged words and fall through.

        command = launched_command(request, window[2]) if window else None
        opcode = None  # stays None for what only the wrapper can answer
        if isinstance(command, MemCommand) and command.sm_addr == window[1]:
            opcode = command.opcode

        # 2. A buffered io stage must reach the memory before any other
        #    traffic that is not its (well-formed) WRITE_ARRAY command.
        if (self._pending_stage is not None
                and opcode is not MemOpcode.WRITE_ARRAY):
            yield from self._flush_stage()

        # 3. Command bursts: scalars are decided, the rest dispatched.
        if command is not None:
            if opcode is MemOpcode.READ:
                return (yield from self._scalar(
                    request, False, window[1], command.vptr, command.offset,
                    0))
            if opcode is MemOpcode.WRITE:
                return (yield from self._retried(
                    self._scalar, request, True, window[1], command.vptr,
                    command.offset, command.data))
            return (yield from self._dispatch(opcode, command, request, window))

        # 4. Whole-window io stages: buffer (write-back) or observe
        #    (write-through) so a following WRITE_ARRAY can use the words.
        if (window is not None and window[2] == IO_ARRAY_BASE
                and request.op is BusOp.WRITE
                and request.burst_data is not None):
            mem_index = window[1]
            if self.policy is WritePolicy.WRITE_BACK:
                self._pending_stage = (mem_index, request)
                yield self._hit_wait
                return self._local()
            response = yield from self._raw.transfer(request)
            if response.ok:
                self._observed_stage = (mem_index, list(request.burst_data))
            return response

        # 5. Everything else passes through untouched (status/diagnostic
        #    registers, io fetches, non-memory addresses).
        response = yield from self._raw.transfer(request)
        install, self._pending_install = self._pending_install, None
        if install is not None:  # installed here, or abandoned
            alloc, start, dim, mem_index, guard = install
            if (window is not None and response.ok
                    and request.op is BusOp.READ
                    and window[2] == IO_ARRAY_BASE and window[1] == mem_index
                    and request.burst_length == dim
                    and len(response.burst_data) == dim
                    and not guard.poisoned):
                lines = yield from self._prepare_lines(alloc, start, dim)
                if not guard.poisoned:
                    self._finalize_install(
                        alloc, start, canonical_words(response.burst_data),
                        lines, dirty=False)
            self.domain.end_fill(guard)
        return response

    # -- opcode dispatch -----------------------------------------------------------------
    def _dispatch(self, opcode: Optional[MemOpcode], command,
                  request: BusRequest, window: Tuple[int, int, int]
                  ) -> Generator[object, None, BusResponse]:
        base, mem_index, _offset = window
        if opcode is MemOpcode.READ_ARRAY:
            return (yield from self._op_read_array(command, request, mem_index))
        if opcode is MemOpcode.WRITE_ARRAY:
            # The staged words survive retries.
            staged: Optional[List[int]] = None
            if self._pending_stage is not None:
                stage_mem, stage_request = self._pending_stage
                if stage_mem == mem_index and stage_request.burst_data is not None \
                        and len(stage_request.burst_data) >= command.dim:
                    staged = list(stage_request.burst_data[:command.dim])
            return (yield from self._retried(
                self._write_array_once, request, command, base, mem_index,
                staged))
        # ALLOC/FREE/RESERVE/RELEASE bookkeeping happens in the shadow
        # map's snooper, synchronously as the service window closes — the
        # shim only runs the flush barriers that must precede the command.
        if opcode is MemOpcode.RESERVE:
            alloc = self._shadow.find(mem_index, command.vptr)
            if alloc is not None and alloc.reserved_by is None:
                # Acquiring the semaphore is a flush barrier: every cache's
                # dirty data of the allocation reaches memory first.
                yield from self.domain.flush_alloc(self, alloc)
        elif opcode is MemOpcode.RELEASE:
            alloc = self._shadow.find(mem_index, command.vptr)
            if alloc is not None:
                yield from self._flush_own_dirty(alloc, alloc.vptr,
                                                 alloc.end_vptr)
        elif opcode is not MemOpcode.ALLOC and opcode is not MemOpcode.FREE:
            # QUERY / NOP, or what only the wrapper can answer: passthrough.
            self.stats.uncached_ops += 1
        return (yield from self._raw.transfer(request))

    def _retried(self, attempt, request: BusRequest, *args
                 ) -> Generator[object, None, BusResponse]:
        """``attempt(request, *args)`` until it answers a response.

        An attempt answers ``None`` when a foreign master holds (or took,
        while the write was on the bus) the allocation's semaphore, which
        the uncached platform would refuse only under that interleaving:
        the cache serializes the write behind the critical section, and
        stalls, then starts over.  After the stall bound the request is
        forwarded, so true misuse still meets the wrapper's NACK.
        """
        for _attempt in range(self._max_stalls):
            response = yield from attempt(request, *args)
            if response is not None:
                return response
            self.stats.reservation_stalls += 1
            yield self._stall_wait
        yield from self._flush_stage()
        self.stats.uncached_ops += 1
        return (yield from self._raw.transfer(request))

    # -- scalar accesses ------------------------------------------------------------------
    def scalar_hit(self, address: int, store: bool, sm_addr: int, vptr: int,
                   offset: int, data: int) -> Optional[int]:
        """Decide a scalar READ (``store`` false) or WRITE of ``data`` sent to
        the command register at ``address``: the API's hit front, and the
        first step of :meth:`_scalar`.  Calls nothing, but
        :func:`canonical_word` to store an 8- or 16-bit element.

        A READ of a present slot answers its word; a write-back WRITE to a
        resident MODIFIED line of an unreserved allocation is stored and
        answers 0.  The caller owes the hit latency.  Otherwise ``None``:
        at once for a pending io stage or fetch or another window's
        ``sm_addr``, else with ``(sm_addr, vptr, offset, alloc, index,
        line_no)`` left in ``_missed`` for the request path (``alloc``
        ``None`` for no live element).
        """
        if (self._pending_stage is not None or self._pending_fetch is not None
                or self._command_mem.get(address) != sm_addr):
            return None
        live = self._by_base.get(sm_addr, NO_ROWS)
        at = bisect_right(live.bases, vptr)
        alloc = index = line_no = None
        if at and vptr < live.rows[at - 1].end_vptr:
            alloc = live.rows[at - 1]
            size = alloc.element_size
            index = (vptr - alloc.vptr) // size + offset
            line_no = (alloc.vptr + index * size) // self._line_bytes
            if not 0 <= index < alloc.dim:
                alloc = None
            elif not store or (self.policy is WritePolicy.WRITE_BACK
                               and alloc.reserved_by is None):
                # (A store that goes to memory or stalls looks no line up.)
                ways = self._sets[line_no % self._n_sets]
                for line in ways:
                    if line.alloc is not alloc or line.line_no != line_no:
                        continue
                    if ways[0] is not line:  # move to MRU
                        ways.remove(line)
                        ways.insert(0, line)
                    slot = index - line.first_index
                    if not store:
                        if line.present[slot]:
                            self.stats.hits += 1
                            return line.words[slot]
                    elif line.state is MSIState.MODIFIED:
                        line.words[slot] = (
                            data & 0xFFFFFFFF if size == 4
                            else canonical_word(data, alloc.data_type))
                        line.present[slot] = line.dirty[slot] = True
                        self.stats.hits += 1
                        return 0
                    break
        self._missed = (sm_addr, vptr, offset, alloc, index, line_no)
        return None

    def _scalar(self, request: BusRequest, store: bool, mem_index: int,
                vptr: int, offset: int, data: int
                ) -> Generator[object, None, Optional[BusResponse]]:
        """One attempt at a scalar READ / WRITE that arrived as a request:
        :meth:`scalar_hit`'s decision (taken from ``_missed`` when the API
        front already missed on this access), then what it did not serve.

        A read miss fills the line and answers from it.  A write goes to
        memory (write-through, or under a reservation) or takes its line
        MODIFIED; ``None`` asks :meth:`_retried` to stall and retry.
        """
        missed, self._missed = self._missed, None
        if missed is None or missed[:3] != (mem_index, vptr, offset):
            word = self.scalar_hit(request.address, store, mem_index, vptr,
                                   offset, data)
            if word is not None:
                yield self._hit_wait
                return self._local(data=word)
            missed, self._missed = self._missed, None
        alloc, index, line_no = missed[3:]
        if alloc is None:  # not a live element: the wrapper answers
            self.stats.uncached_ops += 1
            return (yield from self._raw.transfer(request))
        if not store:
            self.stats.misses += 1
            first, words, _line = yield from self._fill(alloc, line_no)
            if words is None or not first <= index < first + len(words):
                self.stats.fallbacks += 1
                return (yield from self._raw.transfer(request))
            # Even when the fetched line could not stay resident
            # (invalidated by a concurrent writer mid-fill), the fetched
            # words are a correct read serialized at the moment the burst
            # completed on the bus.
            return self._local(data=words[index - first])
        if reserved_by_other(alloc.reserved_by, self.master_id):
            return None
        value = canonical_word(data, alloc.data_type)
        if (self.policy is WritePolicy.WRITE_THROUGH
                or alloc.reserved_by is not None):
            # Reservation-held writes always go to memory so their
            # visibility matches the uncached platform.
            response = yield from self._write_to_memory(request, vptr, value,
                                                        alloc, index)
            if response is not None and response.ok:
                self.stats.write_throughs += 1
            return response
        line = self.lines.lookup(alloc, line_no)
        if line is None:
            self.stats.misses += 1
            _first, _words, line = yield from self._fill(alloc, line_no)
        else:
            self.stats.hits += 1  # resident, SHARED (else scalar_hit stored)
        if self._foreign_reserved(mem_index, vptr):
            return None  # reservation acquired while the fill was on the bus
        if line is not None:
            yield from self.domain.acquire_exclusive(
                self, alloc, line.first_index, len(line.words))
            if self._foreign_reserved(mem_index, vptr):
                return None
            if self.domain.any_remote_modified(self, mem_index, line.lo_byte,
                                               line.hi_byte):
                # The upgrade snoop gave up on a blocked writeback: do not
                # take MODIFIED against a surviving remote owner.
                line = None
        if line is None or not self.lines.holds(line):
            # No way available, or the line was invalidated while the
            # upgrade snoop was writing remote data back: write to memory.
            self.stats.fallbacks += 1
            return (yield from self._write_to_memory(request, vptr, value,
                                                     alloc, index))
        # acquire_exclusive returns with no surviving remote copy and no
        # trailing yield, so taking MODIFIED here cannot race a remote fill.
        line.state = MSIState.MODIFIED
        slot = index - line.first_index
        line.words[slot] = value
        line.present[slot] = line.dirty[slot] = True
        yield self._hit_wait
        return self._local()

    def _foreign_reserved(self, mem_index: int, vptr: int) -> bool:
        """True when another master holds the semaphore at ``vptr``."""
        return reserved_by_other(self._shadow.reserved_by(mem_index, vptr),
                                 self.master_id)

    def _write_to_memory(self, request: BusRequest, vptr: int, value: int,
                         alloc: SharedAllocation, index: int
                         ) -> Generator[object, None, Optional[BusResponse]]:
        """Forward a scalar write, then refresh this cache's copy with the
        canonical ``value``; ``None`` when a reservation won the bus race."""
        lo_byte = alloc.element_byte(index)
        hi_byte = alloc.element_byte(index + 1)
        yield from self.domain.acquire_exclusive(self, alloc, index, 1)
        guard = self.domain.begin_fill(self, alloc.mem_index, lo_byte, hi_byte)
        try:
            response = yield from self._raw.transfer(request)
        finally:
            self.domain.end_fill(guard)
        if response.ok:
            # A remote fill may have re-installed the pre-write value
            # while the write was waiting for the bus: scrub again.
            self.domain.invalidate_range(alloc.mem_index, lo_byte, hi_byte,
                                         requester=self)
            line = (None if guard.poisoned else
                    self.lines.lookup(alloc, lo_byte // self._line_bytes))
            if line is not None:  # refresh the resident slot, clean
                slot = index - line.first_index
                line.words[slot], line.present[slot] = value, True
                line.dirty[slot] = False
        elif self._foreign_reserved(alloc.mem_index, vptr):
            return None  # a reservation won the bus race: retry
        return response

    # -- array read -----------------------------------------------------------------------
    def _op_read_array(self, command: MemCommand, request: BusRequest,
                       mem_index: int) -> Generator[object, None, BusResponse]:
        located = self._shadow.resolve(mem_index, command.vptr,
                                       command.offset, command.dim)
        if located is None:
            self.stats.uncached_ops += 1
            return (yield from self._raw.transfer(request))
        alloc, start = located
        words = self._collect(alloc, start, command.dim)
        if words is not None:
            self.stats.array_hits += 1
            self._pending_fetch = (mem_index, command.dim, words)
            yield self._hit_wait
            return self._local(data=command.dim)
        self.stats.array_misses += 1
        lo_byte, hi_byte = (alloc.element_byte(start),
                            alloc.element_byte(start + command.dim))
        yield from self._flush_own_dirty(alloc, lo_byte, hi_byte)
        yield from self.domain.snoop_read(self, alloc, start, command.dim)
        guard = self.domain.begin_fill(self, mem_index, lo_byte, hi_byte)
        # The guard deliberately outlives this call on success (the io
        # fetch, or any other transfer after it, ends it in transfer()),
        # so only failure paths may end it here.
        try:
            response = yield from self._raw.transfer(request)
        except BaseException:
            self.domain.end_fill(guard)
            raise
        if response.ok:
            self._pending_install = (alloc, start, command.dim, mem_index,
                                     guard)
        else:
            self.domain.end_fill(guard)
        return response

    # -- array write ----------------------------------------------------------------------
    def _write_array_once(self, request: BusRequest, command: MemCommand,
                          base: int, mem_index: int,
                          staged: Optional[List[int]]
                          ) -> Generator[object, None, Optional[BusResponse]]:
        """One attempt at an array write, with the same reservation-aware
        retry as scalar writes (see :meth:`_retried`); ``None`` asks to
        retry."""
        dim = command.dim
        located = self._shadow.resolve(mem_index, command.vptr,
                                       command.offset, dim)
        if located is None:
            yield from self._flush_stage()
            self.stats.uncached_ops += 1
            return (yield from self._raw.transfer(request))
        alloc, start = located
        if reserved_by_other(alloc.reserved_by, self.master_id):
            return None
        lo_byte = alloc.element_byte(start)
        hi_byte = alloc.element_byte(start + dim)
        if (self.policy is WritePolicy.WRITE_BACK and staged is not None
                and alloc.reserved_by is None):
            self._pending_stage = None
            lines = yield from self._prepare_lines(alloc, start, dim)
            yield from self.domain.acquire_exclusive(self, alloc, start, dim)
            # acquire_exclusive ends synchronously, and the readiness check
            # plus _finalize_install never suspend, so MODIFIED ownership
            # cannot race remote fills.  The check runs *before* anything
            # is installed: a write that ends up forwarded (and possibly
            # NACKed) must never leave speculative dirty data behind.
            if (self._range_prepared(alloc, start, dim, lines)
                    and not self.domain.any_remote_modified(
                        self, mem_index, lo_byte, hi_byte)):
                self._finalize_install(
                    alloc, start, canonical_words(staged, alloc.data_type),
                    lines, dirty=True)
                self.stats.array_absorbs += 1
                yield self._hit_wait
                return self._local(data=dim)
            # Cannot keep the whole range resident: send the data to memory
            # instead, exactly like the passthrough path.
            self.stats.fallbacks += 1
            yield from self._flush_own_dirty(alloc, lo_byte, hi_byte)
        else:
            # Passthrough (write-through, reservation held by self, or
            # nothing staged through this shim).
            yield from self._flush_own_dirty(alloc, lo_byte, hi_byte)
            yield from self.domain.acquire_exclusive(self, alloc, start, dim)
        return (yield from self._forward_array(command, request, base, alloc,
                                               start, staged))

    def _forward_array(self, command: MemCommand, request: BusRequest,
                       base: int, alloc: SharedAllocation, start: int,
                       staged: Optional[List[int]]
                       ) -> Generator[object, None, Optional[BusResponse]]:
        """Send a WRITE_ARRAY to memory: stage its payload, forward it,
        scrub remote copies, and install what was written clean; ``None``
        when a reservation won the bus race.

        Callers write their own dirty data of the range back first: the
        writebacks reuse the wrapper's per-master io array and would
        clobber a payload staged before them.
        """
        mem_index, dim = alloc.mem_index, command.dim
        lo_byte = alloc.element_byte(start)
        hi_byte = alloc.element_byte(start + dim)
        if self._pending_stage is not None:
            yield from self._flush_stage()
        elif staged is not None:
            # Retry (or write-back fallback): the io array no longer holds
            # the payload — stage it again before re-issuing.
            yield from self._raw.burst_write(
                base + IO_ARRAY_BASE, canonical_words(staged),
                tag=self._restage_tag)
        guard = self.domain.begin_fill(self, mem_index, lo_byte, hi_byte)
        try:
            response = yield from self._raw.transfer(request)
            if not response.ok:
                if self._foreign_reserved(mem_index, command.vptr):
                    return None  # a reservation won the bus race: retry
                return response
            # The data just landed in memory: scrub remote copies that were
            # re-installed while the write waited for the bus.
            self.domain.invalidate_range(mem_index, lo_byte, hi_byte,
                                         requester=self)
            written = staged
            observed = self._observed_stage
            if (written is None and observed is not None
                    and observed[0] == mem_index and len(observed[1]) >= dim):
                written = observed[1][:dim]
            self._observed_stage = None
            if written is not None and not guard.poisoned:
                lines = yield from self._prepare_lines(alloc, start, dim)
                if not guard.poisoned:
                    self._finalize_install(
                        alloc, start,
                        canonical_words(written, alloc.data_type), lines,
                        dirty=False)
            else:
                for line in self.lines.overlapping(mem_index, lo_byte,
                                                   hi_byte):
                    self.drop_line(line)
        finally:
            self.domain.end_fill(guard)
        return response

    def _flush_stage(self) -> Generator[object, None, None]:
        """Forward a buffered io stage to the memory module."""
        if self._pending_stage is None:
            return
        _mem_index, stage_request = self._pending_stage
        self._pending_stage = None
        yield from self._raw.transfer(stage_request)

    # -- reporting -----------------------------------------------------------------------
    def report(self) -> dict:
        """Summary dictionary merged into the platform's simulation report."""
        return {
            "name": self.name,
            "master_id": self.master_id,
            "geometry": self.geometry.describe(),
            "policy": self.policy.value,
            "capacity_bytes": self.geometry.capacity_bytes,
            "resident_lines": len(self.lines),
            **self.stats.as_dict(),
        }
