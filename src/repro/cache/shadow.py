"""The shadow allocation map: which dynamic allocations are live, and where.

A dynamic memory's pointer table is the one record of its live allocations.
Layers that sit beside the memory — the L1 caches' coherence domain and the
sanitizer suite — need the same answers (which allocation holds a pointer,
which master holds its semaphore) without issuing bus traffic.  A platform
with either keeps one :class:`ShadowMap` for both, and registers its
:meth:`ShadowMap.snoop` as its one fabric snooper: as each ALLOC / FREE /
RESERVE / RELEASE's service window closes, the snooper replays it with
:meth:`ShadowMap.apply`, leaves the row it acted on at ``request.row`` for
the sanitizers, and passes every served command on to the coherence
domain.  Replayed in service order, the map equals the pointer tables at
every instant a master can observe, and the row an L1 hits is the row the
race detector keys on.

:attr:`ShadowMap.by_base` holds, per memory, the
:class:`~repro.memory.dynamic_base.AllocationIndex` the memories keep their
own rows in.  :meth:`ShadowMap.resolve` and the L1's hit front
(:meth:`~repro.cache.l1.L1Cache.scalar_hit`) bisect its ``bases`` and
``rows`` inline, relying on its invariant: bases unique, live ranges
disjoint and non-empty.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, Optional, Tuple

from ..memory.dynamic_base import Allocation, AllocationIndex
from ..memory.protocol import (REG_COMMAND, MemCommand, MemOpcode,
                               launched_command)

#: The commands :meth:`ShadowMap.apply` replays, whichever master issues them.
BOOKKEEPING_OPCODES = (MemOpcode.ALLOC, MemOpcode.FREE, MemOpcode.RESERVE,
                       MemOpcode.RELEASE)

#: The index of a memory with no live row; shared, so an ``add`` raises.
NO_ROWS = AllocationIndex()
NO_ROWS.bases = NO_ROWS.rows = ()


@dataclass(slots=True, eq=False)
class SharedAllocation(Allocation):
    """Shadow-map row mirroring one live pointer-table entry."""

    #: Monotonically increasing identity: vptr ranges are *reused* after
    #: frees (the wrapper restarts generation from the last surviving
    #: entry), so cached lines and sanitizer state are keyed by ``uid``
    #: rather than by address.
    uid: int = field(kw_only=True)
    mem_index: int = field(kw_only=True)


class ShadowMap:
    """Live allocations of every memory, in base-vptr order."""

    def __init__(self, windows: Optional[Dict[int, int]] = None) -> None:
        #: mem_index -> the index of that memory's live rows.
        self.by_base: DefaultDict[int, AllocationIndex] = defaultdict(
            AllocationIndex)
        self._next_uid = 1
        #: Command register address -> memory index, from ``windows``.
        self.command_mem: Dict[int, int] = {
            base + REG_COMMAND: mem for base, mem in (windows or {}).items()}
        #: The coherence domain :meth:`snoop` passes served commands on to.
        self.coherence = None

    def snoop(self, request, response) -> None:
        """The fabric snooper that keeps this map (see module docstring)."""
        mem_index = self.command_mem.get(request.address)
        if mem_index is None or not response.ok:
            return
        command = launched_command(request, REG_COMMAND)
        if not isinstance(command, MemCommand):
            return
        if command.opcode in BOOKKEEPING_OPCODES:
            request.row = self.apply(mem_index, command, request.master_id,
                                     response.data)
        if self.coherence is not None:
            self.coherence.command_served(mem_index, command, request)

    def apply(self, mem_index: int, command: MemCommand, master_id: int,
              value: int) -> Optional[SharedAllocation]:
        """Replay one of :data:`BOOKKEEPING_OPCODES` that ``master_id``
        completed successfully on memory ``mem_index``; ``value`` is its
        result word (the new vptr of an ALLOC).  Returns the row an ALLOC
        created or a FREE / RESERVE / RELEASE acted on.
        """
        opcode = command.opcode
        if opcode is MemOpcode.ALLOC:
            alloc = SharedAllocation(value, command.dim, command.data_type,
                                     uid=self._next_uid, mem_index=mem_index)
            self._next_uid += 1
            self.by_base[mem_index].add(alloc)
            return alloc
        alloc = self.find(mem_index, command.vptr)
        if alloc is None:
            return None
        if opcode is MemOpcode.FREE:
            self.by_base[mem_index].remove(alloc.vptr)
        else:
            alloc.reserved_by = (master_id if opcode is MemOpcode.RESERVE
                                 else None)
        return alloc

    def find(self, mem_index: int, vptr: int) -> Optional[SharedAllocation]:
        """The row whose base is exactly ``vptr`` (FREE / RESERVE / RELEASE /
        QUERY semantics)."""
        return self.by_base.get(mem_index, NO_ROWS).lookup(vptr)

    def resolve(self, mem_index: int, vptr: int, offset: int, dim: int = 1
                ) -> Optional[Tuple[SharedAllocation, int]]:
        """``(row, index)`` when the memory would accept a ``dim``-element
        access (a scalar for ``dim`` 1) ``offset`` elements past the element
        ``vptr`` points into, ``None`` otherwise.

        :meth:`AllocationIndex.containing` and :meth:`Allocation.locate`'s
        rule, inlined.
        """
        live = self.by_base.get(mem_index, NO_ROWS)
        at = bisect_right(live.bases, vptr)
        if at and vptr < live.rows[at - 1].end_vptr:
            alloc = live.rows[at - 1]
            index = (vptr - alloc.vptr) // alloc.element_size + offset
            if 0 <= index and 0 <= dim and index + dim <= alloc.dim:
                return alloc, index
        return None

    def reserved_by(self, mem_index: int, vptr: int) -> Optional[int]:
        """The master holding the semaphore of the allocation containing
        ``vptr``, or ``None``."""
        alloc = self.by_base.get(mem_index, NO_ROWS).containing(vptr)
        return alloc.reserved_by if alloc is not None else None
