"""The shadow allocation map: which dynamic allocations are live, and where.

A dynamic memory's pointer table is the one record of its live allocations.
Layers that sit beside the memory — the L1 caches' coherence domain and the
sanitizer suite — need the same answers (which allocation holds a pointer,
which master holds its semaphore) without issuing bus traffic, so each keeps
a :class:`ShadowMap` and replays into it, with :meth:`ShadowMap.apply`, every
ALLOC / FREE / RESERVE / RELEASE that completed on the fabric.  Replayed in
completion order, the map equals the pointer tables at every instant a
master can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..memory.dynamic_base import Allocation
from ..memory.protocol import MemCommand, MemOpcode

#: The commands :meth:`ShadowMap.apply` replays, whichever master issues them.
BOOKKEEPING_OPCODES = (MemOpcode.ALLOC, MemOpcode.FREE, MemOpcode.RESERVE,
                       MemOpcode.RELEASE)

_NO_ROWS: Dict[int, "SharedAllocation"] = {}


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
    """Live allocations of every memory, keyed by memory and base vptr."""

    def __init__(self) -> None:
        #: mem_index -> base vptr -> row.
        self._rows: Dict[int, Dict[int, SharedAllocation]] = {}
        self._next_uid = 1

    def apply(self, mem_index: int, command: MemCommand, master_id: int,
              value: int) -> Optional[SharedAllocation]:
        """Replay one command that ``master_id`` completed successfully on
        memory ``mem_index``; ``value`` is its result word (the new vptr of
        an ALLOC).

        Returns the row an ALLOC created or a FREE / RESERVE / RELEASE
        acted on, ``None`` for any other command.
        """
        opcode = command.opcode
        if opcode is MemOpcode.ALLOC:
            alloc = SharedAllocation(value, command.dim, command.data_type,
                                     uid=self._next_uid, mem_index=mem_index)
            self._next_uid += 1
            self._rows.setdefault(mem_index, {})[value] = alloc
            return alloc
        if opcode is MemOpcode.FREE:
            return self._rows.get(mem_index, _NO_ROWS).pop(command.vptr, None)
        if opcode is MemOpcode.RESERVE or opcode is MemOpcode.RELEASE:
            alloc = self.find(mem_index, command.vptr)
            if alloc is not None:
                alloc.reserved_by = (master_id if opcode is MemOpcode.RESERVE
                                     else None)
            return alloc
        return None

    def find(self, mem_index: int, vptr: int) -> Optional[SharedAllocation]:
        """The row whose base is exactly ``vptr`` (FREE / RESERVE / RELEASE /
        QUERY semantics)."""
        return self._rows.get(mem_index, _NO_ROWS).get(vptr)

    def resolve(self, mem_index: int, vptr: int, offset: int, dim: int = 1
                ) -> Optional[Tuple[SharedAllocation, int]]:
        """``(row, index)`` when the memory would accept a ``dim``-element
        access (a scalar for ``dim`` 1) ``offset`` elements past the element
        ``vptr`` points into, ``None`` otherwise.

        :meth:`Allocation.locate`'s rule, inlined: every L1 probe runs it.
        """
        for alloc in self._rows.get(mem_index, _NO_ROWS).values():
            if alloc.vptr <= vptr < alloc.end_vptr:
                index = (vptr - alloc.vptr) // alloc.element_size + offset
                if 0 <= index and 0 <= dim and index + dim <= alloc.dim:
                    return alloc, index
                return None
        return None

    def reserved_by(self, mem_index: int, vptr: int) -> Optional[int]:
        """The master holding the semaphore of the allocation containing
        ``vptr``, or ``None``."""
        for alloc in self._rows.get(mem_index, _NO_ROWS).values():
            if alloc.vptr <= vptr < alloc.end_vptr:
                return alloc.reserved_by
        return None
