"""Partition planning: tiling the mesh into rectangular partitions.

The plan is pure data derived from the :class:`~repro.soc.config.PlatformConfig`
alone — every worker process recomputes the identical plan from the
pickled scenario, so no geometry ever crosses a pipe.

Tiling is recursive bisection: split the longer mesh dimension in half
(rows win ties), recurse into each half.  For a square mesh and four
partitions this is exactly quadrant tiling, and the 2-partition tiling is
the union of 4-partition tile pairs (nested bisection), so a placement
that is cut-free at 4 partitions is also cut-free at 2.

Rectangular tiles matter for correctness: XY dimension-order routes
between two nodes of a rectangle never leave it, so intra-partition
traffic never crosses a cut and stays bit-identical to the sequential
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..noc.mesh import MeshNoc
from ..noc.partitioned import PartitionContext, PartitionError
from ..soc.config import InterconnectKind, PlatformConfig

#: Default conservative-sync window (= boundary-link latency) in clock
#: cycles.  Large enough that epoch barriers are rare relative to the
#: work inside them, small enough that cross-partition latency stays in
#: the same order as a long mesh traversal.
DEFAULT_EPOCH_CYCLES = 64

#: A half-open tile: (row_start, row_end, col_start, col_end).
_Tile = Tuple[int, int, int, int]


def _tiles(row0: int, row1: int, col0: int, col1: int, count: int
           ) -> List[_Tile]:
    """Recursively bisect the rectangle into ``count`` tiles."""
    if count == 1:
        return [(row0, row1, col0, col1)]
    half = count // 2
    rows, cols = row1 - row0, col1 - col0
    if rows >= cols and rows >= 2:
        mid = row0 + rows // 2
        return (_tiles(row0, mid, col0, col1, half)
                + _tiles(mid, row1, col0, col1, half))
    if cols >= 2:
        mid = col0 + cols // 2
        return (_tiles(row0, row1, col0, mid, half)
                + _tiles(row0, row1, mid, col1, half))
    raise PartitionError(
        f"a {row1 - row0}x{col1 - col0} mesh region cannot be split into "
        f"{count} partitions (every tile needs at least one node)"
    )


@dataclass(frozen=True)
class PartitionPlan:
    """The complete tiling of one platform: who owns what."""

    partitions: int
    rows: int
    cols: int
    epoch_cycles: int
    #: Owning partition of every mesh node (row-major).
    node_owner: Tuple[int, ...]
    #: Owning partition of every global PE index.
    pe_owner: Tuple[int, ...]
    #: Owning partition of every memory index.
    memory_owner: Tuple[int, ...]

    def nodes_of(self, index: int) -> FrozenSet[int]:
        return frozenset(node for node, owner in enumerate(self.node_owner)
                         if owner == index)

    def pes_of(self, index: int) -> Tuple[int, ...]:
        return tuple(pe for pe, owner in enumerate(self.pe_owner)
                     if owner == index)

    def memories_of(self, index: int) -> Tuple[int, ...]:
        return tuple(mem for mem, owner in enumerate(self.memory_owner)
                     if owner == index)

    def context(self, index: int, clock_period: int) -> PartitionContext:
        """The per-partition view handed to :class:`~repro.soc.platform.Platform`."""
        if not 0 <= index < self.partitions:
            raise ValueError(f"partition index {index} out of range")
        return PartitionContext(
            partitions=self.partitions,
            index=index,
            epoch_cycles=self.epoch_cycles,
            epoch_time=self.epoch_cycles * clock_period,
            owned_nodes=self.nodes_of(index),
            pe_owner=self.pe_owner,
        )


def plan_partitions(config: PlatformConfig) -> PartitionPlan:
    """Tile ``config``'s mesh into ``config.partitions`` partitions.

    Placement of PEs and memories mirrors :class:`~repro.noc.mesh.MeshNoc`
    exactly (same static placement rules, same attach order), so the plan's
    ownership map agrees with what every shard builds.
    """
    if config.interconnect is not InterconnectKind.MESH:
        raise PartitionError(
            "partitioned execution requires a mesh interconnect"
        )
    noc = config.resolved_noc()
    tiles = _tiles(0, noc.rows, 0, noc.cols, config.partitions)
    node_owner = [0] * (noc.rows * noc.cols)
    for index, (row0, row1, col0, col1) in enumerate(tiles):
        for row in range(row0, row1):
            for col in range(col0, col1):
                node_owner[row * noc.cols + col] = index
    pe_owner = tuple(node_owner[MeshNoc.master_node(noc, pe)]
                     for pe in range(config.num_pes))
    # Memories attach in index order, so slave index == memory index.
    memory_owner = tuple(node_owner[MeshNoc.slave_node(noc, mem)]
                         for mem in range(config.num_memories))
    epoch_cycles = config.pdes_epoch_cycles
    if epoch_cycles is None:
        epoch_cycles = max(DEFAULT_EPOCH_CYCLES,
                           noc.router_cycles + noc.link_cycles)
    return PartitionPlan(
        partitions=config.partitions,
        rows=noc.rows,
        cols=noc.cols,
        epoch_cycles=epoch_cycles,
        node_owner=tuple(node_owner),
        pe_owner=pe_owner,
        memory_owner=memory_owner,
    )
