"""Partition-aware mesh NoC: boundary-link proxies for PDES execution.

:class:`PartitionedMeshNoc` is a :class:`~repro.noc.mesh.MeshNoc` that
knows which mesh nodes its partition owns.  Every partition builds the
*full* mesh (identical geometry, identical slave-server placement, so
routes and address decode agree everywhere), but only the owned nodes
ever carry traffic: the moment a wormhole head flit would be handed to an
output port at a foreign node, the whole packet is serialized into a
:class:`BoundaryFlit` and handed to the partition's
:class:`BoundaryRuntime` instead of the neighbour's input buffer.

The cut behaves like a link with a fixed latency of ``epoch_cycles``
clock cycles (the PDES lookahead): a flit departing at ``t`` is injected
into the destination partition's matching port at ``t + epoch_time``.
Because every boundary crossing pays at least that latency, each
partition can safely simulate ``epoch_time`` ahead of the earliest thing
any other partition might still do — the classical conservative-PDES
lookahead argument.  Cut ingress is unbounded (no credit backpressure
travels across a cut); intra-partition wormhole backpressure is
unchanged.

Cross-partition ``RESERVE``/``RELEASE`` memory commands are rejected at
the cut with :class:`PartitionError`: the reservation bit is a global
synchronization point whose blocking retry loops would be timing-ordered
across partitions, which the epoch model cannot reproduce faithfully.
Locked workloads must keep each lock's contenders inside one partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from ..fabric import ArbitrationSpec
from ..kernel import Module, Probes
from ..kernel.simtime import NS
from ..memory.protocol import MemCommand, MemOpcode, launched_command
from .config import NocConfig
from .mesh import MeshNoc, _OutputPort
from .packet import Packet


class PartitionError(RuntimeError):
    """A platform/workload feature is incompatible with partitioned
    (PDES) execution."""


@dataclass(frozen=True)
class PartitionContext:
    """Everything one partition needs to know about the global tiling."""

    #: Total number of partitions.
    partitions: int
    #: This partition's index (0-based).
    index: int
    #: Conservative-sync window in clock cycles (the cut-link latency).
    epoch_cycles: int
    #: The same window in kernel time units.
    epoch_time: int
    #: Mesh nodes owned by this partition.
    owned_nodes: FrozenSet[int]
    #: Owning partition of every global PE index.
    pe_owner: Tuple[int, ...]

    def owns_pe(self, pe_index: int) -> bool:
        return self.pe_owner[pe_index] == self.index


@dataclass
class BoundaryFlit:
    """One packet crossing a partition cut (pickled over the worker pipe).

    ``(deliver_time, src_partition, seq)`` is a deterministic total order:
    the receiving partition delivers flits in exactly this order no matter
    how the coordinator's pipes interleave.
    """

    net: str
    src_partition: int
    seq: int
    depart_time: int
    deliver_time: int
    packet: Packet

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.deliver_time, self.src_partition, self.seq)


_LOCK_OPCODES = (MemOpcode.RESERVE, MemOpcode.RELEASE)


class BoundaryRuntime:
    """Collects the flits leaving one partition during the current window.

    The per-event hot path only ever appends to a plain list; all
    null-message/outbox bookkeeping is batched at the epoch barrier
    (:meth:`drain`), so the sequential ``partitions=1`` path never sees
    any of it.
    """

    def __init__(self, context: PartitionContext) -> None:
        self.context = context
        self.outbox: List[BoundaryFlit] = []
        self.sent = 0
        self.received = 0
        self._seq = 0

    def emit(self, net: str, packet: Packet, now: int) -> None:
        """Serialize ``packet`` as it crosses the cut at time ``now``."""
        command = (None if packet.is_response
                   else launched_command(packet.request, packet.offset))
        if isinstance(command, MemCommand) and command.opcode in _LOCK_OPCODES:
            raise PartitionError(
                f"cross-partition reserve/release: master "
                f"{packet.request.master_id} sent a memory lock command "
                f"across a partition cut; keep each lock's contenders "
                f"(masters and the locked memory) inside one partition"
            )
        # The slave and the decoded region are partition-local state; the
        # receiving side rebinds them from its own (identical) address map.
        packet.slave = packet.request.region = None
        flit = BoundaryFlit(
            net=net,
            src_partition=self.context.index,
            seq=self._seq,
            depart_time=now,
            deliver_time=now + self.context.epoch_time,
            packet=packet,
        )
        self._seq += 1
        self.sent += 1
        self.outbox.append(flit)

    def drain(self) -> List[BoundaryFlit]:
        """Take the outbox (called once per epoch barrier)."""
        outbox, self.outbox = self.outbox, []
        return outbox


class PartitionedMeshNoc(MeshNoc):
    """A mesh NoC whose foreign-node hops become boundary flits."""

    def __init__(
        self,
        name: str = "noc",
        period: int = 10 * NS,
        config: Optional[NocConfig] = None,
        parent: Optional[Module] = None,
        arbitration: Union[ArbitrationSpec, str, None] = None,
        partition: Optional[PartitionContext] = None,
        runtime: Optional[BoundaryRuntime] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        if partition is None or runtime is None:
            raise ValueError(
                "PartitionedMeshNoc needs a PartitionContext and a "
                "BoundaryRuntime"
            )
        super().__init__(name, period, config=config, parent=parent,
                         arbitration=arbitration, probes=probes)
        self.partition = partition
        self.runtime = runtime
        self._owned_nodes = partition.owned_nodes

    def _hand_over(self, label: str, packet: Packet
                   ) -> Optional[_OutputPort]:
        # Port keys are ("inj", node) / ("ej", node) / ("link", node, dir):
        # key[1] is always the node owning the port.
        if packet.path[packet.hop + 1][1] in self._owned_nodes:
            return super()._hand_over(label, packet)
        # The downstream port lives in another partition: hand the packet
        # to the coordinator instead of the neighbour's input buffer.  No
        # credit wait — the cut ingress is unbounded by design.
        packet.hop += 1
        self.runtime.emit(label, packet, self.sim_now())
        return None

    def deliver(self, flit: BoundaryFlit) -> None:
        """Inject an inbound boundary flit at its first owned port.

        Called between kernel run windows when simulated time has reached
        ``flit.deliver_time``; the enqueue wakes the port process through
        an immediate notification, so it resumes in the next delta cycle
        at exactly the delivery time.
        """
        packet = flit.packet
        request = packet.request
        if packet.is_response:
            request.region = self.address_map.find_region(request.address)
        elif packet.slave is None:
            packet.slave, packet.offset, request.region = \
                self.address_map.decode(request.address)
        port = self._nets[flit.net][packet.path[packet.hop]]
        port.enqueue(packet.lanes[packet.hop], packet)
        self.runtime.received += 1
