"""Packet-switched 2D-mesh network-on-chip interconnect.

:class:`MeshNoc` is the platform's third :class:`~repro.fabric.Fabric`
topology, a drop-in next to :class:`~repro.interconnect.bus.SharedBus` and
:class:`~repro.interconnect.crossbar.Crossbar`: it inherits the exact same
master-port surface (``master_port`` / ``attach_slave`` / ``add_snooper`` /
``stats`` / ``utilization``) from the fabric layer, so processing elements,
the shared-memory API and the MSI coherence layer run unchanged on it.

Internally it is a ``rows x cols`` grid of wormhole routers:

* every master's network interface injects *request packets* at its node;
  the packet is chopped into flits (one head flit plus the payload at
  ``flit_bytes`` per flit) and routed **XY dimension-order** — all the
  column hops first, then the row hops — which is deadlock-free on a mesh;
* each router output port arbitrates **round-robin over its input lanes**
  (one virtual channel per input side, plus the local lane) and forwards
  the head flit after ``router_cycles`` of pipeline and ``link_cycles`` on
  the wire, while the body flits stream behind it — the port stays held
  for the full ``flits x link_cycles`` serialization, exactly a wormhole
  worm crossing the switch;
* ports have ``buffer_packets`` of input buffering; a full downstream
  buffer exerts backpressure, so the upstream channel stays held (blocked
  worm) until credit returns;
* *responses* travel on a physically separate network with the same
  geometry, so request/response dependencies can never cycle — the
  classic two-network deadlock-freedom argument;
* the addressed slave is served one request at a time by its node's
  channel — the mesh's master-facing arbitration point, a fabric
  :class:`~repro.fabric.base.Channel` served by the same
  :meth:`~repro.fabric.Fabric._run_channel` as the bus and the crossbar
  (lane arbitration inside the routers stays round-robin: lanes are
  entry sides, not masters).  An ejected request packet is queued on that
  channel; when its service window closes, snoopers fire — synchronously,
  in slave service order, which is what keeps the MSI coherence domain's
  shadow state authoritative — and :meth:`MeshNoc._served` sends the
  response packet back from the slave's node.

In scheduler terms every port is one process and a *port visit* — one
packet through one port — is one wake on the port's event, one grant (a
port keeps only its non-empty lanes, so nothing is scanned, and a lone
ready lane skips the arbiter call), then ``router_cycles`` timed waits,
the head-flit link wait and (for a multi-flit packet) one tail wait; a
credit wait is added only when the downstream buffer is full.  Those
activations are what ``tests/perf/golden_sched_stats.json`` and
``perfbench/golden.json`` pin, so merging the waits is a re-gold, not a
refactor.  Routes are static and memoized per ``(source, destination,
injection lane)``.

Per-link, per-router and end-to-end latency counters are collected in a
:class:`~repro.noc.stats.NocStats` and surfaced through the platform's
``interconnect_stats["noc"]`` block.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from ..fabric import (
    AddressDecodeError,
    ArbitrationSpec,
    BusRequest,
    BusResponse,
    BusSlave,
    Fabric,
    MasterPort,
    Region,
    RoundRobinArbiter,
)
from ..kernel import Event, Module, Probes
from ..kernel.simtime import NS
from .config import NocConfig
from .packet import (
    LOCAL_LANE,
    Packet,
    entry_lane,
    flits_for_payload,
    request_payload_bytes,
    response_payload_bytes,
)
from .stats import NocStats


class _OutputPort:
    """One directed channel: a router output port (or inject/eject port).

    Holds its non-empty input lanes' packet queues, the round-robin lane
    arbiter, the wakeup events and the occupancy count for backpressure.
    ``capacity`` is in packets; ``None`` means unbounded (injection ports,
    which model the master-side network-interface queue).
    """

    __slots__ = ("key", "name", "node", "queues", "arbiter", "event",
                 "credit_event", "capacity", "occupancy", "stats")

    def __init__(self, key: Tuple, name: str, node: int,
                 capacity: Optional[int], stats) -> None:
        self.key = key
        self.name = name
        self.node = node
        self.queues: Dict[int, deque] = {}
        self.arbiter = RoundRobinArbiter()
        self.event: Optional[Event] = None
        self.credit_event: Optional[Event] = None
        self.capacity = capacity
        self.occupancy = 0
        self.stats = stats

    def enqueue(self, lane: int, packet: Packet) -> None:
        queue = self.queues.get(lane)
        if queue is None:
            queue = self.queues[lane] = deque()
        queue.append(packet)
        self.occupancy += 1
        self.event.notify()


class MeshNoc(Fabric):
    """A 2D-mesh wormhole NoC with the SharedBus/Crossbar port surface."""

    def __init__(
        self,
        name: str = "noc",
        period: int = 10 * NS,
        config: Optional[NocConfig] = None,
        parent: Optional[Module] = None,
        arbitration: Union[ArbitrationSpec, str, None] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        # The mesh has no per-transfer address phase: its overhead is the
        # modelled router/link traversal, so arbitration_cycles is 0.
        super().__init__(name, period, arbitration_cycles=0,
                         arbitration=arbitration, parent=parent,
                         probes=probes)
        config = config if config is not None else NocConfig(rows=2, cols=2)
        if not config.has_dims:
            config = config.resolve(1, 1)
        self.config = config
        self.rows: int = config.rows
        self.cols: int = config.cols
        self.num_nodes = self.rows * self.cols
        self.noc_stats = NocStats()
        self._inflight: set = set()
        self._routes: Dict[Tuple[int, int, int], Tuple[List, List]] = {}
        #: Mesh node of every attached slave.
        self._slave_nodes: Dict[BusSlave, int] = {}
        #: One port dict per physical network ("req" carries requests
        #: outward, "resp" carries responses back — separate networks).
        self._nets: Dict[str, Dict[Tuple, _OutputPort]] = {
            "req": {}, "resp": {},
        }
        for label in ("req", "resp"):
            self._build_network(label)

    # -- construction ------------------------------------------------------------
    def _build_network(self, label: str) -> None:
        cols, rows = self.cols, self.rows
        for node in range(self.num_nodes):
            row, col = divmod(node, cols)
            self._add_port(label, ("inj", node), f"n{node}.inject",
                           node, capacity=None)
            self._add_port(label, ("ej", node), f"n{node}.eject",
                           node, capacity=self.config.buffer_packets)
            neighbours = []
            if col + 1 < cols:
                neighbours.append(("E", node + 1))
            if col > 0:
                neighbours.append(("W", node - 1))
            if row + 1 < rows:
                neighbours.append(("S", node + cols))
            if row > 0:
                neighbours.append(("N", node - cols))
            for direction, neighbour in neighbours:
                self._add_port(label, ("link", node, direction),
                               f"n{node}->n{neighbour}", node,
                               capacity=self.config.buffer_packets)

    def _add_port(self, label: str, key: Tuple, display: str, node: int,
                  capacity: Optional[int]) -> None:
        name = f"{label}:{display}"
        port = _OutputPort(key, name, node, capacity,
                           self.noc_stats.link(name))
        port.event = self.add_event(Event(f"{self.name}.{name}.req"))
        port.credit_event = self.add_event(Event(f"{self.name}.{name}.credit"))
        self._nets[label][key] = port
        self.add_process(lambda p=port, net=label: self._run_port(net, p),
                         name=f"{label}_{display}")

    # -- placement ---------------------------------------------------------------
    # The placement rules are static so the partition planner
    # (:mod:`repro.pdes.plan`) can assign owners from a resolved
    # :class:`NocConfig` alone, without building the fabric.
    @staticmethod
    def master_node(config: NocConfig, master_id: int) -> int:
        """Mesh node of a master (row-major from node 0 by default)."""
        nodes = config.pe_nodes
        if nodes:
            return nodes[master_id % len(nodes)]
        return master_id % (config.rows * config.cols)

    @staticmethod
    def slave_node(config: NocConfig, slave_index: int) -> int:
        """Mesh node of the ``slave_index``-th attached slave.

        Defaults to spreading slaves from the far corner of the mesh
        backwards, opposite the masters filling it from node 0.
        """
        nodes = config.memory_nodes
        num_nodes = config.rows * config.cols
        if nodes:
            return nodes[slave_index % len(nodes)]
        return num_nodes - 1 - (slave_index % num_nodes)

    def node_of_master(self, master_id: int) -> int:
        return self.master_node(self.config, master_id)

    def node_of_slave(self, slave_index: int) -> int:
        return self.slave_node(self.config, slave_index)

    # -- construction-time wiring --------------------------------------------------
    def _on_attach(self, region: Region, slave: BusSlave) -> None:
        """Give a newly mapped slave a node and its channel."""
        if slave not in self._slave_channels:
            self._slave_nodes[slave] = self.node_of_slave(
                len(self._channels))
            self._slave_channels[slave] = self._add_channel(
                region.name, f"{self.name}.{region.name}.serve",
                f"serve_{region.name}")

    # -- master-side entry point -----------------------------------------------------
    def _post(self, port: MasterPort, request: BusRequest) -> Optional[int]:
        if port.master_id in self._inflight:
            raise RuntimeError(
                f"master {port.master_id} posted a request while one is "
                f"outstanding"
            )
        try:
            slave, offset, request.region = self.address_map.decode(
                request.address)
        except AddressDecodeError:
            return self._complete_decode_error(port, request)
        self._inflight.add(port.master_id)
        now = self.sim_now()
        src = self.node_of_master(port.master_id)
        dst = self._slave_nodes[slave]
        packet = Packet(
            request=request,
            src_node=src,
            dst_node=dst,
            flits=flits_for_payload(request_payload_bytes(request),
                                    self.config.flit_bytes),
            inject_time=now,
            post_time=now,
            slave=slave,
            offset=offset,
        )
        packet.path, packet.lanes = self._route(src, dst, request.master_id)
        self._inject("req", packet)
        return None

    # -- routing -----------------------------------------------------------------
    def _route(self, src: int, dst: int, lane0: int
               ) -> Tuple[List[Tuple], List[int]]:
        """XY dimension-order path from ``src`` to ``dst``.

        Returns the ordered port keys and, for each, the input lane the
        packet occupies there (master/originator id at injection, the
        entry side everywhere else).  Routes are static: each is computed
        once and its two lists are shared by every packet that takes it,
        so nothing may mutate a packet's ``path``/``lanes``.
        """
        route = self._routes.get((src, dst, lane0))
        if route is not None:
            return route
        cols = self.cols
        path: List[Tuple] = [("inj", src)]
        lanes: List[int] = [lane0]
        row, col = divmod(src, cols)
        dst_row, dst_col = divmod(dst, cols)
        node = src
        lane = LOCAL_LANE
        while col != dst_col:
            direction = "E" if dst_col > col else "W"
            path.append(("link", node, direction))
            lanes.append(lane)
            lane = entry_lane(direction)
            col += 1 if dst_col > col else -1
            node = row * cols + col
        while row != dst_row:
            direction = "S" if dst_row > row else "N"
            path.append(("link", node, direction))
            lanes.append(lane)
            lane = entry_lane(direction)
            row += 1 if dst_row > row else -1
            node = row * cols + col
        path.append(("ej", node))
        lanes.append(lane)
        self._routes[src, dst, lane0] = route = (path, lanes)
        return route

    def _inject(self, label: str, packet: Packet) -> None:
        self.noc_stats.record_packet(packet.flits, packet.hops)
        inject_port = self._nets[label][packet.path[0]]
        inject_port.enqueue(packet.lanes[0], packet)

    # -- per-port router process ---------------------------------------------------
    def _run_port(self, label: str, port: _OutputPort):
        period = self.period
        # Hoisted out of the per-visit path (see the module docstring):
        # none of these change after construction.
        router_cycles = self.config.router_cycles
        link_cycles = self.config.link_cycles
        router_waits = range(router_cycles)
        head_link_time = link_cycles * period
        queues = port.queues
        wake = port.event
        arbiter = port.arbiter
        grant_counts = arbiter.grant_counts
        stats = port.stats
        return_credit = port.credit_event.notify
        hand_over = self._hand_over
        terminal = port.key[0] == "ej"  # paths end at an ejection port
        while True:
            if not queues:
                yield wake
                continue
            if len(queues) == 1:
                # What ``grant`` does for a lone requester, without the call.
                (lane,) = queues
                arbiter._last_granted = lane
                grant_counts[lane] = grant_counts.get(lane, 0) + 1
            else:
                stats.contended_grants += 1
                waiting = sum(map(len, queues.values())) - 1
                self.noc_stats.record_contention(port.node, waiting)
                lane = arbiter.grant(sorted(queues))
            queue = queues[lane]
            packet = queue.popleft()
            if not queue:
                del queues[lane]
            # Router pipeline: route computation, VC and switch allocation.
            for _ in router_waits:
                yield period
            # The head flit crosses the link...
            yield head_link_time
            flits = packet.flits
            tail_time = (flits - 1) * head_link_time
            if terminal:
                # Ejection port: the payload is in the body flits, so
                # delivery happens once the tail arrived.
                if tail_time:
                    yield tail_time
                self._eject(packet)
            else:
                # ...and is handed downstream while the body flits still
                # stream over this channel (wormhole pipelining).  A full
                # downstream buffer blocks the worm here.
                full = hand_over(label, packet)
                while full is not None:
                    blocked_from = self.sim_now()
                    yield full.credit_event
                    stats.blocked_cycles += (
                        self.sim_now() - blocked_from) // period
                    full = hand_over(label, packet)
                if tail_time:
                    yield tail_time
            stats.busy_cycles += router_cycles + flits * link_cycles
            stats.packets += 1
            stats.flits += flits
            port.occupancy -= 1
            return_credit()

    def _hand_over(self, label: str, packet: Packet
                   ) -> Optional[_OutputPort]:
        """Move ``packet`` into the next port of its path; when that port's
        buffer is full, move nothing and return it (the caller waits for
        its credit)."""
        hop = packet.hop + 1
        next_port = self._nets[label][packet.path[hop]]
        capacity = next_port.capacity
        if capacity is not None and next_port.occupancy >= capacity:
            return next_port
        packet.hop = hop
        next_port.enqueue(packet.lanes[hop], packet)
        return None

    def _eject(self, packet: Packet) -> None:
        if packet.is_response:
            self._complete(packet)
            return
        channel = self._slave_channels[packet.slave]
        channel.pending[packet.request.master_id] = (
            packet, packet.request, packet.slave, packet.offset)
        channel.event.notify()

    # -- slave service ------------------------------------------------------------
    def _served(self, packet: Packet, request: BusRequest,
                response: BusResponse) -> None:
        """Send the response packet back from the slave's node."""
        reply = Packet(
            request=request,
            src_node=packet.dst_node,
            dst_node=packet.src_node,
            flits=flits_for_payload(
                response_payload_bytes(request, response),
                self.config.flit_bytes),
            inject_time=self.sim_now(),
            post_time=packet.post_time,
            response=response,
        )
        reply.path, reply.lanes = self._route(packet.dst_node,
                                              packet.src_node,
                                              request.master_id)
        self._inject("resp", reply)

    def _complete(self, packet: Packet) -> None:
        response = packet.response
        response.total_cycles = (
            self.sim_now() - packet.post_time) // self.period
        self.noc_stats.record_latency(response.total_cycles)
        self._inflight.discard(packet.request.master_id)
        self._deliver(self._master_ports[packet.request.master_id],
                      packet.request, response)

    # -- reporting ----------------------------------------------------------------
    def utilization(self, elapsed_time: int) -> float:
        """Average link utilization across both networks (0.0-1.0)."""
        ports = sum(len(net) for net in self._nets.values())
        if elapsed_time <= 0 or not ports:
            return 0.0
        elapsed_cycles = elapsed_time // self.period
        if elapsed_cycles <= 0:
            return 0.0
        busy = self.noc_stats.total_busy_cycles()
        return min(1.0, busy / (elapsed_cycles * ports))

    def noc_summary(self, elapsed_time: int = 0) -> dict:
        """JSON-ready NoC block for ``interconnect_stats`` (mesh shape,
        packet/flit totals, latency percentiles, per-link counters)."""
        summary = {
            "rows": self.rows,
            "cols": self.cols,
            "flit_bytes": self.config.flit_bytes,
            "link_cycles": self.config.link_cycles,
            "router_cycles": self.config.router_cycles,
        }
        summary.update(self.noc_stats.as_dict(
            elapsed_cycles=elapsed_time // self.period if elapsed_time else 0))
        return summary

    def _decorate_stats(self, block: Dict[str, object],
                        elapsed_time: int) -> None:
        block["noc"] = self.noc_summary(elapsed_time)
