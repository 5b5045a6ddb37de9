"""The interconnect fabric base class.

:class:`Fabric` owns everything the platform's interconnects have in
common, so a topology only says where a request waits to be served:

* slave attachment through one shared, validating
  :class:`~repro.fabric.address_map.AddressMap` path (overlapping,
  zero-size or name-clashing regions fail identically on every topology);
* the :class:`~repro.fabric.port.MasterPort` issue/complete lifecycle —
  port registration, request posting, response delivery and per-master
  wait accounting;
* the one arbitration point, :meth:`_run_channel`: a :class:`Channel`
  grants one pending request, holds for ``arbitration_cycles``, calls the
  slave (:meth:`_serve`) and holds for the cycles it returns — the single
  place that says how a channel is held for a slave's service window;
* snooper registration, fired once per served transfer, in service order
  (functional MSI coherence);
* the ``port_issue`` / ``port_complete`` probe points of the platform's
  :class:`~repro.kernel.probes.Probes` bus (instrumentation);
* decode-error accounting and the error path that completes without a
  channel, on the master's own timer;
* uniform :class:`~repro.fabric.stats.BusStats` accounting plus a
  per-transaction latency sample, emitted by :meth:`interconnect_stats`
  with the same ``percentile_summary`` columns for every topology;
* per-slave traffic columns for the slaves registered with
  :meth:`monitor`: the slave cycles of every transfer they serve, recorded
  by :meth:`_serve`;
* arbitration-policy creation from one :class:`ArbitrationSpec`, so every
  channel of a topology applies the same pluggable policy.

A topology creates its channels with :meth:`_add_channel` and maps each
slave to one in :meth:`_on_attach` (the shared bus maps every slave to its
one channel, the crossbar gives each slave its own); the default
:meth:`_post` then decodes the address and queues the request on that
channel.  The mesh overrides :meth:`_post` to route a request packet to
the slave's node, queues it there, and overrides :meth:`_served` to send
the response back as a packet.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple, Union

from ..kernel import Event, Hold, Module, Probes
from .address_map import AddressDecodeError, AddressMap, Region
from .transaction import (
    BusOp,
    BusRequest,
    BusResponse,
    ResponseStatus,
    decode_error_response,
)
from .policy import ArbitrationPolicy, ArbitrationSpec
from .port import BusSlave, MasterPort
from .stats import BusStats, monitor_block, percentile_summary


class Channel:
    """One arbitration point: the requests waiting for one service window.

    ``pending`` maps a master id to ``(token, request, slave, offset)``;
    the token is what :meth:`Fabric._served` completes (the master port
    on the bus and crossbar, the request packet on the mesh).
    """

    __slots__ = ("name", "arbiter", "pending", "event", "busy_cycles",
                 "transactions")

    def __init__(self, name: str, arbiter: ArbitrationPolicy,
                 event: Event) -> None:
        self.name = name
        self.arbiter = arbiter
        self.pending: Dict[int, Tuple[object, BusRequest, BusSlave,
                                      int]] = {}
        self.event = event
        self.busy_cycles = 0
        self.transactions = 0


class Fabric(Module):
    """Common machinery of every interconnect topology.

    Parameters
    ----------
    name:
        Module name.
    period:
        Clock period of the interconnect in kernel time units.
    arbitration_cycles:
        Fixed overhead cycles added to every granted transfer (address
        phase); topologies without a per-transfer address phase pass 0.
    arbitration:
        Arbitration policy description: an :class:`ArbitrationSpec`, a
        policy-kind string or ``None`` for the round-robin default.
    probes:
        The platform's probe bus (a private, unsubscribed one by default).
    """

    def __init__(
        self,
        name: str,
        period: int,
        arbitration_cycles: int = 1,
        arbitration: Union[ArbitrationSpec, str, None] = None,
        parent: Optional[Module] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        super().__init__(name, parent)
        self.probes = probes if probes is not None else Probes()
        if period <= 0:
            raise ValueError(f"{type(self).__name__} period must be positive")
        if arbitration_cycles < 0:
            raise ValueError("arbitration cycles must be >= 0")
        self.period = period
        self.arbitration_cycles = arbitration_cycles
        self.arbitration = ArbitrationSpec.coerce(arbitration)
        #: Policy instances handed out so far (for merged grant reporting).
        self._policies: List[ArbitrationPolicy] = []
        #: Every channel, in creation order, and the channel of each
        #: attached slave.
        self._channels: List[Channel] = []
        self._slave_channels: Dict[BusSlave, Channel] = {}
        #: The slave a misdecoded request is queued against, so it holds
        #: a channel like a served one; ``None`` completes it at once.
        self._unmapped: Optional[BusSlave] = None
        self.address_map = AddressMap()
        self.stats = BusStats()
        self._master_ports: Dict[int, MasterPort] = {}
        self._snoopers: List = []
        #: ``total_cycles`` of every completed transaction, in completion
        #: order — the uniform latency column of ``interconnect_stats``.
        #: A packed int64 array: one machine word per transaction, so
        #: million-transfer runs cost megabytes, not a list of boxed ints.
        self._latencies = array("q")
        #: Monitored slave -> (report name, slave cycles per :class:`BusOp`).
        self._monitors: Dict[BusSlave, Tuple[str, Dict[BusOp, array]]] = {}

    # -- arbitration -------------------------------------------------------------
    def new_policy(self) -> ArbitrationPolicy:
        """A fresh arbitration policy for one arbitration point.

        Every grant point of a topology calls this once, so all points run
        the same :class:`ArbitrationSpec`-described policy with independent
        state.
        """
        policy = self.arbitration.create()
        self._policies.append(policy)
        return policy

    def _grant(self, policy: ArbitrationPolicy, requesters) -> int:
        """Ask ``policy`` for a winner; ``None`` with requesters pending is
        a policy bug and raises instead of letting the caller's grant loop
        spin (or crash on a ``None`` lookup) without a diagnostic."""
        winner = policy.grant(requesters)
        if winner is None:
            raise RuntimeError(
                f"{self.name}: arbitration policy "
                f"{type(policy).__name__} granted nobody with requesters "
                f"pending ({list(requesters)})"
            )
        return winner

    @property
    def arbitration_policies(self) -> List[ArbitrationPolicy]:
        """The policy instances created for this fabric's grant points."""
        return list(self._policies)

    def merged_grant_counts(self) -> Dict[int, int]:
        """Grants per master id, summed over every arbitration point."""
        merged: Dict[int, int] = {}
        for policy in self._policies:
            for master_id, count in getattr(policy, "grant_counts",
                                            {}).items():
                merged[master_id] = merged.get(master_id, 0) + count
        return merged

    # -- construction-time wiring ------------------------------------------------
    def attach_slave(self, name: str, base: int, size: int,
                     slave: BusSlave) -> None:
        """Map ``slave`` at ``[base, base+size)`` on this fabric.

        The one shared validation path of every topology: overlapping
        regions, reused names, zero/negative sizes and negative bases all
        raise here — identically on bus, crossbar and mesh — before any
        topology-specific transport state is created.
        """
        region = self.address_map.add_region(name, base, size, slave)
        self._on_attach(region, slave)

    def _on_attach(self, region: Region, slave: BusSlave) -> None:
        """Topology hook: map ``slave`` to the channel that serves it."""

    def monitor(self, slave: BusSlave, name: str) -> None:
        """Keep a traffic column for ``slave``, reported under ``name`` in
        the ``memory_monitors`` block of :meth:`interconnect_stats`."""
        self._monitors[slave] = (name, {op: array("q") for op in BusOp})

    def add_snooper(self, snooper) -> None:
        """Register ``snooper(request, response)``, called once per
        served transfer as its service window closes, in service order
        (cache coherence; instrumentation subscribes to :attr:`probes`)."""
        self._snoopers.append(snooper)

    def _register_port(self, port: MasterPort) -> None:
        if port.master_id in self._master_ports:
            raise ValueError(f"master id {port.master_id} registered twice")
        self._master_ports[port.master_id] = port

    def master_port(self, master_id: int, name: str = "") -> MasterPort:
        """Create (and register) a new master port on this fabric."""
        return MasterPort(self, master_id, name)

    # -- time helpers ------------------------------------------------------------
    def sim_now(self) -> int:
        """Current simulated time (0 before elaboration)."""
        sim = self._sim
        return sim.now if sim is not None else 0

    def time_to_cycles(self, duration: int) -> int:
        """Convert a kernel duration to whole interconnect cycles."""
        return duration // self.period

    # -- channels ----------------------------------------------------------------
    def _add_channel(self, name: str, event_name: str,
                     process_name: str) -> Channel:
        """Create one channel: its policy, its request event and the
        process that runs :meth:`_run_channel` on it."""
        channel = Channel(name, self.new_policy(),
                          self.add_event(Event(event_name)))
        self._channels.append(channel)
        self.add_process(lambda: self._run_channel(channel),
                         name=process_name)
        return channel

    def _run_channel(self, channel: Channel):
        """The one arbitration point of every topology.

        Grant one pending request, hold the channel ``arbitration_cycles``
        (the address phase), call the slave — it acts at the first cycle of
        its service window — and hold the channel for the cycles it returns,
        counting each hold on a :class:`~repro.kernel.Hold`.  Snoopers then
        observe the transfer, in service order, before :meth:`_served`
        completes it.
        """
        pending = channel.pending
        hold = Hold(self.period)
        arbitration_cycles = self.arbitration_cycles
        snoopers = self._snoopers
        while True:
            if not pending:
                yield channel.event
                continue
            winner = self._grant(channel.arbiter, sorted(pending))
            token, request, slave, offset = pending.pop(winner)
            hold.left = arbitration_cycles
            while hold.left:
                yield hold
            response, cycles = self._serve(slave, request, offset)
            hold.left = cycles
            while hold.left:
                yield hold
            response.slave_cycles = cycles
            response.total_cycles = cycles + arbitration_cycles
            channel.busy_cycles += response.total_cycles
            channel.transactions += 1
            for snooper in snoopers:
                snooper(request, response)
            self._served(token, request, response)

    # -- master-side entry point ---------------------------------------------------
    def _post(self, port: MasterPort, request: BusRequest) -> Optional[int]:
        """Decode ``request`` and queue it on its slave's channel.

        Returns ``None`` once it is queued, or the delay after which a
        decode error completes (:meth:`_complete_decode_error`).
        """
        try:
            slave, offset, _region = self.address_map.decode(request.address)
        except AddressDecodeError:
            if self._unmapped is None:
                return self._complete_decode_error(port, request)
            slave, offset = self._unmapped, 0
        channel = self._slave_channels[slave]
        if port.master_id in channel.pending:
            raise RuntimeError(
                f"master {port.master_id} posted a request while one is "
                f"outstanding"
            )
        channel.pending[port.master_id] = (port, request, slave, offset)
        channel.event.notify()
        return None

    # -- shared transfer machinery --------------------------------------------------
    def _serve(self, slave: BusSlave, request: BusRequest,
               offset: int) -> Tuple[BusResponse, int]:
        """Call ``slave.serve`` at the start of its service window.

        Returns ``(response, slave_cycles)`` and appends the cycles to the
        slave's traffic column if it is monitored; :meth:`_run_channel`
        holds the channel for those cycles.
        """
        response, cycles = slave.serve(request, offset)
        if self._monitors and slave in self._monitors:
            self._monitors[slave][1][request.op].append(cycles)
        return response, cycles

    def _respond(self, port: MasterPort, request: BusRequest,
                 response: BusResponse) -> None:
        """Account a finished transfer, probe it and hand the master its
        response."""
        self._account(request, response)
        probe = self.probes.port_complete
        if probe is not None:
            probe(port, request, response)
        port._response = response

    def _deliver(self, port: MasterPort, request: BusRequest,
                 response: BusResponse) -> None:
        """Complete a transfer and wake the master."""
        self._respond(port, request, response)
        port._completion.notify()

    #: Topology hook called by :meth:`_run_channel` with the token the
    #: request was queued with once its service window closed; the bus
    #: and the crossbar queue the master port, so it is :meth:`_deliver`.
    _served = _deliver

    def _complete_decode_error(self, port: MasterPort,
                               request: BusRequest) -> int:
        """The decode-error path that involves no channel.

        Completes after one interconnect cycle with a decode error: it
        returns that delay, which the master waits as its own timer
        instead of its completion event.  The failed transfer is
        accounted per master exactly like a served one, so topology
        comparisons see the same columns, and ``port_complete`` fires
        (snoopers never see it).
        """
        self.stats.decode_errors += 1
        response = decode_error_response()
        response.slave_cycles = 1
        response.total_cycles = 1
        self._respond(port, request, response)
        return self.period

    # -- accounting ---------------------------------------------------------------
    def _account(self, request: BusRequest, response: BusResponse) -> None:
        self.stats.transactions += 1
        self.stats.busy_cycles += response.total_cycles
        self._latencies.append(response.total_cycles)
        per_master = self.stats.master(request.master_id)
        per_master.transactions += 1
        per_master.words += request.word_count
        per_master.busy_cycles += response.total_cycles
        if request.op is BusOp.READ:
            per_master.reads += 1
        else:
            per_master.writes += 1
        if response.status is not ResponseStatus.OK:
            per_master.errors += 1

    # -- reporting ----------------------------------------------------------------
    def utilization(self, elapsed_time: int) -> float:
        """Fraction of ``elapsed_time`` the fabric spent busy (0.0–1.0).

        The default treats the fabric as one serialized channel (the
        shared-bus view); concurrent topologies override it.
        """
        if elapsed_time <= 0:
            return 0.0
        busy_time = self.stats.busy_cycles * self.period
        return min(1.0, busy_time / elapsed_time)

    def interconnect_stats(self, elapsed_time: int = 0) -> Dict[str, object]:
        """The uniform JSON-ready interconnect block of a platform report.

        Same columns on every topology: the :class:`BusStats` counters
        (with the per-master table), utilization, the end-to-end
        transaction-latency percentiles and the merged arbitration grant
        counts.  Topologies append their own blocks via
        :meth:`_decorate_stats` (the mesh's ``"noc"`` section); the
        monitored slaves' blocks come last.
        """
        block: Dict[str, object] = {
            **self.stats.as_dict(),
            "utilization": self.utilization(elapsed_time),
            "latency_percentiles": percentile_summary(self._latencies),
            "arbitration": {
                "kind": self.arbitration.kind,
                "grant_counts": {master_id: count for master_id, count in
                                 sorted(self.merged_grant_counts().items())},
            },
        }
        self._decorate_stats(block, elapsed_time)
        monitors = self.monitor_stats()
        if monitors:
            block["memory_monitors"] = monitors
            block["memory_transactions"] = sum(
                monitor["transactions"] for monitor in monitors)
        return block

    def monitor_stats(self) -> List[Dict[str, object]]:
        """One :func:`~repro.fabric.stats.monitor_block` per monitored
        slave, in registration order."""
        return [monitor_block(name, by_op[BusOp.READ], by_op[BusOp.WRITE])
                for name, by_op in self._monitors.values()]

    def _decorate_stats(self, block: Dict[str, object],
                        elapsed_time: int) -> None:
        """Topology hook: add extra report sections (default none)."""
