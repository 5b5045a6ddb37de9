"""Crossbar interconnect: concurrent channels, one per slave.

Unlike the :class:`~repro.interconnect.bus.SharedBus`, a crossbar lets
transfers addressed to *different* slaves proceed in parallel; only accesses
to the same slave are serialised (per-slave arbitration).  The master-side
interface is identical (:class:`~repro.fabric.port.MasterPort`), so
platforms can swap interconnects without touching the processing elements.

As a :class:`~repro.fabric.Fabric` topology the crossbar only owns its
transport: one channel process per attached slave, each with its own
arbitration point created from the fabric's shared
:class:`~repro.fabric.ArbitrationSpec`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..fabric import (
    AddressDecodeError,
    ArbitrationPolicy,
    ArbitrationSpec,
    BusRequest,
    BusSlave,
    Fabric,
    MasterPort,
    Region,
)
from ..kernel import Event, Module, Probes
from ..kernel.simtime import NS


class _Channel:
    """Book-keeping for one slave-side channel of the crossbar."""

    def __init__(self, name: str, slave: BusSlave,
                 arbiter: ArbitrationPolicy) -> None:
        self.name = name
        self.slave = slave
        self.arbiter = arbiter
        self.pending: Dict[int, Tuple[MasterPort, BusRequest, int]] = {}
        self.request_event: Optional[Event] = None
        self.busy_cycles = 0
        self.transactions = 0


class Crossbar(Fabric):
    """A full crossbar with pluggable per-slave arbitration."""

    def __init__(
        self,
        name: str = "xbar",
        period: int = 10 * NS,
        arbitration_cycles: int = 1,
        parent: Optional[Module] = None,
        arbitration: Union[ArbitrationSpec, str, None] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        super().__init__(name, period,
                         arbitration_cycles=arbitration_cycles,
                         arbitration=arbitration, parent=parent,
                         probes=probes)
        self._channels: List[_Channel] = []
        self._slave_to_channel: Dict[int, _Channel] = {}
        self._anchor_event = self.add_event(Event(f"{name}.decode_error"))

    # -- construction-time wiring -------------------------------------------------
    def _on_attach(self, region: Region, slave: BusSlave) -> None:
        """Create the dedicated channel of a newly mapped slave."""
        if id(slave) not in self._slave_to_channel:
            channel = _Channel(region.name, slave, self.new_policy())
            channel.request_event = self.add_event(
                Event(f"{self.name}.{region.name}.req"))
            self._channels.append(channel)
            self._slave_to_channel[id(slave)] = channel
            self.add_process(
                lambda ch=channel: self._run_channel(ch),
                name=f"channel_{region.name}",
            )

    # -- master-side entry point ----------------------------------------------------
    def _post(self, port: MasterPort, request: BusRequest) -> None:
        try:
            slave, offset, _region = self.address_map.decode(request.address)
        except AddressDecodeError:
            self._complete_decode_error(port, request)
            return
        channel = self._slave_to_channel[id(slave)]
        if port.master_id in channel.pending:
            raise RuntimeError(
                f"master {port.master_id} posted a request while one is outstanding"
            )
        channel.pending[port.master_id] = (port, request, offset)
        assert channel.request_event is not None
        channel.request_event.notify()

    # -- per-channel process ------------------------------------------------------------
    def _run_channel(self, channel: _Channel):
        while True:
            if not channel.pending:
                yield channel.request_event
                continue
            winner = self._grant(channel.arbiter, sorted(channel.pending))
            port, request, offset = channel.pending.pop(winner)
            for _ in range(self.arbitration_cycles):
                yield self.period
            response, cycles = self._serve(channel.slave, request, offset)
            for _ in range(cycles):
                yield self.period
            response.slave_cycles = cycles
            response.total_cycles = cycles + self.arbitration_cycles
            channel.busy_cycles += response.total_cycles
            channel.transactions += 1
            self._finish(port, request, response)

    # -- reporting ------------------------------------------------------------------------
    def channel_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel busy-cycle and transaction counters."""
        return {
            ch.name: {"busy_cycles": ch.busy_cycles, "transactions": ch.transactions}
            for ch in self._channels
        }

    def utilization(self, elapsed_time: int) -> float:
        """Average fraction of time the channels were busy."""
        if elapsed_time <= 0 or not self._channels:
            return 0.0
        busy = sum(ch.busy_cycles for ch in self._channels) * self.period
        return min(1.0, busy / (elapsed_time * len(self._channels)))

    def _decorate_stats(self, block: Dict[str, object],
                        elapsed_time: int) -> None:
        block["channels"] = self.channel_stats()
