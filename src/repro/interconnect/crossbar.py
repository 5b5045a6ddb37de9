"""Crossbar interconnect: concurrent channels, one per slave.

Unlike the :class:`~repro.interconnect.bus.SharedBus`, a crossbar lets
transfers addressed to *different* slaves proceed in parallel; only accesses
to the same slave are serialised (per-slave arbitration).  The master-side
interface is identical (:class:`~repro.fabric.port.MasterPort`), so
platforms can swap interconnects without touching the processing elements.

As a :class:`~repro.fabric.Fabric` topology the crossbar only gives each
attached slave its own channel, with its own arbitration point created
from the fabric's shared :class:`~repro.fabric.ArbitrationSpec`; the
fabric's :meth:`~repro.fabric.Fabric._run_channel` serves every one.  A
misdecoded address reaches no channel and completes after one cycle.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..fabric import ArbitrationSpec, BusSlave, Fabric, Region
from ..kernel import Event, Module, Probes
from ..kernel.simtime import NS


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
        self._anchor_event = self.add_event(Event(f"{name}.decode_error"))

    def _on_attach(self, region: Region, slave: BusSlave) -> None:
        """Create the dedicated channel of a newly mapped slave."""
        if slave not in self._slave_channels:
            self._slave_channels[slave] = self._add_channel(
                region.name, f"{self.name}.{region.name}.req",
                f"channel_{region.name}")

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
