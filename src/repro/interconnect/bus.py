"""Shared-bus interconnect model.

The :class:`SharedBus` serialises transfers from several masters onto a
single channel, as in the AMBA-style interconnects targeted by the paper's
framework.  Timing is transaction-accurate with cycle granularity: each
transfer occupies the bus for ``arbitration_cycles`` plus however many cycles
the addressed slave spends serving it: the slave acts at the first cycle of
its window and returns the window's length (the dynamic shared-memory
wrapper's FSM sums its per-state cycles, exactly as the paper describes),
and the channel is held one cycle at a time for that length.

Masters interact with the bus through a
:class:`~repro.fabric.port.MasterPort`::

    # inside a kernel process
    response = yield from master_port.transfer(
        BusRequest(master_id=0, op=BusOp.READ, address=0x1000)
    )

The ``yield from`` suspends the calling process until the bus grants and the
slave completes the transfer.

The bus is the simplest :class:`~repro.fabric.Fabric` topology: it maps
every slave to its one channel, which the fabric's
:meth:`~repro.fabric.Fabric._run_channel` serves.  A misdecoded address
still occupies that channel — arbitration plus one error cycle — because
it is queued against a private slave that answers every request with a
decode error.
"""

from __future__ import annotations

from typing import Optional, Union

from ..fabric import (
    ArbitrationSpec,
    BusSlave,
    Fabric,
    Region,
    decode_error_response,
)
from ..kernel import Module, Probes
from ..kernel.simtime import NS

__all__ = [
    "SharedBus",
]


class _Unmapped(BusSlave):
    """What a misdecoded request is served by: one error cycle."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric

    def serve(self, request, offset):
        self.fabric.stats.decode_errors += 1
        return decode_error_response(), 1


class SharedBus(Fabric):
    """A single shared channel with configurable arbitration.

    Parameters
    ----------
    name:
        Module name.
    period:
        Clock period of the interconnect in kernel time units.
    arbitration_cycles:
        Fixed overhead cycles added to every granted transfer (address phase).
    arbitration:
        :class:`~repro.fabric.ArbitrationSpec` (or policy-kind string)
        describing the policy, shared with the crossbar and the mesh;
        defaults to round-robin.
    """

    def __init__(
        self,
        name: str = "bus",
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
        #: The single arbitration point of the serialized channel.
        self.channel = self._add_channel(name, f"{name}.request", "channel")
        self._unmapped = _Unmapped(self)
        self._slave_channels[self._unmapped] = self.channel

    def _on_attach(self, region: Region, slave: BusSlave) -> None:
        self._slave_channels[slave] = self.channel
