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

The bus is the simplest :class:`~repro.fabric.Fabric` topology: one channel
process, one arbitration point.  Everything but the grant loop — slave
attachment, master ports, snoopers, statistics — is inherited from the
fabric layer in :mod:`repro.fabric`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..fabric import (
    AddressDecodeError,
    ArbitrationPolicy,
    ArbitrationSpec,
    BusOp,
    BusRequest,
    Fabric,
    MasterPort,
    decode_error_response,
)
from ..kernel import Event, Module, Probes
from ..kernel.simtime import NS

__all__ = [
    "SharedBus",
]


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
    arbiter:
        Ready arbitration policy instance (legacy spelling); defaults to
        round-robin.  Mutually exclusive with ``arbitration``.
    arbitration:
        :class:`~repro.fabric.ArbitrationSpec` (or policy-kind string)
        describing the policy — the fabric-era spelling shared with the
        crossbar and the mesh.
    """

    def __init__(
        self,
        name: str = "bus",
        period: int = 10 * NS,
        arbitration_cycles: int = 1,
        arbiter: Optional[ArbitrationPolicy] = None,
        parent: Optional[Module] = None,
        arbitration: Union[ArbitrationSpec, str, None] = None,
        probes: Optional[Probes] = None,
    ) -> None:
        if arbiter is not None and arbitration is not None:
            raise ValueError("pass either arbiter= or arbitration=, not both")
        super().__init__(name, period,
                         arbitration_cycles=arbitration_cycles,
                         arbitration=arbiter if arbiter is not None
                         else arbitration,
                         parent=parent, probes=probes)
        #: The single arbitration point of the serialized channel.
        self.arbiter = self.new_policy()
        self._pending: Dict[int, Tuple[MasterPort, BusRequest]] = {}
        self._request_event = self.add_event(Event(f"{name}.request"))
        self._anchor_event = self._request_event
        self.add_process(self._run, name="channel")

    # -- master-side entry point ---------------------------------------------------
    def _post(self, port: MasterPort, request: BusRequest) -> None:
        if port.master_id in self._pending:
            raise RuntimeError(
                f"master {port.master_id} posted a request while one is outstanding"
            )
        self._pending[port.master_id] = (port, request)
        self._request_event.notify()

    # -- channel process --------------------------------------------------------------
    def _run(self):
        while True:
            if not self._pending:
                yield self._request_event
                continue
            winner = self._grant(self.arbiter, sorted(self._pending))
            port, request = self._pending.pop(winner)
            # Address phase / arbitration overhead.
            for _ in range(self.arbitration_cycles):
                yield self.period
            # Data phase: the slave acts now; the bus is held for its cycles.
            try:
                slave, offset, _region = self.address_map.decode(request.address)
            except AddressDecodeError:
                # The bus channel is held for the error cycle, unlike the
                # concurrent topologies' immediate-completion decode path —
                # a misdecoded address still occupied the shared channel.
                yield self.period
                self.stats.decode_errors += 1
                response, slave_cycles = decode_error_response(), 1
            else:
                response, slave_cycles = self._serve(slave, request, offset)
                for _ in range(slave_cycles):
                    yield self.period
            response.slave_cycles = slave_cycles
            response.total_cycles = slave_cycles + self.arbitration_cycles
            self._finish(port, request, response)
