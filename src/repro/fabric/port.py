"""Master- and slave-side endpoints of the interconnect fabric.

These two classes define the *one* memory-access surface of the platform:
processing elements talk to a :class:`MasterPort`, memory modules and
peripherals implement :class:`BusSlave` — and neither side ever sees which
topology (shared bus, crossbar, mesh NoC) carries the transfer.  A slave
is one plain call, :meth:`BusSlave.serve`; the topology holds its channel
for the cycle count the call returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Tuple

from ..kernel import Event
from .transaction import BusOp, BusRequest, BusResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Fabric


class BusSlave:
    """Base class for everything that can be mapped on the interconnect.

    A slave implements exactly one method, :meth:`serve`.
    """

    def serve(self, request: BusRequest, offset: int
              ) -> Tuple[BusResponse, int]:
        """Serve ``request`` at byte ``offset`` of the slave's window.

        A plain call, returning the response and the number of
        interconnect cycles the service takes (at least 1).  The slave
        acts when it is called, which is the first cycle of that service
        window: every side effect (a register hook, a memory update)
        lands at the window's start, and the topology then holds the
        channel for the returned cycles before it delivers the response.
        """
        raise NotImplementedError(f"{type(self).__name__} implements no serve()")


class PortHelpers:
    """The scalar and burst helpers every master-side port offers.

    Each one builds a :class:`BusRequest` and hands it to ``transfer``; a
    port supplies ``master_id`` and ``transfer``.
    """

    master_id: int
    #: A caching port's hit front; a plain port has none.  ``scalar_hit(
    #: address, store, sm_addr, vptr, offset, data)`` answers a hit's word
    #: (0 for a store) or ``None``; a hit then waits ``hit_wait``.
    scalar_hit: Optional[Callable[..., Optional[int]]] = None
    hit_wait: int = 0

    def read(self, address: int, size: int = 4, tag: str = ""
             ) -> Generator[object, None, BusResponse]:
        """Scalar read helper (``yield from port.read(addr)``)."""
        return self.transfer(
            BusRequest(self.master_id, BusOp.READ, address, size=size, tag=tag)
        )

    def write(self, address: int, data: int, size: int = 4, tag: str = ""
              ) -> Generator[object, None, BusResponse]:
        """Scalar write helper."""
        return self.transfer(
            BusRequest(self.master_id, BusOp.WRITE, address, data=data, size=size,
                       tag=tag)
        )

    def burst_read(self, address: int, length: int, tag: str = ""
                   ) -> Generator[object, None, BusResponse]:
        """Burst read helper (``length`` words)."""
        return self.transfer(
            BusRequest(self.master_id, BusOp.READ, address, burst_length=length,
                       tag=tag)
        )

    def burst_write(self, address: int, words: List[int], tag: str = ""
                    ) -> Generator[object, None, BusResponse]:
        """Burst write helper."""
        return self.transfer(
            BusRequest(self.master_id, BusOp.WRITE, address, burst_data=list(words),
                       tag=tag)
        )


class MasterPort(PortHelpers):
    """A master-side handle used to issue transactions on an interconnect."""

    def __init__(self, interconnect: "Fabric", master_id: int,
                 name: str = "") -> None:
        self._interconnect = interconnect
        self.master_id = master_id
        self.name = name or f"master{master_id}"
        self._completion = Event(f"{self.name}.completion")
        self._response: Optional[BusResponse] = None
        interconnect._register_port(self)

    def transfer(self, request: BusRequest
                 ) -> Generator[object, None, BusResponse]:
        """Issue ``request`` and suspend until it completes (``yield from``)."""
        if request.master_id != self.master_id:
            request.master_id = self.master_id
        probe = self._interconnect.probes.port_issue
        if probe is not None:
            probe(self, request)
        post_time = self._interconnect.sim_now()
        delay = self._interconnect._post(self, request)
        yield self._completion if delay is None else delay
        response = self._response
        assert response is not None, "bus completed a transfer without a response"
        wait_cycles = self._interconnect.time_to_cycles(
            self._interconnect.sim_now() - post_time
        )
        stats = self._interconnect.stats.master(self.master_id)
        stats.wait_cycles += max(0, wait_cycles - response.total_cycles)
        return response
