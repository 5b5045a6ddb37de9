"""Master- and slave-side endpoints of the interconnect fabric.

These two classes define the *one* memory-access surface of the platform:
processing elements talk to a :class:`MasterPort`, memory modules and
peripherals implement :class:`BusSlave` — and neither side ever sees which
topology (shared bus, crossbar, mesh NoC) carries the transfer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from ..kernel import Event
from .transaction import BusOp, BusRequest, BusResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Fabric


class BusSlave:
    """Base class for everything that can be mapped on the interconnect.

    Slaves implement either:

    * :meth:`access` and :meth:`latency` — the convenient fixed/function
      latency flavour (static memories, peripherals); or
    * :meth:`serve` directly — a generator the interconnect advances once per
      clock cycle, for cycle-true models (the wrapper FSM).
    """

    def access(self, request: BusRequest, offset: int) -> BusResponse:
        """Perform the access functionally and return the response."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither access() nor serve()"
        )

    def latency(self, request: BusRequest) -> int:
        """Number of cycles :meth:`serve` should consume (default 1)."""
        return 1

    def serve(self, request: BusRequest, offset: int
              ) -> Generator[None, None, BusResponse]:
        """Cycle-driven service generator.

        Each ``yield`` consumes one interconnect clock cycle; the returned
        value is the transaction response.  The default implementation calls
        :meth:`access` once and stretches the transfer to :meth:`latency`
        cycles.
        """
        cycles = max(1, self.latency(request))
        for _ in range(cycles - 1):
            yield None
        return self.access(request, offset)


class MasterPort:
    """A master-side handle used to issue transactions on an interconnect."""

    def __init__(self, interconnect: "Fabric", master_id: int,
                 name: str = "") -> None:
        self._interconnect = interconnect
        self.master_id = master_id
        self.name = name or f"master{master_id}"
        self._completion = Event(f"{self.name}.completion")
        self._response: Optional[BusResponse] = None
        interconnect._register_port(self)

    @property
    def last_response(self) -> Optional[BusResponse]:
        """The response of the most recently completed transfer."""
        return self._response

    def transfer(self, request: BusRequest
                 ) -> Generator[object, None, BusResponse]:
        """Issue ``request`` and suspend until it completes (``yield from``)."""
        if request.master_id != self.master_id:
            request.master_id = self.master_id
        probe = self._interconnect.probes.port_issue
        if probe is not None:
            probe(self, request)
        post_time = self._interconnect.sim_now()
        self._interconnect._post(self, request)
        yield self._completion
        response = self._response
        assert response is not None, "bus completed a transfer without a response"
        wait_cycles = self._interconnect.time_to_cycles(
            self._interconnect.sim_now() - post_time
        )
        stats = self._interconnect.stats.master(self.master_id)
        stats.wait_cycles += max(0, wait_cycles - response.total_cycles)
        return response

    # Convenience wrappers -----------------------------------------------------
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
