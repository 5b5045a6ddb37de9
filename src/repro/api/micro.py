"""Micro-benchmark helpers: drive a single memory module directly.

The operation-cost and capacity experiments (E3, E5, E6) exercise one
memory module at a time, without a full platform around it.  These helpers
replace the per-bench copies of the command-driving loop:

* :func:`drive` feeds one packed command (or raw bus request) to a memory
  module's ``serve`` call and reports the response, the simulated slave
  cycles it took, and the host time spent serving it;
* :func:`single_memory_testbench` assembles the minimal bus + one-memory
  fabric used by instruction-accurate (ISS) experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..fabric import BusOp, BusRequest
from ..interconnect.bus import SharedBus
from ..kernel import Module
from ..memory.protocol import MemCommand, REGISTER_WINDOW_BYTES
from ..wrapper.api import SharedMemoryAPI
from ..wrapper.shared_memory import SharedMemoryWrapper
from .perf import PerfTimer


@dataclass
class DriveResult:
    """Outcome of serving one command on a memory module."""

    #: The memory's response object (opcode dependent).
    response: object
    #: Simulated slave cycles observed while serving the command.
    cycles: int
    #: Host seconds spent inside the ``serve`` call.
    host_seconds: float

    @property
    def host_us(self) -> float:
        """Host microseconds (the unit the cost tables print)."""
        return self.host_seconds * 1e6


def drive(memory, command: Union[MemCommand, BusRequest], *,
          offset: int = 0, master_id: int = 0) -> DriveResult:
    """Serve one command on ``memory`` and measure cycles and host time.

    ``command`` is either a high-level :class:`MemCommand` (packed into a
    register-window write, as the wrapper API does) or a pre-built
    :class:`BusRequest` (e.g. an I/O-array burst).  The cycle count is the
    one ``serve`` returns.
    """
    if isinstance(command, MemCommand):
        request = BusRequest(master_id, BusOp.WRITE, 0,
                             burst_data=command.to_words())
    else:
        request = command
    with PerfTimer() as timer:
        response, cycles = memory.serve(request, offset)
    return DriveResult(
        response=response,
        cycles=cycles,
        host_seconds=timer.seconds,
    )


@dataclass
class MemoryTestbench:
    """The minimal fabric around one shared memory module."""

    top: Module
    bus: SharedBus
    memory: object
    port: object
    api: SharedMemoryAPI


def single_memory_testbench(
    memory=None, *,
    base_address: int = 0x1000_0000,
    clock_period: int = 10,
    master_name: str = "pe0",
    name: str = "tb",
) -> MemoryTestbench:
    """Build ``top ── bus ── memory`` with one master port and API.

    ``memory`` defaults to a fresh :class:`SharedMemoryWrapper`.  The
    caller owns attaching a processor (ISS or task processor) to
    ``testbench.port`` and running a :class:`~repro.kernel.Simulator` over
    ``testbench.top``.
    """
    top = Module(name)
    bus = SharedBus("bus", period=clock_period, parent=top)
    if memory is None:
        memory = SharedMemoryWrapper(name="smem0")
    bus.attach_slave("smem0", base_address, REGISTER_WINDOW_BYTES, memory)
    port = bus.master_port(0, name=master_name)
    api = SharedMemoryAPI(port, base_address=base_address, sm_addr=0)
    return MemoryTestbench(top=top, bus=bus, memory=memory, port=port, api=api)
