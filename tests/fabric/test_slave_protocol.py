"""Every slave in ``src`` speaks the one slave protocol.

``BusSlave.serve(request, offset)`` is a plain call that returns
``(BusResponse, cycles)`` with ``cycles >= 1``; the topology holds the
channel for those cycles.  A generator ``serve`` (the protocol the fabric
used to resume once per busy cycle) must not come back, so this runs in
CI's import gate.
"""

import inspect

import pytest

from repro.api import PlatformBuilder
from repro.dev import DmaEngine, InterruptController, TimerPeripheral
from repro.fabric import BusOp, BusRequest, BusResponse, BusSlave, ResponseStatus
from repro.memory import ModeledDynamicMemory, StaticMemory
from repro.soc import Platform
from repro.wrapper import SharedMemoryWrapper

SLAVE_TYPES = [SharedMemoryWrapper, ModeledDynamicMemory, StaticMemory,
               InterruptController, DmaEngine, TimerPeripheral]


def test_base_class_defines_only_serve():
    assert [name for name in vars(BusSlave) if not name.startswith("__")] \
        == ["serve"]


@pytest.mark.parametrize("slave_type", SLAVE_TYPES,
                         ids=lambda cls: cls.__name__)
def test_serve_is_a_plain_method(slave_type):
    assert not inspect.isgeneratorfunction(slave_type.serve)
    for name in ("access", "latency"):
        assert not hasattr(slave_type, name), (
            f"{slave_type.__name__}.{name} is a second slave protocol")


def mapped_slaves():
    """(slave, window bytes) of every slave a platform maps, wired and
    elaborated, plus a static memory on its own."""
    slaves = [(StaticMemory(64), 64)]
    for builder in (PlatformBuilder().pes(1).wrapper_memories(1).dma(1)
                    .timer(),
                    PlatformBuilder().pes(1).modeled_memories(1)):
        platform = Platform(builder.build())
        platform.add_task(lambda ctx: (yield from ctx.compute(1)))
        platform.run()  # binds the device events a register write notifies
        slaves += [(region.slave, region.size)
                   for region in platform.interconnect.address_map.regions]
    return slaves


SLAVES = mapped_slaves()


def test_every_slave_type_is_covered():
    assert {type(slave) for slave, _ in SLAVES} == set(SLAVE_TYPES)


@pytest.mark.parametrize("slave, window", [
    pytest.param(slave, window, id=type(slave).__name__)
    for slave, window in SLAVES])
def test_serve_returns_response_and_cycles(slave, window):
    requests = [
        (BusRequest(0, BusOp.READ, 0), 0),                       # scalar read
        (BusRequest(0, BusOp.WRITE, 0, burst_data=[0, 0]), 0),   # burst write
        (BusRequest(0, BusOp.READ, 0), window),                  # out of range
    ]
    for request, offset in requests:
        response, cycles = slave.serve(request, offset)
        assert isinstance(response, BusResponse)
        assert type(cycles) is int and cycles >= 1
    assert response.status is ResponseStatus.SLAVE_ERROR
