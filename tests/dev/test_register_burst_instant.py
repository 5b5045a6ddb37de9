"""When a device register access takes effect, on every topology.

A slave acts when the fabric calls ``serve``: at the first cycle of its
service window, whose length is the cycle count ``serve`` returns.  For
the one-cycle windows every in-tree driver uses (the DMA ``GO`` write,
doorbells, the ``STATUS`` read and clear) start and end are the same
instant, which part (a) pins.  Part (b) pins the rule itself where it is
visible: a doorbell inside a
multi-word burst raises at the burst's first slave cycle, and the burst
still completes after all of its slave cycles.
"""

import pytest

from repro.api import PlatformBuilder, workload
from repro.dev.dma import DmaDriver
from repro.dev.irq import REG_PENDING
from repro.memory.protocol import DataType
from repro.soc.platform import Platform

TOPOLOGIES = ["bus", "crossbar", "mesh"]


def build(topology, devices):
    builder = PlatformBuilder().pes(2).wrapper_memories(2)
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    return devices(builder).build()


def run_recorded(config, tasks):
    """Run ``tasks`` and return the device events as ``(what, cycle)``.

    Recorded: ``irq_raise``, ``dma_begin``, ``dma_end`` and the completion
    of every PE transfer to a device window (tags ``dma.*`` / ``irq.*``).
    """
    platform = Platform(config)
    events = []

    def at(what):
        events.append((what, platform.simulator.now // config.clock_period))

    def completed(port, request, response):
        if request.tag.startswith(("dma.", "irq.")):
            at(f"complete {request.tag}")

    platform.probes.subscribe(
        irq_raise=lambda mask: at("irq_raise"),
        dma_begin=lambda engine, count: at("dma_begin"),
        dma_end=lambda engine, ok, words: at("dma_end"),
        port_complete=completed,
    )
    platform.add_tasks(tasks)
    report = platform.run(max_time=100_000 * config.clock_period)
    assert report.all_pes_finished
    return report, events


# -- (a) in-tree traffic: one-cycle windows ----------------------------------------

#: (program burst done, dma_begin, GO done, dma_end = irq_raise,
#:  STATUS read done, STATUS clear done), in cycles.
DMA_COPY_CYCLES = {
    "bus": (55, 56, 57, 111, 113, 115),
    "crossbar": (55, 56, 57, 110, 112, 114),
    "mesh": (130, 135, 140, 251, 261, 271),
}

#: (irq_raise, doorbell write done), in cycles.
DOORBELL_CYCLES = {
    "bus": (38, 39),
    "crossbar": (38, 39),
    "mesh": (94, 101),
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dma_copy_instants(topology):
    config = build(topology, lambda b: b.dma(1))

    def copier(ctx):
        src, dst = ctx.smem(0), ctx.smem(1)
        sp = yield from src.alloc(8, DataType.UINT32)
        dp = yield from dst.alloc(8, DataType.UINT32)
        yield from src.write_array(sp, list(range(8)))
        return (yield from DmaDriver(ctx).copy(0, sp, 1, dp, 8))

    report, events = run_recorded(config, [copier])
    assert report.results["pe0"] is True
    program, begin, go, end, status_read, status_clear = \
        DMA_COPY_CYCLES[topology]
    assert events == [
        ("complete dma.program", program),
        ("dma_begin", begin),
        ("complete dma.reg", go),
        ("dma_end", end),
        ("irq_raise", end),
        ("complete dma.reg", status_read),
        ("complete dma.reg", status_clear),
    ]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_doorbell_handoff_instants(topology):
    config = build(topology, lambda b: b.irq_controller())
    tasks = workload.create("stress_irq_handoff", config, words=8).tasks
    _report, events = run_recorded(config, tasks)
    raised, done = DOORBELL_CYCLES[topology]
    assert events == [("irq_raise", raised), ("complete irq.raise", done)]


# -- (b) the rule: a multi-word window acts at its first cycle ---------------------

def ring(topology, words):
    """One PE writes ``words`` to ``REG_PENDING`` onward at time 0; returns
    (raise cycle, completion cycle, slave cycles) of that transfer."""
    config = build(topology, lambda b: b.irq_controller())
    base = config.device_layout().controller.base

    def ringer(ctx):
        response = yield from ctx.port.burst_write(
            base + 4 * REG_PENDING, words, tag="irq.burst")
        return response.slave_cycles

    report, events = run_recorded(config, [ringer])
    (what, raised), (_, done) = events
    assert what == "irq_raise"
    return raised, done, report.results["pe0"]


#: (irq_raise, burst done) of a doorbell leading a 3-word burst, in cycles.
BURST_CYCLES = {
    "bus": (1, 4),
    "crossbar": (1, 4),
    "mesh": (9, 18),
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_doorbell_in_burst_raises_at_window_start(topology):
    # PENDING doorbell, ACK of nothing, plain LEVEL store: one raise.
    raised, done, slave_cycles = ring(topology, [0b100, 0, 0])
    assert slave_cycles == 3
    assert (raised, done) == BURST_CYCLES[topology]
    # A one-word window starts and ends at its raise; what follows its
    # end is the response's way back, the same for both transfers.
    single_raised, single_done, single_cycles = ring(topology, [0b100])
    assert single_cycles == 1
    back = single_done - (single_raised + 1)
    assert raised == done - back - slave_cycles
