"""Frame-count guard for the mesh hop path: counts calls, never times.

A scalar ``smem.read`` over the mesh is one request packet out and one
response packet back, each visiting an injection port, its links and an
ejection port; everything the host pays per visit is Python frames around
the activations the goldens pin.  ``sys.setprofile`` counts every
Python-level ``call`` event (a generator resumption is one per frame of the
``yield from`` chain) around 256 reads on a 1-PE, 1-memory 2x2 mesh.

A read costs 182 calls: one lane scan and one grant per port visit, and a
slave that is one plain ``serve`` call while its server process holds the
channel.  The bound fails when a
port visit goes back to building and sorting a lane list twice, to a
``_forward`` generator per hand-over, to a route computed per packet, when
an immediate ``notify()`` nobody waits on walks the collect-and-wake chain
again, or when the slave becomes a generator resumed once per busy cycle.
It sits beside ``test_l1_hit_frames``: a host-speed guard that a loaded CI
host cannot flake.
"""

import sys

from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform

READS = 256
#: 182 calls per read, plus ~16 % headroom.
MAX_CALLS_PER_READ = 210


def test_mesh_read_stays_within_the_call_budget():
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        yield from smem.read(vptr)  # warm: routes, lane queues
        total = 0
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for step in range(READS):
                total += (yield from smem.read(vptr, offset=step % 16))
        finally:
            sys.setprofile(previous)
        yield from smem.free(vptr)
        return total

    platform = Platform(
        PlatformBuilder().pes(1).wrapper_memories(1).mesh(2, 2).build())
    platform.add_task(task)
    report = platform.run()

    assert report.results["pe0"] == 0  # calloc zeros
    noc = report.interconnect_stats["noc"]
    assert noc["average_hops"] == 4.0  # inject, two links, eject — each way
    per_read = calls[0] / READS
    assert per_read <= MAX_CALLS_PER_READ, (
        f"{per_read:.1f} Python calls per smem.read over a 2x2 mesh "
        f"(budget {MAX_CALLS_PER_READ})")
