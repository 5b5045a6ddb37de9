"""Frame-count guard for the L1 scalar hit path: counts calls, never times.

An ``smem.read`` that hits in the L1 never reaches the fabric, so its whole
host cost is Python frames between the task and the kernel's timed wait.
``sys.setprofile`` counts every Python-level ``call`` event (a generator
resumption is one per frame of the ``yield from`` chain, so chain depth
counts twice) around 256 hitting reads on a 1-PE write-back platform.

The bound fails when the command is decoded through the enum constructors
again, when ``SharedAllocation`` geometry goes back to properties, or when
a hit is answered from inside per-opcode generators: the path before the
synchronous probe cost 48 calls per read (PR 13), the probe path cost 30,
and 28 once ``CachedPort.transfer`` stopped being a generator of its own.
It belongs beside ``test_kernel_fastpath_smoke``: a host-speed guard that a
loaded CI host cannot flake.
"""

import sys

from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform

READS = 256
#: 28 calls per hitting read on the probe path, plus ~25 % headroom.
MAX_CALLS_PER_READ = 35


def test_l1_hit_read_stays_within_the_call_budget():
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        for offset in range(16):  # cold pass: fill every line
            yield from smem.read(vptr, offset=offset)
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
        PlatformBuilder().pes(1).wrapper_memories(1)
        .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back").build())
    platform.add_task(task)
    report = platform.run()

    assert report.results["pe0"] == 0  # calloc zeros, served by the cache
    stats = platform.caches[0].stats
    assert stats.hits == READS + 12 and stats.misses == 4  # all measured reads hit
    per_read = calls[0] / READS
    assert per_read <= MAX_CALLS_PER_READ, (
        f"{per_read:.1f} Python calls per L1-hit smem.read "
        f"(budget {MAX_CALLS_PER_READ})")
