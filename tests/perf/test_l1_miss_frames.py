"""Frame-count guard for the L1 scalar miss path: counts calls, never times.

A scalar ``smem.read`` that misses in a write-back L1 runs the whole fill:
the read snoop over the other caches, a ``READ_ARRAY`` command burst for
the line, the I/O-array fetch of its words and the install into the
directory.  ``sys.setprofile`` counts every Python-level ``call`` event
(kernel, fabric and wrapper included, since the fill really crosses the
interconnect) around 8 reads that each miss a fresh line on a 1-PE
write-back platform.  The lines are consecutive and fit the cache, so no
read evicts anything and no writeback runs.

A missing read cost 182 calls when this budget was set, and 169 once the
API stopped building a ``MemCommand`` per access.  The budget pins the
first figure so a change to the fill path shows up as a count; cutting
the fill path itself is still to do.
It sits beside ``test_l1_hit_frames``: a host-speed guard that a loaded CI
host cannot flake.
"""

import sys

from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform

#: Words per 16-byte line of UINT32 elements.
LINE_WORDS = 4
WARM_LINES = 4
MISSES = 8
#: 182 calls per missing read, plus ~10 % headroom.
MAX_CALLS_PER_MISS = 200


def test_l1_miss_read_stays_within_the_call_budget():
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(LINE_WORDS * (WARM_LINES + MISSES),
                                     DataType.UINT32)
        for line in range(WARM_LINES):  # cold fills: first-use caches
            yield from smem.read(vptr, offset=line * LINE_WORDS)
        total = 0
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for line in range(WARM_LINES, WARM_LINES + MISSES):
                total += (yield from smem.read(vptr, offset=line * LINE_WORDS))
        finally:
            sys.setprofile(previous)
        yield from smem.free(vptr)
        return total

    platform = Platform(
        PlatformBuilder().pes(1).wrapper_memories(1)
        .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back").build())
    platform.add_task(task)
    report = platform.run()

    assert report.results["pe0"] == 0  # calloc zeros, filled from memory
    stats = platform.caches[0].stats
    assert stats.misses == WARM_LINES + MISSES and stats.hits == 0
    assert stats.fills == WARM_LINES + MISSES
    assert stats.evictions == 0 and stats.writebacks == 0
    per_miss = calls[0] / MISSES
    assert per_miss <= MAX_CALLS_PER_MISS, (
        f"{per_miss:.1f} Python calls per L1-miss smem.read "
        f"(budget {MAX_CALLS_PER_MISS})")
