"""Frame-count guard for the L1 scalar hit path: counts calls, never times.

An ``smem.read`` that hits in the L1 never reaches the fabric, so its whole
host cost is Python frames between the task and the kernel's timed wait.
``sys.setprofile`` counts every Python-level ``call`` event (a generator
resumption is one per frame of the ``yield from`` chain, so chain depth
counts twice) around 256 hitting reads on a 1-PE write-back platform, and
around 256 write-back ``smem.write`` hits into resident MODIFIED lines.

The bound fails when the command is decoded through the enum constructors
again, when ``SharedAllocation`` geometry goes back to properties, when a
hit is answered from inside per-opcode generators, or when the API builds
a ``MemCommand`` or a ``_send`` frame for a scalar access again: the path
before the synchronous probe cost 48 calls per read, the probe
path cost 30, 28 once ``CachedPort.transfer`` stopped being a generator of
its own, and 16 once ``read`` / ``write`` put their command words on the
port from their own frame and the probe answered without helper calls.
A write hit costs 19: the read's 16 plus canonicalising and storing the word
(31 before the same change).
It belongs beside ``test_kernel_fastpath_smoke``: a host-speed guard that a
loaded CI host cannot flake.
"""

import sys

from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform

ACCESSES = 256
#: Calls per hitting access on the probe path (16 per read, 19 per write),
#: plus ~20 % headroom.
MAX_CALLS_PER_HIT = {"read": 19, "write": 23}


class CallCounter:
    """``sys.setprofile`` hook counting ``call`` events while active."""

    def __init__(self):
        self.calls = 0
        self._previous = None

    def _count(self, _frame, event, _arg):
        if event == "call":
            self.calls += 1

    def start(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._count)

    def stop(self):
        sys.setprofile(self._previous)

    def assert_within_budget(self, kind):
        per_hit = self.calls / ACCESSES
        assert per_hit <= MAX_CALLS_PER_HIT[kind], (
            f"{per_hit:.1f} Python calls per L1-hit smem.{kind} "
            f"(budget {MAX_CALLS_PER_HIT[kind]})")


def run_on_l1wb(task):
    """Run ``task`` alone on a 1-PE, 1-memory write-back L1 platform."""
    platform = Platform(
        PlatformBuilder().pes(1).wrapper_memories(1)
        .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back").build())
    platform.add_task(task)
    report = platform.run()
    return report.results["pe0"], platform.caches[0].stats


def test_l1_hit_read_stays_within_the_call_budget():
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        for offset in range(16):  # cold pass: fill every line
            yield from smem.read(vptr, offset=offset)
        total = 0
        counter.start()
        try:
            for step in range(ACCESSES):
                total += (yield from smem.read(vptr, offset=step % 16))
        finally:
            counter.stop()
        yield from smem.free(vptr)
        return total

    result, stats = run_on_l1wb(task)
    assert result == 0  # calloc zeros, served by the cache
    assert stats.hits == ACCESSES + 12 and stats.misses == 4  # all measured reads hit
    counter.assert_within_budget("read")


def test_l1_hit_write_stays_within_the_call_budget():
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        for offset in range(16):  # cold pass: allocate and own every line
            yield from smem.write(vptr, offset, offset=offset)
        counter.start()
        try:
            for step in range(ACCESSES):
                yield from smem.write(vptr, step, offset=step % 16)
        finally:
            counter.stop()
        value = yield from smem.read(vptr, offset=15)
        yield from smem.free(vptr)
        return value

    result, stats = run_on_l1wb(task)
    assert result == ACCESSES - 1  # the last value written there
    # Each line's first write misses and takes MODIFIED; every later write
    # (and the final read) hits in the probe, and nothing is written back.
    assert stats.misses == 4 and stats.hits == ACCESSES + 12 + 1
    assert stats.writebacks == 0
    counter.assert_within_budget("write")
