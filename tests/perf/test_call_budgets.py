"""Call budgets: the host cost of each hot path, counted in Python calls.

``sys.setprofile`` counts every Python-level ``call`` event (a generator
resumption is one per frame of the ``yield from`` chain) while a stimulus
drives one path; the count per unit of work must stay within the row's
budget.  Counts do not flake on a loaded host, so CI's import gate runs this
file.  Each stimulus also asserts what it exercised (hits and misses, hops,
cycles, equal cost for short and long commands), so a row cannot pass by
measuring some other path.

``measured`` is the count per unit when the row was last set, and
``budget`` is at most 10 % above it: a change that makes a path cheaper
lowers both.
"""

import sys
from typing import Callable, NamedTuple, Tuple

import pytest

from repro.api import PlatformBuilder
from repro.fabric import BusOp, BusRequest
from repro.memory import (
    IO_ARRAY_BASE,
    DataType,
    MemCommand,
    MemOpcode,
    ModeledDynamicMemory,
)
from repro.soc import Platform
from repro.wrapper import SharedMemoryWrapper


class CallCounter:
    """Counts ``call`` events while its ``with`` block runs."""

    def __init__(self):
        self.calls = 0
        self._previous = None

    def _count(self, _frame, event, _arg):
        if event == "call":
            self.calls += 1

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(self._previous)


# -- platforms ---------------------------------------------------------------------

def platform(builder):
    return lambda: Platform(builder.build())


def l1wb():
    return PlatformBuilder().pes(1).wrapper_memories(1).l1_cache(
        sets=8, ways=2, line_bytes=16, policy="write_back")


def run_alone(target, task):
    """Run ``task`` as the one PE of ``target``: the report, and the L1's
    stats on a cached platform."""
    target.add_task(task)
    report = target.run()
    stats = target.caches[0].stats if target.caches else None
    return report, stats


# -- stimuli: each returns (calls, units) and asserts what it exercised ------------

ACCESSES = 256


def l1_read_hits(target):
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        for offset in range(16):  # cold pass: fill every line
            yield from smem.read(vptr, offset=offset)
        total = 0
        with counter:
            for step in range(ACCESSES):
                total += (yield from smem.read(vptr, offset=step % 16))
        yield from smem.free(vptr)
        return total

    report, stats = run_alone(target, task)
    assert report.results["pe0"] == 0  # calloc zeros, served by the cache
    assert stats.hits == ACCESSES + 12 and stats.misses == 4  # all measured reads hit
    return counter.calls, ACCESSES


def l1_write_hits(target):
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        for offset in range(16):  # cold pass: allocate and own every line
            yield from smem.write(vptr, offset, offset=offset)
        with counter:
            for step in range(ACCESSES):
                yield from smem.write(vptr, step, offset=step % 16)
        value = yield from smem.read(vptr, offset=15)
        yield from smem.free(vptr)
        return value

    report, stats = run_alone(target, task)
    assert report.results["pe0"] == ACCESSES - 1  # the last value written there
    # Each line's first write misses and takes MODIFIED; every later write
    # (and the final read) hits, and nothing is written back.
    assert stats.misses == 4 and stats.hits == ACCESSES + 12 + 1
    assert stats.writebacks == 0
    return counter.calls, ACCESSES


#: Words per 16-byte line of UINT32 elements.
LINE_WORDS = 4
WARM_LINES = 4
MISSES = 8


def l1_read_misses(target):
    """Reads that each miss a fresh line: snoop, line fetch, install.  The
    lines are consecutive and fit the cache, so nothing is evicted."""
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(LINE_WORDS * (WARM_LINES + MISSES),
                                     DataType.UINT32)
        for line in range(WARM_LINES):  # cold fills: first-use caches
            yield from smem.read(vptr, offset=line * LINE_WORDS)
        total = 0
        with counter:
            for line in range(WARM_LINES, WARM_LINES + MISSES):
                total += (yield from smem.read(vptr, offset=line * LINE_WORDS))
        yield from smem.free(vptr)
        return total

    report, stats = run_alone(target, task)
    assert report.results["pe0"] == 0  # calloc zeros, filled from memory
    assert stats.misses == WARM_LINES + MISSES and stats.hits == 0
    assert stats.fills == WARM_LINES + MISSES
    assert stats.evictions == 0 and stats.writebacks == 0
    return counter.calls, MISSES


def mesh_reads(target):
    counter = CallCounter()

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        yield from smem.read(vptr)  # warm: routes, lane queues
        total = 0
        with counter:
            for step in range(ACCESSES):
                total += (yield from smem.read(vptr, offset=step % 16))
        yield from smem.free(vptr)
        return total

    report, _ = run_alone(target, task)
    assert report.results["pe0"] == 0  # calloc zeros
    noc = report.interconnect_stats["noc"]
    assert noc["average_hops"] == 4.0  # inject, two links, eject — each way
    return counter.calls, ACCESSES


def busy_cycles(target):
    """An 8-word and a 200-word I/O-array burst: the difference in calls
    over the difference in cycles cancels everything per-transaction."""
    measured = {}

    def task(ctx):
        address = ctx.smem(0).base_address + IO_ARRAY_BASE
        for words in (8, 200):
            with CallCounter() as counter:
                response = yield from ctx.port.burst_read(address, words)
            assert response.ok and len(response.burst_data) == words
            measured[words] = (counter.calls, response.total_cycles)

    run_alone(target, task)
    (short_calls, short_cycles), (long_calls, long_cycles) = (
        measured[8], measured[200])
    assert long_cycles - short_cycles == 192  # one cycle per extra word
    return long_calls - short_calls, long_cycles - short_cycles


def command_request(**fields):
    return BusRequest(0, BusOp.WRITE, 0,
                      burst_data=MemCommand(**fields).to_words())


def array_pair_calls(memory, vptr, words):
    """Calls made by a ``words``-long WRITE_ARRAY then READ_ARRAY."""
    memory.io_array_for(0)[:words] = range(1, words + 1)
    requests = [command_request(opcode=opcode, vptr=vptr, dim=words)
                for opcode in (MemOpcode.WRITE_ARRAY, MemOpcode.READ_ARRAY)]
    with CallCounter() as counter:
        responses = [memory._handle_command(request)[0] for request in requests]
    assert all(response.ok and response.data == words for response in responses)
    assert memory.io_array_for(0)[:words] == list(range(1, words + 1))
    return counter.calls


def array_command_pairs(memory):
    """An array command is bookkeeping plus one host copy: 8 words and 256
    words must cost exactly the same calls."""
    vptr = memory._handle_command(
        command_request(opcode=MemOpcode.ALLOC, dim=256))[0].data
    array_pair_calls(memory, vptr, 8)  # warm-up: first-use caches
    short = array_pair_calls(memory, vptr, 8)
    long = array_pair_calls(memory, vptr, 256)
    assert short == long, f"{short} calls for 8 words but {long} for 256"
    return long, 1


# -- the table ---------------------------------------------------------------------

class Row(NamedTuple):
    path: str
    #: Builds what the stimulus drives: a platform or a bare memory.
    platform: Callable[[], object]
    stimulus: Callable[[object], Tuple[int, int]]
    unit: str
    measured: float
    budget: float


#: ``measured`` on CPython 3.11; 3.12 counts the same or fewer.
ROWS = [
    Row("l1-read-hit", platform(l1wb()), l1_read_hits, "read", 10.0, 11),
    Row("l1-write-back-write-hit", platform(l1wb()), l1_write_hits, "write",
        13.0, 14),
    Row("l1-read-miss", platform(l1wb()), l1_read_misses, "miss", 159.1, 175),
    Row("mesh-2x2-read",
        platform(PlatformBuilder().pes(1).wrapper_memories(1).mesh(2, 2)),
        mesh_reads, "read", 149.0, 163),
    Row("bus-busy-cycle", platform(PlatformBuilder().pes(1).wrapper_memories(1)),
        busy_cycles, "busy cycle", 0.995, 1),
    Row("crossbar-busy-cycle",
        platform(PlatformBuilder().pes(1).wrapper_memories(1).crossbar()),
        busy_cycles, "busy cycle", 0.995, 1),
    Row("wrapper-array-pair", SharedMemoryWrapper, array_command_pairs,
        "WRITE_ARRAY + READ_ARRAY", 54, 59),
    Row("modeled-array-pair", lambda: ModeledDynamicMemory(1 << 16),
        array_command_pairs, "WRITE_ARRAY + READ_ARRAY", 44, 48),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.path for row in ROWS])
def test_path_stays_within_its_call_budget(row):
    calls, units = row.stimulus(row.platform())
    per_unit = calls / units
    assert per_unit <= row.budget, (
        f"{row.path}: {per_unit:.2f} Python calls per {row.unit} "
        f"(budget {row.budget}, {row.measured} when set)")


def test_every_budget_is_within_ten_percent_of_its_measured_count():
    for row in ROWS:
        assert row.measured <= row.budget <= row.measured * 1.10, row.path
