"""Call budgets: the host cost of each hot path, counted in Python calls.

``sys.setprofile`` counts every Python-level ``call`` event (a generator
resumption is one per frame of the ``yield from`` chain) while a stimulus
drives one path; the count per unit of work must stay within the row's
budget.  Counts do not flake on a loaded host, so CI's import gate runs this
file.  Each stimulus also asserts what it exercised (hits and misses, hops,
cycles, equal cost for short and long commands), so a row cannot pass by
measuring some other path.  A loop or comprehension iteration is not a
call, so the array rows also count ``sys.settrace`` line events and require
as many at 256 words as at 8 — except through a write-back L1, which moves
array words in slices but places, evicts and installs line by line: its
rows budget the traced lines at each size.  The shadow map's row, and the
modelled memory's rows for an interior-pointer READ and a ``REG_USED_BYTES``
read, require one lookup to read as many lines among 1 000 live allocations
as among one.

``measured`` is the count per unit on CPython 3.11, which must read exactly
that, and ``budget`` is at most 10 % above it: a change that makes a path
cheaper lowers both.
"""

import gc
import sys
from typing import Callable, NamedTuple, Tuple

import pytest

from repro.api import PlatformBuilder
from repro.cache import ShadowMap
from repro.fabric import BusOp, BusRequest
from repro.memory import (
    IO_ARRAY_BASE,
    REG_COMMAND,
    REG_USED_BYTES,
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
        gc.collect()  # finalizers of earlier garbage are no part of the path
        # Nor is a collection inside the block, which runs whatever
        # ``gc.callbacks`` another library registered (hypothesis does).
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self._previous = sys.getprofile()
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(self._previous)
        if self._gc_was_enabled:
            gc.enable()
        self.calls -= 1  # the call event of this method itself


class LineCounter:
    """Counts ``line`` events, in every frame entered or resumed, while its
    ``with`` block runs: the Python statements a path executes, including
    each iteration of a loop or comprehension, which are not calls."""

    def __init__(self):
        self.lines = 0
        self._previous = None

    def _trace(self, _frame, event, _arg):
        if event == "line":
            self.lines += 1
        return self._trace

    def __enter__(self):
        gc.collect()
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(self._previous)


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


def busy_cycles(target, contended=False):
    """An 8-word and a 200-word I/O-array burst, after a warm-up burst (its
    first-use calls): the difference in calls over the difference in
    cycles cancels everything per-transaction.  Alone on its channel, each
    window runs ahead in one kernel step.  ``contended`` adds a spinner due
    every cycle, so every hold step is bucketed; its own resumes (one call
    each) are taken off, leaving the channel's cost per bucketed step."""
    measured = {}
    spins = [0]
    done = []

    def spinner():
        while not done:
            spins[0] += 1
            yield target.config.clock_period

    def task(ctx):
        address = ctx.smem(0).base_address + IO_ARRAY_BASE
        for words in (8, 8, 200):
            spun = spins[0]
            with CallCounter() as counter:
                response = yield from ctx.port.burst_read(address, words)
            assert response.ok and len(response.burst_data) == words
            measured[words] = (counter.calls - (spins[0] - spun),
                               response.total_cycles)
        done.append(True)

    if contended:
        target.top.add_process(spinner)
    run_alone(target, task)
    (short_calls, short_cycles), (long_calls, long_cycles) = (
        measured[8], measured[200])
    assert long_cycles - short_cycles == 192  # one cycle per extra word
    assert (spins[0] > 200) == contended
    return long_calls - short_calls, long_cycles - short_cycles


def command_request(**fields):
    return BusRequest(0, BusOp.WRITE, 0,
                      burst_data=MemCommand(**fields).to_words())


def array_pair_cost(memory, vptr, words, counter_type):
    """``counter_type``'s count over a ``words``-long WRITE_ARRAY then
    READ_ARRAY, each launched on the memory's command port."""
    memory.io_array_for(0)[:words] = range(1, words + 1)
    requests = [command_request(opcode=opcode, vptr=vptr, dim=words)
                for opcode in (MemOpcode.WRITE_ARRAY, MemOpcode.READ_ARRAY)]
    with counter_type() as counter:
        responses = [memory.serve(request, REG_COMMAND)[0]
                     for request in requests]
    assert all(response.ok and response.data == words for response in responses)
    assert memory.io_array_for(0)[:words] == list(range(1, words + 1))
    return counter


def assert_flat(counts, unit):
    """``counts`` (size -> count, the smaller size first) must not grow
    with the size."""
    (small, few), (large, many) = counts.items()
    assert few == many, f"{few} {unit} at {small} but {many} at {large}"


def array_command_pairs(memory):
    """An array command is bookkeeping plus one host copy: 8 words and 256
    words must cost exactly the same calls and the same traced lines (no
    per-word Python, not even a comprehension)."""
    vptr = memory.serve(command_request(opcode=MemOpcode.ALLOC, dim=256),
                        REG_COMMAND)[0].data
    array_pair_cost(memory, vptr, 8, CallCounter)  # warm-up: first-use caches
    calls = {words: array_pair_cost(memory, vptr, words, CallCounter).calls
             for words in (8, 256)}
    lines = {words: array_pair_cost(memory, vptr, words, LineCounter).lines
             for words in (8, 256)}
    assert_flat(calls, "calls")
    assert_flat(lines, "lines")
    return calls[256], 1


def array_round_trips(target):
    """Calls and traced lines of a ``smem.write_array`` then ``read_array``
    of UINT32 words on a lone bus, at 8 and 256 words: the API edge, the
    I/O stage, both array commands, the host copy and the fetch."""
    calls, lines = {}, {}

    def round_trip(smem, vptr, words, counter_type):
        values = list(range(7, 7 + words))
        with counter_type() as counter:
            assert (yield from smem.write_array(vptr, values))
            back = yield from smem.read_array(vptr, words)
        assert back == values
        return counter

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(256, DataType.UINT32)
        yield from round_trip(smem, vptr, 8, CallCounter)  # warm-up
        for words in (8, 256):
            calls[words] = (yield from round_trip(
                smem, vptr, words, CallCounter)).calls
            lines[words] = (yield from round_trip(
                smem, vptr, words, LineCounter)).lines
        yield from smem.free(vptr)

    run_alone(target, task)
    return calls, lines


def api_array_round_trips(target):
    """Without a cache, 8 and 256 words must cost the same calls and
    traced lines."""
    calls, lines = array_round_trips(target)
    assert_flat(calls, "calls")
    assert_flat(lines, "lines")
    return calls[256], 1


def l1_array_round_trip_lines(words):
    """Traced lines of the round trip at ``words`` words through a
    write-back L1, which moves 32-bit words in list slices but places,
    evicts and installs each line in Python: the row keeps that per-line
    work from growing, and per-word work from coming back."""
    def stimulus(target):
        _calls, lines = array_round_trips(target)
        assert target.caches[0].stats.array_absorbs > 0
        return lines[words], 1
    return stimulus


def lines_among_live(add_row, probe):
    """Traced lines ``probe(base)`` counts for the newest row, with 1 and
    then 1 000 rows live (``add_row(ordinal)`` makes one and returns its
    base): a lookup through a sorted-base index reads as many at both."""
    bases, lines = [add_row(0)], {}
    probe(bases[0])  # warm-up: first-use caches
    for rows in (1, 1000):
        while len(bases) < rows:
            bases.append(add_row(len(bases)))
        lines[rows] = probe(bases[-1])
    assert_flat(lines, "lines")
    return lines[1000], 1


def shadow_resolves(shadow):
    """One :meth:`ShadowMap.resolve` of an interior pointer."""
    def add_row(ordinal):
        shadow.apply(0, MemCommand(MemOpcode.ALLOC, 0, dim=4,
                                   data_type=DataType.UINT32), 0, 16 * ordinal)
        return 16 * ordinal

    def probe(base):
        with LineCounter() as counter:
            located = shadow.resolve(0, base + 4, 1)
        assert located == (shadow.find(0, base), 2)
        return counter.lines
    return lines_among_live(add_row, probe)


def modeled_request_lines(request_for):
    """One request ``request_for(base)`` of a modelled memory, entered at
    its ``serve``: ``(request, offset, expected data)``."""
    def stimulus(memory):
        def add_row(_ordinal):
            return memory.serve(command_request(opcode=MemOpcode.ALLOC, dim=4),
                                REG_COMMAND)[0].data

        def probe(base):
            request, offset, expected = request_for(memory, base)
            with LineCounter() as counter:
                response, _ = memory.serve(request, offset)
            assert response.ok and response.data == expected
            return counter.lines
        return lines_among_live(add_row, probe)
    return stimulus


def interior_read(_memory, base):
    """A READ of element 2 through a pointer to element 1 (calloc zeros)."""
    return command_request(opcode=MemOpcode.READ, vptr=base + 4,
                           offset=1), REG_COMMAND, 0


def used_bytes_read(memory, _base):
    """A read of the ``REG_USED_BYTES`` register: 16 bytes per live row."""
    return (BusRequest(0, BusOp.READ, REG_USED_BYTES), REG_USED_BYTES,
            16 * memory.live_count())


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
    Row("l1-read-hit", platform(l1wb()), l1_read_hits, "read", 5, 5),
    Row("l1-write-back-write-hit", platform(l1wb()), l1_write_hits, "write",
        5, 5),
    Row("l1-read-miss", platform(l1wb()), l1_read_misses, "miss", 133, 135),
    Row("mesh-2x2-read",
        platform(PlatformBuilder().pes(1).wrapper_memories(1).mesh(2, 2)),
        mesh_reads, "read", 138, 151),
    # The same reads with every probe attached: each read's two transfers
    # reach the sanitizers and the tracer, and the kernel's sync point
    # fires for the PE alone (the routers and channels are not watched).
    Row("mesh-2x2-read-probed",
        platform(PlatformBuilder().pes(1).wrapper_memories(1).mesh(2, 2)
                 .sanitize().trace().metrics(1024)),
        mesh_reads, "read", 175.3046875, 180),
    Row("bus-busy-cycle", platform(PlatformBuilder().pes(1).wrapper_memories(1)),
        busy_cycles, "busy cycle", 0, 0),
    Row("crossbar-busy-cycle",
        platform(PlatformBuilder().pes(1).wrapper_memories(1).crossbar()),
        busy_cycles, "busy cycle", 0, 0),
    Row("contended-busy-cycle",
        platform(PlatformBuilder().pes(1).wrapper_memories(1)),
        lambda target: busy_cycles(target, contended=True), "busy cycle",
        1, 1),
    Row("wrapper-array-pair", SharedMemoryWrapper, array_command_pairs,
        "WRITE_ARRAY + READ_ARRAY", 49, 49),
    Row("modeled-array-pair", lambda: ModeledDynamicMemory(1 << 16),
        array_command_pairs, "WRITE_ARRAY + READ_ARRAY", 41, 41),
    Row("api-array-round-trip",
        platform(PlatformBuilder().pes(1).wrapper_memories(1)),
        api_array_round_trips, "write_array + read_array", 184, 202),
    # Traced lines, not calls, from here on.
    Row("l1-write-back-array-round-trip-8-lines", platform(l1wb()),
        l1_array_round_trip_lines(8), "write_array + read_array", 516, 561),
    Row("l1-write-back-array-round-trip-256-lines", platform(l1wb()),
        l1_array_round_trip_lines(256), "write_array + read_array", 12521,
        12984),
    Row("shadow-map-resolve-lines", ShadowMap, shadow_resolves, "resolve",
        8, 8),
    Row("modeled-interior-read-lines", lambda: ModeledDynamicMemory(1 << 16),
        modeled_request_lines(interior_read), "READ", 106, 116),
    Row("modeled-used-bytes-lines", lambda: ModeledDynamicMemory(1 << 16),
        modeled_request_lines(used_bytes_read), "register read", 23, 25),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.path for row in ROWS])
def test_path_stays_within_its_call_budget(row):
    calls, units = row.stimulus(row.platform())
    per_unit = calls / units
    assert per_unit <= row.budget, (
        f"{row.path}: {per_unit:.2f} per {row.unit} "
        f"(budget {row.budget}, {row.measured} when set)")
    if sys.version_info[:2] == (3, 11):
        assert per_unit == row.measured, (
            f"{row.path}: {per_unit:.2f} per {row.unit} on CPython 3.11, "
            f"but its row says {row.measured}: set the row to the count")


def test_every_budget_is_within_ten_percent_of_its_measured_count():
    for row in ROWS:
        assert row.measured <= row.budget <= row.measured * 1.10, row.path
