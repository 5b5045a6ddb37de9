"""Protocol parity: the host-backed wrapper and the fully-modelled baseline
answer one generated command stream alike.

A random-stimulus-vs-model testbench: each step is one command burst on the
command port or an I/O-array fill, driven through :class:`SharedMemoryWrapper`
and :class:`ModeledDynamicMemory` in turn.  After every step the two must agree
on the bus response, the status and result registers, both masters' I/O
arrays (where READ_ARRAY stages its burst) and the diagnostic counters.  Only
timing may differ: that is the paper's E2 comparison.

Vptrs differ between the two (the wrapper packs allocations from its base,
the baseline's heap puts a header before each payload), so a step names a
pointer by allocation ordinal plus a byte delta and each memory resolves it
against its own allocations.  A pointer that would land in *different* places
in the two layouts — a freed range reissued in one of them only, or a
past-the-end pointer meeting the next row in one and a heap header in the
other — is replaced by a pointer neither memory ever issued, so every command
means the same to both.

Steps are drawn from a hypothesis-supplied ``Random`` (so a failure shrinks)
knowing the allocations made so far, the way a testbench picks its next
stimulus: offsets and element counts mostly straddle the targeted
allocation's bounds, and sometimes the I/O window's.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import BusOp, BusRequest
from repro.memory import (
    DATA_TYPE_SIZES,
    IO_ARRAY_BASE,
    IO_ARRAY_BYTES,
    REG_COMMAND,
    DataType,
    MemCommand,
    MemOpcode,
    ModeledDynamicMemory,
)
from repro.wrapper import SharedMemoryWrapper

IO_ARRAY_WORDS = IO_ARRAY_BYTES // 4
MASTERS = (0, 1)
#: Above either memory's whole virtual range: never issued by either.
FOREIGN = 0x4000_0000
STEPS = 60


class Twin:
    """One memory plus the testbench's record of its allocations."""

    def __init__(self, memory):
        self.memory = memory
        self.bases = []  # by allocation ordinal
        self.dims = []
        self.sizes = []
        self.live = set()  # ordinals not yet freed

    def landing(self, vptr):
        """``(ordinal, byte offset)`` of the live allocation holding ``vptr``."""
        for ordinal in self.live:
            if 0 <= vptr - self.bases[ordinal] < self.sizes[ordinal]:
                return ordinal, vptr - self.bases[ordinal]
        return None

    def serve(self, master, offset, **fields):
        response, _cycles = self.memory.serve(
            BusRequest(master, BusOp.WRITE, 0, **fields), offset)
        return response


def fresh_twins():
    return [Twin(SharedMemoryWrapper()), Twin(ModeledDynamicMemory(1 << 18))]


def pointers(twins, pointer):
    """The per-memory vptrs of ``(kind, ordinal, delta)``."""
    kind, ordinal, delta = pointer
    first = twins[0]
    if kind == "foreign" or not 0 <= ordinal < len(first.bases):
        return [FOREIGN + delta] * len(twins)
    size = first.sizes[ordinal]
    delta = {"base": 0, "interior": delta % size, "end": size,
             "past": size + delta}[kind]
    vptrs = [twin.bases[ordinal] + delta for twin in twins]
    if len({twin.landing(vptr) for twin, vptr in zip(twins, vptrs)}) > 1:
        return [FOREIGN + delta] * len(twins)
    return vptrs


def observed(twin, response, opcode):
    """Everything a master can see after one command."""
    memory = twin.memory
    value, result = response.data, memory.last_result
    if opcode is MemOpcode.ALLOC and response.ok:
        value = result = "new vptr"  # differs by layout; tracked by ordinal
    return (response.status, value, memory.last_status, result,
            [list(memory.io_array_for(master)) for master in MASTERS],
            memory.live_count(), memory.used_bytes())


def run_step(twins, step):
    """Drive one step through every twin and compare what they answered."""
    if step[0] == "stage":
        _, master, index, words = step
        for twin in twins:
            assert twin.serve(master, IO_ARRAY_BASE + 4 * index,
                              burst_data=list(words)).ok
        return
    _, master, opcode, pointer, offset, dim, data_type, data, sm_addr = step
    outcomes = []
    for twin, vptr in zip(twins, pointers(twins, pointer)):
        command = MemCommand(opcode, sm_addr=sm_addr, vptr=vptr, dim=dim,
                             data_type=data_type, data=data, offset=offset)
        response = twin.serve(master, REG_COMMAND,
                              burst_data=command.to_words())
        outcomes.append(observed(twin, response, opcode))
        if response.ok and opcode is MemOpcode.ALLOC:
            twin.live.add(len(twin.bases))
            twin.bases.append(response.data)
            twin.dims.append(dim)
            twin.sizes.append(dim * DATA_TYPE_SIZES[data_type])
        elif response.ok and opcode is MemOpcode.FREE:
            twin.live.remove(twin.landing(vptr)[0])
    assert outcomes[0] == outcomes[1], step


#: ALLOC and RESERVE twice as likely as any other opcode; NOP last, as a
#: hypothesis ``Random`` favours the first choice.
OPCODES = ([op for op in MemOpcode if op is not MemOpcode.NOP]
           + [MemOpcode.ALLOC, MemOpcode.RESERVE, MemOpcode.NOP])
KINDS = ("base", "base", "base", "interior", "interior", "end", "past",
         "foreign")
#: Element counts around the I/O window (256 words) and one far beyond it.
WINDOW_DIMS = (IO_ARRAY_WORDS - 1, IO_ARRAY_WORDS, IO_ARRAY_WORDS + 1, 300,
               0xFFFF_FFFF)


def draw_step(rng, twins):
    """The next step of a random program, given the allocations so far."""
    master = rng.choice(MASTERS)
    if rng.random() < 0.15:
        index = rng.randrange(IO_ARRAY_WORDS)
        count = rng.randint(1, min(24, IO_ARRAY_WORDS - index))
        return ("stage", master, index, [rng.getrandbits(32)
                                         for _ in range(count)])
    opcode = rng.choice(OPCODES)
    made = len(twins[0].bases)
    # Mostly the newest allocations (live, or freed and so stale).
    ordinal = made - 1 - rng.choice((0, 0, 1, rng.randrange(max(made, 1))))
    target = twins[0].dims[ordinal] if 0 <= ordinal < made else 4
    offset = rng.choice((0, 0, rng.randint(-2, target + 1)))
    if opcode is MemOpcode.ALLOC:
        # Never the far one: it would really be allocated on the host.
        dim = rng.choice((rng.randint(1, 24), rng.randint(1, 24),
                          rng.randint(-2, 0), rng.choice(WINDOW_DIMS[:4])))
    else:
        dim = rng.choice((rng.randint(0, max(target - offset, 0) + 1),
                          rng.randint(-3, 3), rng.choice(WINDOW_DIMS)))
    data = rng.choice((rng.getrandbits(32), rng.randint(-300, 300)))
    return ("command", master, opcode,
            (rng.choice(KINDS), ordinal, rng.randint(1, 90)), offset, dim,
            rng.choice(list(DataType)), data,
            0 if rng.random() < 0.9 else 3)  # 3: another memory's sm_addr


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_wrapper_and_baseline_answer_one_stream_alike(rng):
    twins = fresh_twins()
    for _ in range(STEPS):
        run_step(twins, draw_step(rng, twins))


def alloc(master, dim, data_type=DataType.UINT32):
    return ("command", master, MemOpcode.ALLOC, ("foreign", 0, 1), 0, dim,
            data_type, 0, 0)


def on(master, opcode, pointer, offset=0, dim=0):
    return ("command", master, opcode, pointer, offset, dim, DataType.UINT32,
            0, 0)


PINNED = {
    # RESERVE / RELEASE of an interior pointer is an invalid pointer, not a
    # reservation conflict.
    "interior-reserve": [
        alloc(0, 8), on(0, MemOpcode.RESERVE, ("interior", 0, 4)),
        on(1, MemOpcode.RELEASE, ("interior", 0, 4))],
    # An array command out of range *and* reserved by another master is
    # out of range: bounds come before the reservation.
    "bounds-before-reservation": [
        alloc(0, 8), on(0, MemOpcode.RESERVE, ("base", 0, 1)),
        on(1, MemOpcode.WRITE_ARRAY, ("base", 0, 1), offset=4, dim=6),
        on(1, MemOpcode.WRITE_ARRAY, ("interior", 0, 8), dim=7)],
    # ALLOC is calloc: a reused block does not show its last owner's data.
    "reused-block-reads-zero": [
        alloc(0, 4), ("stage", 0, 0, [7, 8, 9, 10]),
        on(0, MemOpcode.WRITE_ARRAY, ("base", 0, 1), dim=4),
        on(0, MemOpcode.FREE, ("base", 0, 1)), alloc(1, 4),
        on(1, MemOpcode.READ_ARRAY, ("base", 1, 1), dim=4)],
}


@pytest.mark.parametrize("stream", PINNED.values(), ids=PINNED)
def test_pinned_stream(stream):
    twins = fresh_twins()
    for step in stream:
        run_step(twins, step)
