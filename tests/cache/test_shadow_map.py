"""The shadow allocation map agrees with the memory it mirrors.

A random-stimulus-vs-model testbench in the style of
``tests/memory/test_protocol_parity.py``: ALLOC / FREE / RESERVE / RELEASE
streams from two masters run through a real :class:`SharedMemoryWrapper`
and a :class:`ModeledDynamicMemory`, and each command the memory accepts is
replayed into :meth:`ShadowMap.apply`, the way the platform's snooper
(:meth:`ShadowMap.snoop`) replays what is served on the fabric.  After every step,
probes at base, interior, end, past-the-end, stale (freed) and foreign
pointers must agree with the memory:

* :meth:`ShadowMap.resolve` returns a row exactly when the memory accepts a
  READ (``dim`` 1) or READ_ARRAY of ``dim`` elements there, and the row and
  index are the ones the memory reads;
* :meth:`ShadowMap.find` finds a row exactly when QUERY accepts the pointer
  as an allocation base, with the same size;
* :meth:`ShadowMap.reserved_by` names the master holding the semaphore of
  the allocation containing the pointer.

The populated variant holds at least 200 live rows while it frees, reissues
freed ranges and moves semaphores, so the sorted-base index is checked
where a lookup has many neighbours to miss.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import ShadowMap
from repro.fabric import BusOp, BusRequest
from repro.memory import (
    DATA_TYPE_SIZES,
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
STEPS = 40
PROBES = 4

MEMORIES = {
    "wrapper": SharedMemoryWrapper,
    "modeled": lambda: ModeledDynamicMemory(1 << 18),
}


def send(memory, master, opcode, **fields):
    """Serve one command burst; the response."""
    command = MemCommand(opcode, sm_addr=0, **fields)
    response, _cycles = memory.serve(
        BusRequest(master, BusOp.WRITE, 0, burst_data=command.to_words()),
        REG_COMMAND)
    return command, response


class Bench:
    """One memory, its shadow map and every vptr it ever issued."""

    def __init__(self, memory):
        self.memory = memory
        self.shadow = ShadowMap()
        self.issued = []  # (base, size in bytes), in ALLOC order

    def step(self, master, opcode, pick, dim, data_type):
        """Send one command; True when the memory accepted it."""
        if opcode is MemOpcode.ALLOC:
            command, response = send(self.memory, master, opcode, dim=dim,
                                     data_type=data_type)
        else:
            command, response = send(self.memory, master, opcode,
                                     vptr=self.pointer(pick))
        if response.ok:
            self.shadow.apply(0, command, master, response.data)
            if opcode is MemOpcode.ALLOC:
                self.issued.append(
                    (response.data, dim * DATA_TYPE_SIZES[data_type]))
        return response.ok

    def pointer(self, pick):
        """A vptr from ``(kind, ordinal, delta)``, relative to an issued
        allocation (live or freed)."""
        kind, ordinal, delta = pick
        if kind == "foreign" or not self.issued:
            return FOREIGN + delta
        base, size = self.issued[ordinal % len(self.issued)]
        return base + {"base": 0, "interior": delta % size, "end": size,
                       "past": size + delta}[kind]

    def check(self, pick, offset, dim):
        memory, shadow = self.memory, self.shadow
        vptr = self.pointer(pick)
        opcode = MemOpcode.READ if dim == 1 else MemOpcode.READ_ARRAY
        _, response = send(memory, 0, opcode, vptr=vptr, offset=offset,
                           dim=dim)
        located = shadow.resolve(0, vptr, offset, dim)
        assert (located is not None) == response.ok, (vptr, offset, dim)
        containing = memory.rows.containing(vptr)
        if located is not None:
            row, index = located
            assert row.vptr == containing.vptr
            assert index == containing.locate(vptr, offset, dim)
        _, query = send(memory, 0, MemOpcode.QUERY, vptr=vptr)
        row = shadow.find(0, vptr)
        assert (row is not None) == query.ok, vptr
        if row is not None:
            assert row.size_bytes == query.data
        assert shadow.reserved_by(0, vptr) == (
            containing.reserved_by if containing is not None else None)


#: Bookkeeping opcodes, ALLOC twice as likely so allocations accumulate.
OPCODES = (MemOpcode.ALLOC, MemOpcode.ALLOC, MemOpcode.FREE,
           MemOpcode.RESERVE, MemOpcode.RELEASE)
KINDS = ("base", "base", "interior", "interior", "end", "past", "foreign")


def draw_pick(rng):
    return rng.choice(KINDS), rng.randrange(1 << 16), rng.randint(1, 90)


def run_stream(bench, rng):
    for _ in range(STEPS):
        bench.step(rng.choice(MASTERS), rng.choice(OPCODES), draw_pick(rng),
                   rng.choice((rng.randint(1, 24), rng.randint(-1, 0))),
                   rng.choice(list(DataType)))
        for _ in range(PROBES):
            offset = rng.choice((0, 0, rng.randint(-3, 26)))
            dim = rng.choice((1, 1, rng.randint(0, 26),
                              rng.choice((IO_ARRAY_WORDS - 1,
                                          IO_ARRAY_WORDS))))
            bench.check(draw_pick(rng), offset, dim)


@pytest.mark.parametrize("kind", MEMORIES)
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_shadow_map_agrees_with_the_memory(kind, rng):
    run_stream(Bench(MEMORIES[kind]()), rng)


def test_freed_base_reissued_is_a_new_generation():
    bench = Bench(SharedMemoryWrapper())
    bench.step(0, MemOpcode.ALLOC, None, 4, DataType.UINT32)
    old = bench.shadow.find(0, bench.issued[0][0])
    bench.step(0, MemOpcode.FREE, ("base", 0, 1), 0, DataType.UINT32)
    assert bench.shadow.find(0, old.vptr) is None
    bench.step(1, MemOpcode.ALLOC, None, 4, DataType.UINT32)
    new = bench.shadow.find(0, bench.issued[1][0])
    assert new.vptr == old.vptr and new.uid != old.uid
    bench.check(("base", 0, 1), 3, 1)


#: Live rows the populated streams never drop below.
POPULATED = 200


def populate(bench, rng):
    """ALLOC past :data:`POPULATED` live rows, then churn in turn: FREE
    (every other one the newest row, so its range is reissued), ALLOC,
    RESERVE and RELEASE by either master; finally RESERVE every tenth live
    row.  The ordinals (into ``bench.issued``) of the rows left live."""
    live = []

    def alloc():
        assert bench.step(rng.choice(MASTERS), MemOpcode.ALLOC, None,
                          rng.randint(1, 6), rng.choice(list(DataType)))
        live.append(len(bench.issued) - 1)

    for _ in range(POPULATED + 20):
        alloc()
    for step in range(POPULATED):
        ordinal = live[-1] if step % 8 == 1 else rng.choice(live)
        opcode = OPCODES[1 + step % 4]  # FREE, RESERVE, RELEASE, ALLOC
        if opcode is MemOpcode.ALLOC:
            alloc()
        elif bench.step(rng.choice(MASTERS), opcode, ("base", ordinal, 1), 0,
                        DataType.UINT32) and opcode is MemOpcode.FREE:
            live.remove(ordinal)
        if len(live) < POPULATED:
            alloc()
    for ordinal in live[::10]:
        bench.step(ordinal % 2, MemOpcode.RESERVE, ("base", ordinal, 1), 0,
                   DataType.UINT32)
    return live


@pytest.mark.parametrize("kind", MEMORIES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_populated_shadow_map_agrees_with_the_memory(kind, seed):
    # A seed, not a drawn random stream: the stream is too long to shrink.
    rng = random.Random(seed)
    bench = Bench(MEMORIES[kind]())
    live = populate(bench, rng)
    bases = [base for base, _size in bench.issued]
    assert len(set(bases)) < len(bases)  # freed ranges were reissued
    assert len(bench.shadow.by_base[0].rows) == len(live)
    assert len(live) >= POPULATED
    reserved = 0
    for ordinal in live:  # every live row, by an interior pointer
        bench.check(("interior", ordinal, rng.randint(1, 90)),
                    rng.randint(-1, 3), rng.choice((1, 1, 2)))
        reserved += bench.shadow.find(0, bases[ordinal]).reserved_by is not None
    assert reserved  # some semaphores are held at the end
    for _ in range(POPULATED):  # stale, foreign and boundary pointers
        bench.check(draw_pick(rng), rng.choice((0, rng.randint(-3, 8))),
                    rng.choice((1, rng.randint(0, 8))))
