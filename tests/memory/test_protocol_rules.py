"""The protocol's pointer and reservation rules, pinned on both memories.

The rules live once, in ``DynamicMemorySlave._execute``: FREE / RESERVE /
RELEASE / QUERY name an allocation by its exact base, READ / WRITE and the
array commands accept interior pointers, and a command is checked for its
pointer, then its bounds, then a foreign reservation.  The reservation bit
is the paper's data-coherence semaphore: one master holds it, and the others
may read but neither modify, free, take nor clear it.
"""

import pytest

from repro.fabric import BusOp, BusRequest
from repro.memory import MemCommand, MemOpcode, MemStatus, ModeledDynamicMemory
from repro.wrapper import SharedMemoryWrapper

MEMORIES = {
    "wrapper": lambda: SharedMemoryWrapper(),
    "modeled": lambda: ModeledDynamicMemory(1 << 16),
}


@pytest.fixture(params=list(MEMORIES))
def memory(request):
    return MEMORIES[request.param]()


def command(memory, master, opcode, **fields):
    """Serve one command burst from ``master``: its status and result."""
    request = BusRequest(master, BusOp.WRITE, 0,
                         burst_data=MemCommand(opcode, **fields).to_words())
    memory.serve(request, 0)
    return memory.last_status, memory.last_result


def allocate(memory, dim=8):
    status, vptr = command(memory, 0, MemOpcode.ALLOC, dim=dim)
    assert status is MemStatus.OK
    return vptr


class TestReservation:
    def test_reserve_and_release(self, memory):
        vptr = allocate(memory)
        assert command(memory, 1, MemOpcode.RESERVE, vptr=vptr)[0] is MemStatus.OK
        assert (command(memory, 1, MemOpcode.WRITE, vptr=vptr, data=5)[0]
                is MemStatus.OK)
        assert (command(memory, 2, MemOpcode.WRITE, vptr=vptr, data=6)[0]
                is MemStatus.ERR_RESERVED)
        assert command(memory, 2, MemOpcode.READ, vptr=vptr) == (MemStatus.OK, 5)
        assert command(memory, 1, MemOpcode.RELEASE, vptr=vptr)[0] is MemStatus.OK
        assert (command(memory, 2, MemOpcode.WRITE, vptr=vptr, data=6)[0]
                is MemStatus.OK)

    def test_reserve_conflict(self, memory):
        vptr = allocate(memory)
        command(memory, 1, MemOpcode.RESERVE, vptr=vptr)
        for opcode in (MemOpcode.RESERVE, MemOpcode.RELEASE, MemOpcode.FREE):
            assert (command(memory, 2, opcode, vptr=vptr)[0]
                    is MemStatus.ERR_RESERVED)
        assert command(memory, 2, MemOpcode.QUERY, vptr=vptr) == (MemStatus.OK, 32)
        assert memory.live_count() == 1

    def test_reserve_is_idempotent_for_holder(self, memory):
        vptr = allocate(memory)
        for _ in range(2):
            assert (command(memory, 1, MemOpcode.RESERVE, vptr=vptr)[0]
                    is MemStatus.OK)
        assert (command(memory, 2, MemOpcode.WRITE, vptr=vptr)[0]
                is MemStatus.ERR_RESERVED)
        assert command(memory, 1, MemOpcode.FREE, vptr=vptr)[0] is MemStatus.OK


@pytest.mark.parametrize("opcode", [MemOpcode.RESERVE, MemOpcode.RELEASE,
                                    MemOpcode.FREE, MemOpcode.QUERY],
                         ids=lambda opcode: opcode.name)
def test_exact_base_commands_refuse_an_interior_pointer(memory, opcode):
    vptr = allocate(memory)
    command(memory, 1, MemOpcode.RESERVE, vptr=vptr)  # held, by anyone
    for master in (1, 2):
        assert (command(memory, master, opcode, vptr=vptr + 4)[0]
                is MemStatus.ERR_INVALID_PTR)
    assert command(memory, 1, MemOpcode.READ, vptr=vptr + 4)[0] is MemStatus.OK


@pytest.mark.parametrize("opcode", [MemOpcode.WRITE, MemOpcode.WRITE_ARRAY],
                         ids=lambda opcode: opcode.name)
def test_bounds_are_checked_before_the_reservation(memory, opcode):
    vptr = allocate(memory)
    command(memory, 1, MemOpcode.RESERVE, vptr=vptr)
    status, _ = command(memory, 2, opcode, vptr=vptr + 4, offset=7, dim=3)
    assert status is MemStatus.ERR_OUT_OF_RANGE
    status, _ = command(memory, 2, opcode, vptr=vptr + 4, offset=4, dim=3)
    assert status is MemStatus.ERR_RESERVED


def test_alloc_zeroes_a_reused_block(memory):
    """ALLOC is ``sm_calloc``: a freed block handed out again reads zeros."""
    vptr = allocate(memory, dim=4)
    command(memory, 0, MemOpcode.WRITE, vptr=vptr, offset=1, data=77)
    command(memory, 0, MemOpcode.FREE, vptr=vptr)
    assert allocate(memory, dim=4) == vptr  # both reuse the freed range
    assert command(memory, 0, MemOpcode.READ, vptr=vptr, offset=1) == (MemStatus.OK, 0)
