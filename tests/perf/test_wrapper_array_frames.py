"""Frame-count guard for the array command path: counts calls, never times.

A ``WRITE_ARRAY`` / ``READ_ARRAY`` command is bookkeeping plus one host copy,
so its Python cost must not depend on how many words it moves or how many
cycles the FSM is busy with them.  ``sys.setprofile`` counts every
Python-level ``call`` event while ``_handle_command`` runs one write and one
read of 8 words and of 256 words on a directly built memory: the two counts
must be *equal*, and under a stated budget.

Before the run-length schedule and the bulk codec the count grew with both —
one ``step`` + ``_advance`` per busy cycle, one ``encode_element`` /
``decode_element`` and two enum-property reads per word: 149 calls for the
8-word pair on the wrapper and 2 629 for the 256-word pair (109 / 2 341 on the
modeled memory); both pairs now cost 57 (46).
"""

import sys

import pytest

from repro.fabric import BusOp, BusRequest
from repro.memory import MemCommand, MemOpcode, ModeledDynamicMemory
from repro.wrapper import SharedMemoryWrapper

#: 57 / 46 calls for one WRITE_ARRAY + READ_ARRAY pair, plus ~25 % headroom.
MAX_CALLS = {"wrapper": 71, "modeled": 58}

MEMORIES = {
    "wrapper": lambda: SharedMemoryWrapper(),
    "modeled": lambda: ModeledDynamicMemory(1 << 16),
}


def command_request(**fields):
    return BusRequest(0, BusOp.WRITE, 0, burst_data=MemCommand(**fields).to_words())


def calls_for_array_pair(memory, vptr, words):
    """Python calls made by a ``words``-long WRITE_ARRAY then READ_ARRAY."""
    memory.io_array_for(0)[:words] = range(1, words + 1)
    requests = [command_request(opcode=opcode, vptr=vptr, dim=words)
                for opcode in (MemOpcode.WRITE_ARRAY, MemOpcode.READ_ARRAY)]
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        responses = [memory._handle_command(request)[0] for request in requests]
    finally:
        sys.setprofile(previous)
    assert all(response.ok and response.data == words for response in responses)
    assert memory.io_array_for(0)[:words] == list(range(1, words + 1))
    return calls[0]


@pytest.mark.parametrize("kind", MEMORIES)
def test_array_command_cost_is_independent_of_length(kind):
    memory = MEMORIES[kind]()
    vptr = memory._handle_command(
        command_request(opcode=MemOpcode.ALLOC, dim=256))[0].data
    calls_for_array_pair(memory, vptr, 8)  # warm-up: first-use caches
    short = calls_for_array_pair(memory, vptr, 8)
    long = calls_for_array_pair(memory, vptr, 256)
    assert short == long, (
        f"{kind}: {short} Python calls for an 8-word WRITE_ARRAY + READ_ARRAY "
        f"but {long} for 256 words")
    assert long <= MAX_CALLS[kind], (
        f"{kind}: {long} Python calls per array command pair "
        f"(budget {MAX_CALLS[kind]})")
