"""Frame-count guard for a busy channel cycle: counts calls, never times.

While a shared bus or a crossbar channel serves a burst, every interconnect
cycle is one activation of its channel process, and everything the host
pays for that activation is Python frames resumed along the ``yield from``
chain (a generator resumption is one ``call`` event per frame).
``sys.setprofile`` counts them around an 8-word and a 200-word I/O-array
burst read issued by one PE on a one-memory platform; the difference
between the two, divided by the difference in bus cycles, is the per-cycle
cost with everything per-transaction cancelled out.

The slave is one plain ``serve`` call at the start of its window and the
channel process holds the channel itself, so a busy cycle resumes exactly
one frame: the channel process.  Removing that activation as well (one
timed wait for the whole window) is the next step, not this floor.
"""

import sys

import pytest

from repro.api import PlatformBuilder
from repro.memory import IO_ARRAY_BASE
from repro.soc import Platform

#: Python ``call`` events per busy channel cycle.
MAX_CALLS_PER_CYCLE = 1


@pytest.mark.parametrize("topology", ["bus", "crossbar"])
def test_busy_channel_cycle_stays_within_the_frame_budget(topology):
    builder = PlatformBuilder().pes(1).wrapper_memories(1)
    if topology == "crossbar":
        builder = builder.crossbar()
    measured = {}

    def pe(ctx):
        address = ctx.smem(0).base_address + IO_ARRAY_BASE
        for words in (8, 200):
            calls = [0]

            def count(_frame, event, _arg):
                if event == "call":
                    calls[0] += 1

            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                response = yield from ctx.port.burst_read(address, words)
            finally:
                sys.setprofile(previous)
            assert response.ok and len(response.burst_data) == words
            measured[words] = (calls[0], response.total_cycles)

    platform = Platform(builder.build())
    platform.add_task(pe)
    platform.run()

    (short_calls, short_cycles), (long_calls, long_cycles) = (
        measured[8], measured[200])
    assert long_cycles - short_cycles == 192  # one cycle per extra word
    per_cycle = (long_calls - short_calls) / (long_cycles - short_cycles)
    assert per_cycle <= MAX_CALLS_PER_CYCLE, (
        f"{per_cycle:.2f} Python calls per busy {topology} cycle "
        f"(budget {MAX_CALLS_PER_CYCLE})")
