"""Frame-count guard for a busy shared-bus cycle: counts calls, never times.

While the bus serves a burst, every interconnect cycle is one activation of
its channel process, and everything the host pays for that activation is
Python frames resumed along the ``yield from`` chain (a generator
resumption is one ``call`` event per frame).  ``sys.setprofile`` counts
them around an 8-word and a 200-word I/O-array burst read issued by one PE
on :func:`repro.api.micro.single_memory_testbench`; the difference between
the two, divided by the difference in bus cycles, is the per-cycle cost
with everything per-transaction cancelled out.

The channel used to drive the slave through a ``_serve_request`` helper,
so a busy cycle resumed four frames (``_run``, ``_serve_request``,
``_drive_slave``, ``serve``: 3.99 calls per cycle).  With the decode
inlined into ``_run`` it resumes three (2.99), the floor of the per-cycle
``serve`` protocol.
"""

import sys

from repro.api.micro import single_memory_testbench
from repro.kernel import Simulator
from repro.memory import IO_ARRAY_BASE

#: Python ``call`` events per busy bus cycle.
MAX_CALLS_PER_CYCLE = 3


def test_busy_bus_cycle_stays_within_the_frame_budget():
    testbench = single_memory_testbench()
    address = testbench.api.base_address + IO_ARRAY_BASE
    measured = {}

    def pe():
        for words in (8, 200):
            calls = [0]

            def count(_frame, event, _arg):
                if event == "call":
                    calls[0] += 1

            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                response = yield from testbench.port.burst_read(address, words)
            finally:
                sys.setprofile(previous)
            assert response.ok and len(response.burst_data) == words
            measured[words] = (calls[0], response.total_cycles)

    testbench.top.add_process(pe)
    Simulator(testbench.top).run()

    (short_calls, short_cycles), (long_calls, long_cycles) = (
        measured[8], measured[200])
    assert long_cycles - short_cycles == 192  # one cycle per extra word
    per_cycle = (long_calls - short_calls) / (long_cycles - short_cycles)
    assert per_cycle <= MAX_CALLS_PER_CYCLE, (
        f"{per_cycle:.2f} Python calls per busy bus cycle "
        f"(budget {MAX_CALLS_PER_CYCLE})")
