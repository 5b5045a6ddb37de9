"""E3 — claim (II) of Section 1: the wrapper stays cycle-accurate.

The wrapper models timing with configurable delay parameters ("which can be
dynamic and data dependent").  This bench checks that the simulated cycle
counts are *exactly* the ones the delay parameters prescribe:

* per-operation slave cycles observed on the bus (via the
  :func:`repro.api.drive` micro-bench helper) match the FSM schedule
  computed from the ``WrapperDelays`` for every opcode and transfer length;
* the same transaction trace replayed with SRAM-like and SDRAM-like delay
  sets scales exactly with the parameter difference;
* a data-dependent delay hook changes the observed latency by exactly the
  hook's value.
"""

from __future__ import annotations

from repro.api import drive
from repro.memory import MemCommand, MemOpcode
from repro.wrapper import SharedMemoryWrapper, WrapperDelays, WrapperFsm

from common import emit, format_rows, ledger


def expected_cycles(delays, command, words=0, byte_count=0):
    """Reference cycle count: FSM schedule + one cycle per command word."""
    schedule = WrapperFsm(delays).schedule_for(command.opcode, words, byte_count)
    return sum(cycles for _, cycles in schedule) + len(command.to_words())


OPERATIONS = [
    ("ALLOC 64 x u32", MemCommand(MemOpcode.ALLOC, dim=64), 0, 256),
    ("WRITE scalar", MemCommand(MemOpcode.WRITE, vptr=0, offset=1, data=7), 0, 4),
    ("READ scalar", MemCommand(MemOpcode.READ, vptr=0, offset=1), 0, 4),
    ("READ_ARRAY 16", MemCommand(MemOpcode.READ_ARRAY, vptr=0, dim=16), 16, 64),
    ("READ_ARRAY 64", MemCommand(MemOpcode.READ_ARRAY, vptr=0, dim=64), 64, 256),
    ("RESERVE", MemCommand(MemOpcode.RESERVE, vptr=0), 0, 0),
    ("RELEASE", MemCommand(MemOpcode.RELEASE, vptr=0), 0, 0),
    ("FREE", MemCommand(MemOpcode.FREE, vptr=0), 0, 0),
]


def run_trace(delays):
    wrapper = SharedMemoryWrapper(delays=delays)
    rows = []
    total = 0
    for label, command, words, byte_count in OPERATIONS:
        observed = drive(wrapper, command).cycles
        expected = expected_cycles(delays, command, words, byte_count)
        rows.append({
            "operation": label,
            "observed cycles": observed,
            "expected cycles": expected,
            "match": "yes" if observed == expected else "NO",
        })
        total += observed
    return rows, total


def test_e3_cycle_accuracy(benchmark, request):
    results = {}

    def run_all():
        recorder = ledger("e3_accuracy", request)
        traces = [
            ("sram", WrapperDelays.sram_like()),
            ("sdram", WrapperDelays.sdram_like()),
            ("hooked",
             WrapperDelays(data_dependent=lambda op, nbytes: nbytes // 32)),
        ]
        for label, delays in traces:
            results[label] = run_trace(delays)
            recorder.record_cycles(f"trace-{label}", results[label][1])
        recorder.flush()
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sram_rows, sram_total = results["sram"]
    sdram_rows, sdram_total = results["sdram"]
    hooked_rows, hooked_total = results["hooked"]

    emit(
        "e3_accuracy",
        "SRAM-like delay parameters:\n" + format_rows(sram_rows)
        + "\n\nSDRAM-like delay parameters:\n" + format_rows(sdram_rows)
        + "\n\nwith data-dependent hook (+bytes/32 cycles):\n"
        + format_rows(hooked_rows)
        + f"\n\ntotal trace cycles: sram={sram_total} sdram={sdram_total} "
        f"hooked={hooked_total}",
    )

    # Accuracy: every operation's observed latency equals the configured one.
    for rows in (sram_rows, sdram_rows, hooked_rows):
        assert all(row["match"] == "yes" for row in rows)
    # Slower parameters must give strictly more cycles for the same trace.
    assert sdram_total > sram_total
    assert hooked_total > sram_total
