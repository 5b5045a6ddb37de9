"""E5 — per-operation cost of the wrapper mechanisms (Section 3).

For every operation the wrapper supports (allocation, scalar write/read,
indexed-structure transfers, pointer-arithmetic access, reservation,
deallocation) this bench measures, with the :func:`repro.api.drive`
micro-bench helper:

* the simulated cycles charged by the cycle-true FSM, and
* the host-side microseconds spent serving the operation,

for both the host-backed wrapper and the fully-modelled baseline, at two
heap occupancies (nearly empty vs. populated with 200 live allocations).
The paper's argument is visible in the shape: wrapper costs are O(1) in the
number of live allocations while the fully-modelled allocator walk grows.
"""

from __future__ import annotations

from repro.api import drive
from repro.fabric import BusOp, BusRequest
from repro.memory import (
    IO_ARRAY_BASE,
    MemCommand,
    MemOpcode,
    ModeledDynamicMemory,
)
from repro.wrapper import SharedMemoryWrapper

from common import emit, format_rows, ledger

POPULATED_ALLOCATIONS = 200
ARRAY_WORDS = 32


def populate(memory, count):
    pointers = []
    for _ in range(count):
        outcome = drive(memory, MemCommand(MemOpcode.ALLOC, dim=8))
        pointers.append(outcome.response.data)
    return pointers


def measure_operations(memory, label):
    """Measure each operation once on ``memory`` and return result rows."""

    def row(operation, outcome):
        return {"memory": label, "operation": operation,
                "cycles": outcome.cycles, "host us": round(outcome.host_us, 1)}

    rows = []
    alloc = drive(memory, MemCommand(MemOpcode.ALLOC, dim=ARRAY_WORDS))
    vptr = alloc.response.data
    rows.append(row("ALLOC", alloc))
    rows.append(row("WRITE", drive(memory, MemCommand(
        MemOpcode.WRITE, vptr=vptr, offset=3, data=7))))
    rows.append(row("READ", drive(memory, MemCommand(
        MemOpcode.READ, vptr=vptr, offset=3))))
    rows.append(row("READ (ptr arith)", drive(memory, MemCommand(
        MemOpcode.READ, vptr=vptr + 12))))
    drive(memory, BusRequest(0, BusOp.WRITE, 0,
                             burst_data=list(range(ARRAY_WORDS))),
          offset=IO_ARRAY_BASE)
    rows.append(row(f"WRITE_ARRAY[{ARRAY_WORDS}]", drive(memory, MemCommand(
        MemOpcode.WRITE_ARRAY, vptr=vptr, dim=ARRAY_WORDS))))
    rows.append(row(f"READ_ARRAY[{ARRAY_WORDS}]", drive(memory, MemCommand(
        MemOpcode.READ_ARRAY, vptr=vptr, dim=ARRAY_WORDS))))
    rows.append(row("RESERVE", drive(memory, MemCommand(
        MemOpcode.RESERVE, vptr=vptr))))
    rows.append(row("FREE", drive(memory, MemCommand(
        MemOpcode.FREE, vptr=vptr))))
    return rows


def alloc_cycles(memory):
    outcome = drive(memory, MemCommand(MemOpcode.ALLOC, dim=8))
    drive(memory, MemCommand(MemOpcode.FREE, vptr=outcome.response.data))
    return outcome.cycles


def test_e5_operation_costs(benchmark, request):
    results = {}

    def run_all():
        recorder = ledger("e5_operation_costs", request)
        results["wrapper_empty"] = measure_operations(SharedMemoryWrapper(),
                                                      "wrapper (empty)")
        results["modeled_empty"] = measure_operations(
            ModeledDynamicMemory(1 << 20), "modeled (empty)")
        for label, rows in (("wrapper-empty", results["wrapper_empty"]),
                            ("modeled-empty", results["modeled_empty"])):
            recorder.record_cycles(label, sum(row["cycles"] for row in rows))
        recorder.flush()
        wrapper_full = SharedMemoryWrapper()
        populate(wrapper_full, POPULATED_ALLOCATIONS)
        modeled_full = ModeledDynamicMemory(1 << 20)
        populate(modeled_full, POPULATED_ALLOCATIONS)
        results["wrapper_full_alloc"] = alloc_cycles(wrapper_full)
        results["modeled_full_alloc"] = alloc_cycles(modeled_full)
        results["wrapper_empty_alloc"] = alloc_cycles(SharedMemoryWrapper())
        results["modeled_empty_alloc"] = alloc_cycles(ModeledDynamicMemory(1 << 20))
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = results["wrapper_empty"] + results["modeled_empty"]
    occupancy_rows = [
        {"memory": "wrapper", "ALLOC cycles (empty heap)": results["wrapper_empty_alloc"],
         f"ALLOC cycles ({POPULATED_ALLOCATIONS} live)": results["wrapper_full_alloc"]},
        {"memory": "modeled", "ALLOC cycles (empty heap)": results["modeled_empty_alloc"],
         f"ALLOC cycles ({POPULATED_ALLOCATIONS} live)": results["modeled_full_alloc"]},
    ]
    emit(
        "e5_operation_costs",
        format_rows(rows)
        + "\n\nallocation cost vs. heap occupancy:\n" + format_rows(occupancy_rows),
    )

    # Shape checks: wrapper allocation cost is independent of occupancy,
    # the fully-modelled allocator's cost grows with the first-fit walk.
    assert results["wrapper_full_alloc"] == results["wrapper_empty_alloc"]
    assert results["modeled_full_alloc"] > results["modeled_empty_alloc"]
    # Array transfers cost more cycles than scalar accesses on both models.
    for label in ("wrapper_empty", "modeled_empty"):
        by_op = {row["operation"]: row["cycles"] for row in results[label]}
        assert by_op[f"READ_ARRAY[{ARRAY_WORDS}]"] > by_op["READ"]
