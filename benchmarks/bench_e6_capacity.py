"""E6 — claim (I) of Section 1: complex applications with huge dynamic data.

The wrapper lets the simulated software allocate as much dynamic data as the
*host* can hold, without pre-sizing a simulated memory table.  This bench
runs a growing-allocation workload (a simulated video-style double buffer
that doubles in size every step, driven through :func:`repro.api.drive`)
against:

* the host-backed wrapper with an (artificially) huge simulated capacity,
* the fully-modelled baseline, whose memory table must be pre-sized and
  whose Python storage is allocated up front.

It reports, per step, the simulated bytes live, the host bytes actually held
by the wrapper's host layer, and whether the model could satisfy the
allocation.  The wrapper also demonstrates the finite-size mechanism: with a
small configured capacity the same workload is refused at the right point.
"""

from __future__ import annotations

from repro.api import drive
from repro.memory import DataType, MemCommand, MemOpcode, ModeledDynamicMemory
from repro.wrapper import SharedMemoryWrapper

from common import emit, format_rows

#: Allocation schedule: element counts of successive buffers (UINT32).
STEPS = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
#: Pre-sized capacity of the fully-modelled baseline (1 MiB table).
MODELED_TABLE_BYTES = 1 << 20
#: Small capacity used to demonstrate the wrapper's finite-size modelling.
SMALL_CAPACITY_BYTES = 256 * 1024


def grow_and_release(memory):
    """Run the growing double-buffer schedule; returns per-step rows."""
    rows = []
    previous = None
    for step, elements in enumerate(STEPS):
        response = drive(memory, MemCommand(MemOpcode.ALLOC, dim=elements,
                                            data_type=DataType.UINT32)).response
        ok = response.ok
        alloc_status = memory.last_status.name
        vptr = response.data if ok else None
        if ok:
            drive(memory, MemCommand(MemOpcode.WRITE, vptr=vptr,
                                     offset=elements - 1, data=step))
        if previous is not None:
            drive(memory, MemCommand(MemOpcode.FREE, vptr=previous))
        # The old buffer is gone either way; only a successful allocation
        # leaves a live buffer for the next step to replace.
        previous = vptr if ok else None
        rows.append({
            "step": step,
            "requested bytes": elements * 4,
            "granted": "yes" if ok else "no (" + alloc_status + ")",
            "simulated live bytes": memory.used_bytes(),
        })
    if previous is not None:
        drive(memory, MemCommand(MemOpcode.FREE, vptr=previous))
    return rows


def test_e6_capacity(benchmark):
    results = {}

    def run_all():
        wrapper = SharedMemoryWrapper(capacity_bytes=1 << 30)
        results["wrapper_rows"] = grow_and_release(wrapper)
        results["wrapper_host"] = wrapper.host.stats.as_dict()
        results["wrapper_leak_free"] = wrapper.host.check_all_freed()

        modeled = ModeledDynamicMemory(MODELED_TABLE_BYTES)
        results["modeled_rows"] = grow_and_release(modeled)

        small = SharedMemoryWrapper(capacity_bytes=SMALL_CAPACITY_BYTES)
        results["small_rows"] = grow_and_release(small)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    host = results["wrapper_host"]
    emit(
        "e6_capacity",
        "host-backed wrapper (capacity 1 GiB simulated):\n"
        + format_rows(results["wrapper_rows"])
        + f"\n\nhost layer: peak live bytes = {host['peak_live_bytes']}, "
        f"allocations = {host['alloc_calls']}, all freed = "
        f"{results['wrapper_leak_free']}"
        + "\n\nfully-modelled baseline (1 MiB pre-sized table):\n"
        + format_rows(results["modeled_rows"])
        + f"\n\nwrapper with small simulated capacity ({SMALL_CAPACITY_BYTES} B), "
        "demonstrating finite-size modelling:\n"
        + format_rows(results["small_rows"]),
    )

    # Shape checks: the wrapper satisfies every step of the growing workload
    # (claim I), the pre-sized table cannot hold the large buffers, and the
    # small-capacity wrapper refuses allocations beyond its configured size.
    assert all(row["granted"] == "yes" for row in results["wrapper_rows"])
    assert results["wrapper_leak_free"]
    assert any(row["granted"] != "yes" for row in results["modeled_rows"])
    assert any("ERR_FULL" in row["granted"] for row in results["small_rows"])
    # Host memory held at any time stays close to the live double buffer
    # (old + new), never the sum of all steps.
    assert host["peak_live_bytes"] <= (STEPS[-1] + STEPS[-2]) * 4 + 4096
