"""E9 — sanitizer overhead: the same workload with ``repro.check`` on/off.

The sanitizers promise *semantic* transparency (same simulated time, same
scheduler counters — ``tests/check/test_bit_identical.py`` enforces it);
this bench prints their *host* cost.  The ``producer_consumer`` registry
workload runs per topology with and without ``.sanitize()``; both rows
land in the ledger (the sanitized one as ``<topology>-sanitized``), where
the pair's equal counters are the transparency claim.  Headline check:
simulated cycles are identical per pair, and every run stays
sanitizer-clean.
"""

from __future__ import annotations

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    Scenario,
)

from common import emit, format_rows, ledger

PES = 2
NUM_ITEMS = 256
TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]
QUICK_NUM_ITEMS = 32
QUICK_TOPOLOGIES = ["shared_bus"]


def _scenario(topology, sanitize, num_items):
    builder = PlatformBuilder().pes(PES).wrapper_memories(1)
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    if sanitize:
        builder = builder.sanitize()
    suffix = "sanitized" if sanitize else "plain"
    return Scenario(
        name=f"{topology}-{suffix}",
        config=builder.build(),
        workload="producer_consumer",
        params={"num_items": num_items, "seed": 7},
        seed=7,
    )


def make_scenarios(topologies, num_items):
    return [_scenario(topology, sanitize, num_items)
            for topology in topologies
            for sanitize in (False, True)]


def test_e9_sanitizer_overhead(benchmark, request):
    quick = request.config.getoption("--quick")
    topologies = QUICK_TOPOLOGIES if quick else TOPOLOGIES
    num_items = QUICK_NUM_ITEMS if quick else NUM_ITEMS
    scenarios = make_scenarios(topologies, num_items)
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(
            scenarios, recorder=ledger("e9_sanitizer_overhead", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = {result.scenario: result for result in collected["results"]}
    for result in results.values():
        result.raise_for_status()

    rows = []
    for topology in topologies:
        plain = results[f"{topology}-plain"].report
        sanitized = results[f"{topology}-sanitized"].report
        # Transparency: the sanitized run is the same simulation.
        assert sanitized.simulated_cycles == plain.simulated_cycles
        assert sanitized.results == plain.results
        assert sanitized.sanitizer_reports == []
        overhead = (sanitized.wallclock_seconds / plain.wallclock_seconds
                    if plain.wallclock_seconds > 0 else float("nan"))
        rows.append({
            "topology": topology,
            "cycles": plain.simulated_cycles,
            "plain s": f"{plain.wallclock_seconds:.3f}",
            "sanitized s": f"{sanitized.wallclock_seconds:.3f}",
            "overhead": f"{overhead:.2f}x",
        })

    emit(
        "e9_sanitizer_overhead",
        format_rows(rows)
        + "\n\nsimulated cycles and results identical per pair; sanitized "
        "runs clean.",
    )
