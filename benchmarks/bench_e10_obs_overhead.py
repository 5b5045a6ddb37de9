"""E10 — observability overhead: the same workload with ``repro.obs`` on/off.

The obs layer promises *semantic* transparency (same simulated time, same
scheduler counters — ``tests/obs/test_obs_bit_identical.py`` enforces it);
this bench prints its *host* cost.  The ``producer_consumer`` registry
workload runs per topology with and without ``.trace().metrics()``; both
rows land in the ledger (the traced one as ``<topology>-traced``), where
the pair's equal counters are the transparency claim.  Headline check:
simulated cycles and workload results are identical per pair.
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
INTERVAL_CYCLES = 512
TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]
QUICK_NUM_ITEMS = 32
QUICK_TOPOLOGIES = ["shared_bus"]


def _scenario(topology, traced, num_items):
    builder = PlatformBuilder().pes(PES).wrapper_memories(1)
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    if traced:
        builder = builder.trace().metrics(interval_cycles=INTERVAL_CYCLES)
    suffix = "traced" if traced else "plain"
    return Scenario(
        name=f"{topology}-{suffix}",
        config=builder.build(),
        workload="producer_consumer",
        params={"num_items": num_items, "seed": 7},
        seed=7,
    )


def make_scenarios(topologies, num_items):
    return [_scenario(topology, traced, num_items)
            for topology in topologies
            for traced in (False, True)]


def test_e10_obs_overhead(benchmark, request):
    quick = request.config.getoption("--quick")
    topologies = QUICK_TOPOLOGIES if quick else TOPOLOGIES
    num_items = QUICK_NUM_ITEMS if quick else NUM_ITEMS
    scenarios = make_scenarios(topologies, num_items)
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(
            scenarios, recorder=ledger("e10_obs_overhead", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = {result.scenario: result for result in collected["results"]}
    for result in results.values():
        result.raise_for_status()

    rows = []
    for topology in topologies:
        plain = results[f"{topology}-plain"].report
        traced = results[f"{topology}-traced"].report
        # Transparency: the traced run is the same simulation.
        assert traced.simulated_cycles == plain.simulated_cycles
        assert traced.results == plain.results
        assert traced.obs_summary is not None
        assert traced.obs_summary["trace"]["events"] > 0
        assert traced.timeseries
        overhead = (traced.wallclock_seconds / plain.wallclock_seconds
                    if plain.wallclock_seconds > 0 else float("nan"))
        rows.append({
            "topology": topology,
            "cycles": plain.simulated_cycles,
            "events": traced.obs_summary["trace"]["events"],
            "plain s": f"{plain.wallclock_seconds:.3f}",
            "traced s": f"{traced.wallclock_seconds:.3f}",
            "overhead": f"{overhead:.2f}x",
        })

    emit(
        "e10_obs_overhead",
        format_rows(rows)
        + "\n\nsimulated cycles and results identical per pair; trace + "
        "metrics recorded without perturbing the run.",
    )
