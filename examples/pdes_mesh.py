#!/usr/bin/env python3
"""Partitioned (PDES) simulation demo: one mesh, 1/2/4 event loops.

Setting ``partitions=N`` on a mesh platform shards it into N rectangular
tiles, runs each tile's event loop in its own worker process, and
synchronizes them conservatively at link-latency epochs (boundary
crossings pay a modelled cut latency; everything else is bit-identical
to the sequential simulation).

This example runs the same FIR workload on a 4x4 mesh sequentially and
partitioned 2 and 4 ways.  The placement is deliberately *cut-free* —
one PE and one memory per quadrant, each PE striped onto its own
quadrant's memory — so all three runs produce identical results,
identical simulated time and identical fabric statistics, and the
partitioned reports show zero boundary messages.  A second, deliberately
bad placement (every PE hammering one far-corner memory) shows boundary
traffic and the cut latency it pays.

Run with:  python examples/pdes_mesh.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.api import ExperimentRunner, PlatformBuilder, Scenario

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
NUM_SAMPLES = 32 if QUICK else 128


def scenario(name, partitions, *, num_memories=4, pe_nodes, memory_nodes):
    builder = (PlatformBuilder()
               .pes(4)
               .wrapper_memories(num_memories)
               .mesh(4, 4, pe_nodes=pe_nodes, memory_nodes=memory_nodes))
    if partitions > 1:
        builder = builder.partitions(partitions)
    return Scenario(name=name, config=builder.build(), workload="fir",
                    params={"num_samples": NUM_SAMPLES, "seed": 9}, seed=9)


def main():
    # Cut-free placement: one PE + one memory per quadrant (fir stripes
    # PE i onto memory i % 4, and XY routes never leave a quadrant).
    local = dict(pe_nodes=(0, 2, 8, 10), memory_nodes=(5, 7, 13, 15))
    runs = [scenario(f"quadrants-p{count}", count, **local)
            for count in (1, 2, 4)]
    # Worst-case placement: all four PEs share the far-corner memory, so
    # three of them talk across partition cuts.
    runs.append(scenario("far-corner-p2", 2, num_memories=1,
                         pe_nodes=(0, 2, 8, 10), memory_nodes=(15,)))
    results = {result.scenario: result
               for result in ExperimentRunner(scenarios=runs).run()}
    for result in results.values():
        result.raise_for_status()

    baseline = results["quadrants-p1"].report
    print(baseline.summary())
    print(f"\n{'scenario':<16} {'parts':>5} {'cycles':>8} {'rounds':>7} "
          f"{'boundary':>9} {'sync wait':>10} {'identical':>13}")
    for name, result in results.items():
        report = result.report
        pdes = report.pdes or {}
        identical = (report.results == baseline.results
                     and report.simulated_time == baseline.simulated_time)
        # Host time the slowest-to-sync worker spent exchanging window
        # messages with its peers (zero in-process: nobody to wait for).
        sync_wait = max((part["sync_wait_seconds"]
                         for part in pdes.get("per_partition", ())),
                        default=0.0)
        print(f"{name:<16} {pdes.get('partitions', 1):>5} "
              f"{report.simulated_cycles:>8} {pdes.get('rounds', 0):>7} "
              f"{pdes.get('boundary_messages', 0):>9} "
              f"{sync_wait * 1e3:>7.1f} ms "
              f"{'yes' if identical else 'results-only':>13}")

    crossing = results["far-corner-p2"].report
    assert crossing.results == baseline.results  # values, not timing
    assert crossing.pdes["boundary_messages"] > 0
    print("\nquadrant runs are bit-identical to sequential (0 boundary "
          "messages);\nthe far-corner run computes the same results but "
          f"pays the cut latency across "
          f"{crossing.pdes['boundary_messages']} boundary crossings "
          f"({crossing.simulated_cycles} vs {baseline.simulated_cycles} "
          "cycles).")


if __name__ == "__main__":
    main()
