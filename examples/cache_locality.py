#!/usr/bin/env python3
"""Cache locality demo: the same workload, three memory hierarchies.

The `repro.cache` subsystem gives every processing element an L1 data
cache (MSI-coherent across PEs) in one builder call.  This example runs the
`stencil` registry workload — scalar loads/stores with a locality knob —
on three platforms:

1. the flat platform (no caches, every access crosses the interconnect),
2. write-through L1 caches (reads cached, writes forwarded),
3. write-back L1 caches (whole array transfers absorbed too),

and prints the shared-memory transaction counts in the fabric's per-memory
monitor columns plus each cache's hit rate.  The computed results are
bit-identical in all three runs — caches only change *where* data lives.

Run with:  python examples/cache_locality.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.api import ExperimentRunner, PlatformBuilder, Scenario

SIZE = 64
STRIDE = 1  # try 17 for a line-hostile traversal of the same data


def make_scenario(label, policy=None):
    builder = (PlatformBuilder()
               .pes(2)
               .wrapper_memories(1)
               .monitored())          # per-memory traffic columns
    if policy is not None:
        builder = builder.l1_cache(sets=16, ways=2, line_bytes=16,
                                   policy=policy)
    return Scenario(
        name=label,
        config=builder.build(),
        workload="stencil",
        params={"size": SIZE, "iterations": 1, "stride": STRIDE, "seed": 7},
        seed=7,
    )


def main():
    scenarios = [
        make_scenario("flat"),
        make_scenario("write-through", "write_through"),
        make_scenario("write-back", "write_back"),
    ]
    results = ExperimentRunner(scenarios).run()
    for result in results:
        result.raise_for_status()

    reference = results[0].report.results
    print(f"{'platform':<14} {'mem txns':>9} {'hit rate':>9} "
          f"{'sim cycles':>11}")
    for result in results:
        report = result.report
        assert report.results == reference, "caches changed the answer!"
        print(f"{result.scenario:<14} "
              f"{report.interconnect_stats['memory_transactions']:>9} "
              f"{report.cache_hit_rate() * 100:>8.1f}% "
              f"{report.simulated_cycles:>11}")
    print("\nresults are bit-identical across all three platforms")
    for cache_report in results[2].report.cache_reports:
        print(f"{cache_report['name']}: {cache_report['geometry']} "
              f"{cache_report['policy']}, hits={cache_report['hits']}, "
              f"misses={cache_report['misses']}, "
              f"writebacks={cache_report['writebacks']}, "
              f"absorbed array writes={cache_report['array_absorbs']}")


if __name__ == "__main__":
    main()
