#!/usr/bin/env python3
"""Observability demo: a text timeline of a GSM run on a 4-PE mesh.

`repro.obs` subscribes to the platform's probe bus to record a
typed event timeline in *simulated* time: per-PE task spans and
``ctx.span`` workload annotations, per-master fabric transaction spans,
cache fills/writebacks, IRQ instants and a periodic metrics counter
track.  The same collector feeds three sinks — Chrome/Perfetto JSON
(``python -m repro.obs.export``), a metrics time-series on the report,
and the pure-python text renderer shown here.

This example traces one GSM encoder run on a 2x3 mesh (four PEs, two
shared memories in the far corner), renders the timeline to stdout and
lists the longest recorded spans.  Tracing never perturbs the run: the
simulated end time and scheduler counters are bit-identical with
observability disabled.

Run with:  python examples/trace_timeline.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.api import PlatformBuilder, Scenario, render_timeline
from repro.api.runner import run_scenario
from repro.obs import longest_spans

PES = 4
MEMORIES = 2
#: REPRO_EXAMPLE_QUICK=1 shrinks the run for smoke tests (CI).
QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
FRAMES = 1 if QUICK else 2


def main():
    config = (PlatformBuilder()
              .pes(PES)
              .wrapper_memories(MEMORIES)
              .mesh(rows=2, cols=3, flit_bytes=4,
                    link_cycles=1, router_cycles=1)
              .trace()                          # timeline events
              .metrics(interval_cycles=2048)    # + periodic counter rows
              .build())
    scenario = Scenario(name="trace-timeline-demo", config=config,
                        workload="gsm_encode",
                        params={"frames": FRAMES, "seed": 7,
                                "placement": "dedicated"}, seed=7)
    result = run_scenario(scenario, keep_platform=True, capture_errors=False)
    result.raise_for_status()
    trace = result.platform.obs.trace

    print(f"simulated {result.report.simulated_cycles} cycles; "
          f"recorded {len(trace)} events "
          f"({trace.dropped} dropped)")
    counts = trace.summary()["by_category"]
    print("by category:     " + ", ".join(
        f"{cat}={count}" for cat, count in sorted(counts.items())))
    print(f"metrics rows:    {len(result.timeseries)}")
    print()

    # The full timeline is dominated by per-word fabric transactions;
    # restrict the render to the task/annotation, IRQ and metrics lanes
    # so the workload phases stay readable at terminal width.
    print(render_timeline(trace, width=72,
                          categories=("task", "irq", "metrics")))
    print()

    print("longest spans:")
    for span in longest_spans(trace, count=6):
        print(f"  {span.dur:>12_} ps  {span.cat:<7} {span.name} "
              f"on {span.track[0]}/{span.track[1]}")


if __name__ == "__main__":
    main()
