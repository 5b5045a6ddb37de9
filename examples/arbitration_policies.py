#!/usr/bin/env python3
"""Arbitration-policy demo: priority inversion on a producer/consumer pair.

`repro.fabric` makes the arbitration policy a pluggable axis of every
interconnect topology: `PlatformBuilder.arbitration(...)` selects
round-robin, fixed-priority, weighted round-robin or TDMA, and the same
policy drives every grant point of the chosen fabric (the bus channel,
each crossbar channel, each mesh slave's channel).

This example sets up the classic *priority inversion* scenario: two
producer/consumer FIFO pairs share one memory and one bus, and
fixed-priority arbitration ranks one side of the pipeline above the
other.  Whichever side loses, the outcome is the same: the higher-ranked
pair of masters polls the FIFO control words in an interleaved loop that
keeps a high-priority request pending at nearly every grant instant, and
because fixed priority never rotates, the lower-ranked masters *starve* —
the pipeline blows its simulation budget with the FIFO stuck.  Ranking
the consumers first starves the producers; ranking the producers first
starves the consumers' reads just the same.

The rotation-based policies (round-robin, weighted round-robin, TDMA)
all drain the FIFOs with bit-identical item streams — weighted RR even
while granting the producers a 4:1 bandwidth budget — demonstrating the
fabric-layer guarantee: arbitration redistributes waiting, never results.

Run with:  python examples/arbitration_policies.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.api import ExperimentRunner, PlatformBuilder, Scenario
from repro.soc import format_table

PES = 4          # PE0/PE2 produce, PE1/PE3 consume (pairs share a FIFO).
#: REPRO_EXAMPLE_QUICK=1 shrinks the run for smoke tests (CI).
QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
ITEMS = 8 if QUICK else 48
FIFO_DEPTH = 4
#: Simulated-time budget (in cycles) that comfortably covers every fair
#: policy; only a starved pipeline ever hits it.
MAX_CYCLES = 60_000 if QUICK else 400_000

#: The policies under comparison.  "inverted" ranks the consumers (1, 3)
#: above the producers (0, 2) — the priority-inversion setup; "producers
#: first" is the same policy with a sane order; "weighted" gives the
#: producers a 4:1 grant budget while still guaranteeing consumer turns.
POLICIES = {
    "round_robin": {},
    "tdma": {"kind": "tdma"},
    "weighted (producers 4:1)": {"kind": "weighted_round_robin",
                                 "weights": (4, 1, 4, 1)},
    "priority (producers first)": {"kind": "fixed_priority",
                                   "priority_order": (0, 2, 1, 3)},
    "priority (inverted)": {"kind": "fixed_priority",
                            "priority_order": (1, 3, 0, 2)},
}


def build_scenario(label, policy):
    builder = PlatformBuilder().pes(PES).wrapper_memories(1)
    if policy:
        kwargs = dict(policy)
        builder = builder.arbitration(kwargs.pop("kind"), **kwargs)
    config = builder.build()
    return Scenario(
        name=label, config=config, workload="producer_consumer",
        params={"num_items": ITEMS, "fifo_depth": FIFO_DEPTH, "seed": 3},
        seed=3, max_time=MAX_CYCLES * config.clock_period,
        expect_finished=False,
    )


def main():
    scenarios = [build_scenario(label, policy)
                 for label, policy in POLICIES.items()]
    results = ExperimentRunner(scenarios).run()

    rows = []
    reference = None
    for result in results:
        if result.error:
            raise RuntimeError(result.error)
        report = result.report
        finished = report.all_pes_finished
        stats = report.interconnect_stats
        # A fully starved master never completes a transfer and has no
        # per-master row at all — report that as "shut out".
        waits = {master: str(row["wait_cycles"])
                 for master, row in stats["per_master"].items()}
        for master in range(PES):
            waits.setdefault(master, "shut out")
        rows.append({
            "policy": result.scenario,
            "finished": "yes" if finished else "STARVED",
            "simulated cycles": report.simulated_cycles,
            "producer waits (pe0/pe2)": f"{waits[0]}/{waits[2]}",
            "consumer waits (pe1/pe3)": f"{waits[1]}/{waits[3]}",
        })
        if finished:
            if reference is None:
                reference = report.results
            assert report.results == reference, \
                "arbitration changed the FIFO item streams!"

    print(f"{PES} PEs on one shared bus, two producer->consumer FIFO "
          f"pairs, {ITEMS} items each, budget {MAX_CYCLES:,} cycles\n")
    print(format_table(rows))
    print("\nEvery rotating policy drains both FIFOs with bit-identical "
          "item streams\n(asserted): arbitration only moves the waiting "
          "around.  Fixed priority starves\nwhichever side it ranks last — "
          "the winners' interleaved polling keeps a\nhigher-priority "
          "request pending at nearly every grant, and a policy that\n"
          "never rotates never lets the losers through.")


if __name__ == "__main__":
    main()
