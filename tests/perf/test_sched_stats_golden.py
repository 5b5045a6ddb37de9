"""Scheduler-semantics regression gate: golden counters for fixed seeds.

The kernel's fast paths (per-process timer reuse, direct delta waits,
epoch-checked queue entries) must not change *what* the scheduler does —
only how fast it does it.  These scenarios run deterministic fixed-seed
workloads and compare the scheduler counters (``delta_cycles``,
``process_activations``, ``timed_steps``, ``events_fired``) and the final
simulated time against ``golden_sched_stats.json``, which was recorded on
the pre-fast-path kernel.  CI runs this as the perf-smoke regression gate.

If a *deliberate* semantic change is made (new scheduling feature), rerun
the scenarios and update the golden file in the same commit, explaining the
delta in the commit message.
"""

import json
import os

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_sched_stats.json")

COMPARED_COUNTERS = ("delta_cycles", "process_activations", "timed_steps",
                     "events_fired")


def golden_scenarios():
    """The fixed-seed scenario set the golden counters were recorded on."""

    def scen(name, builder, workload, params, seed):
        return Scenario(name=name, config=builder.build(), workload=workload,
                        params=params, seed=seed)

    return [
        scen("golden-fir",
             PlatformBuilder().pes(2).wrapper_memories(2),
             "fir", {"num_samples": 32, "seed": 5}, 5),
        scen("golden-producer-consumer",
             PlatformBuilder().pes(2).wrapper_memories(1),
             "producer_consumer",
             {"num_items": 16, "fifo_depth": 4, "seed": 3}, 3),
        scen("golden-gsm-encode",
             PlatformBuilder().pes(1).wrapper_memories(1),
             "gsm_encode", {"frames": 1, "seed": 42}, 42),
        scen("golden-alloc-churn",
             PlatformBuilder().pes(1).wrapper_memories(1).capacity(1 << 20),
             "alloc_churn",
             {"iterations": 8, "block_words": 16, "gsm_frames": 1, "seed": 9},
             9),
        # The one cached scenario: scalar traffic served by write-back L1s.
        scen("golden-stencil-l1wb",
             PlatformBuilder().pes(2).wrapper_memories(2).crossbar()
             .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back"),
             "stencil", {"size": 32, "iterations": 2, "seed": 7}, 7),
        # The one mesh scenario, sized so router ports both arbitrate between
        # lanes and stall on a full downstream buffer (credit wait).
        scen("golden-stencil-mesh",
             PlatformBuilder().pes(8).wrapper_memories(2)
             .mesh(3, 3, buffer_packets=2, flit_bytes=2),
             "stencil", {"size": 32, "iterations": 2, "seed": 7}, 7),
    ]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["scenarios"]


@pytest.fixture(scope="module")
def results():
    runs = ExperimentRunner(golden_scenarios()).run()
    for result in runs:
        result.raise_for_status()
    return {result.scenario: result for result in runs}


def test_golden_covers_every_scenario(golden, results):
    assert set(golden) == set(results)


@pytest.mark.parametrize("scenario", [s.name for s in golden_scenarios()])
def test_scheduler_counters_match_golden(scenario, golden, results):
    report = results[scenario].report
    observed = {name: report.kernel_stats[name] for name in COMPARED_COUNTERS}
    observed["simulated_time"] = report.simulated_time
    expected = {name: golden[scenario][name] for name in observed}
    assert observed == expected, (
        f"scheduler counters changed for fixed-seed scenario {scenario!r} — "
        f"the kernel fast path altered simulation semantics"
    )


def test_cache_counters_match_golden(golden, results):
    """An L1 host-speed change must leave every per-PE cache counter alone."""
    expected = golden["golden-stencil-l1wb"]["cache_reports"]
    reports = results["golden-stencil-l1wb"].report.cache_reports
    observed = {
        cache["name"]: {name: cache[name] for name in expected[cache["name"]]}
        for cache in reports
    }
    assert observed == expected


def test_noc_counters_match_golden(golden, results):
    """A mesh host-speed change must leave the whole NoC block alone: every
    link's counters, the contention map, hop and latency figures — on a run
    that exercised both lane arbitration and the credit-wait path."""
    expected = golden["golden-stencil-mesh"]["noc"]
    observed = results["golden-stencil-mesh"].report.interconnect_stats["noc"]
    links = observed["links"].values()
    assert sum(link["blocked_cycles"] for link in links) > 0
    assert sum(link["contended_grants"] for link in links) > 0
    assert observed == expected
