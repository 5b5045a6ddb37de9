"""Golden fixed-seed scenarios: what they simulate is pinned, what they cost
may only fall.

Each scenario runs a deterministic fixed-seed workload against
``golden_sched_stats.json``.  Two kinds of numbers are compared, the way
:class:`~repro.soc.stats.SimulationReport` separates them:

* what was simulated: the final simulated time, every per-PE
  :class:`~repro.cache.l1.CacheStats` counter of the cached scenarios and
  the whole NoC block of the mesh scenario must equal the golden values
  exactly;
* what it cost: the four scheduler counters (``report.cost()``) must not
  rise above the golden values.  A kernel or topology that reaches the
  same simulated state with fewer activations passes; one that needs more
  fails.  CI runs this as part of the perf-smoke job.

If a *deliberate* change of simulated behaviour is made, rerun the
scenarios and update the golden file in the same commit, explaining the
delta in the commit message.
"""

import json
import os
from dataclasses import fields

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario
from repro.cache import CacheStats

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_sched_stats.json")


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
        # Cached scenarios.  Scalar traffic served by write-back L1s:
        scen("golden-stencil-l1wb",
             PlatformBuilder().pes(2).wrapper_memories(2).crossbar()
             .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back"),
             "stencil", {"size": 32, "iterations": 2, "seed": 7}, 7),
        # array writes absorbed into, or forced past, a tiny write-back L1
        # (absorbs, fallbacks, evictions and writebacks all nonzero):
        scen("golden-alloc-churn-l1wb",
             PlatformBuilder().pes(2).wrapper_memories(1).crossbar()
             .l1_cache(sets=4, ways=2, line_bytes=16, policy="write_back"),
             "alloc_churn", {"seed": 7}, 7),
        # and a write-through L1 whose writes invalidate the peer's lines:
        scen("golden-producer-consumer-l1wt",
             PlatformBuilder().pes(2).wrapper_memories(1)
             .l1_cache(sets=4, ways=2, line_bytes=16, policy="write_through"),
             "producer_consumer", {"seed": 7}, 7),
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


SCENARIOS = [scenario.name for scenario in golden_scenarios()]
CACHED_SCENARIOS = ["golden-stencil-l1wb", "golden-alloc-churn-l1wb",
                    "golden-producer-consumer-l1wt"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulated_time_matches_golden(scenario, golden, results):
    report = results[scenario].report
    assert report.simulated_time == golden[scenario]["simulated_time"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cost_does_not_rise_above_golden(scenario, golden, results):
    cost = results[scenario].report.cost()
    risen = {counter: (golden[scenario][counter], count)
             for counter, count in cost.items()
             if count > golden[scenario][counter]}
    assert not risen, (
        f"fixed-seed scenario {scenario!r} costs more scheduler work than "
        f"its golden counters (golden, now): {risen}")


def test_cache_counters_match_golden(golden, results):
    """An L1 change that keeps behaviour must leave every per-PE
    :class:`CacheStats` counter of every cached scenario alone."""
    counters = [field.name for field in fields(CacheStats)]
    for scenario in CACHED_SCENARIOS:
        observed = {
            cache["name"]: {name: cache[name] for name in counters}
            for cache in results[scenario].report.cache_reports
        }
        assert observed == golden[scenario]["cache_reports"], scenario


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
