"""Acceptance tests of the cache layer against the ISSUE criteria:

* caches off => the platform is the bit-identical flat model (covered by
  ``tests/perf`` golden counters; re-checked here via the report shape);
* caches on => ``gsm_encode`` (4 PEs — shared bus, crossbar and mesh)
  produces bit-identical encoder output versus cache-off while the
  per-memory monitor columns count *strictly fewer* shared-memory
  transactions;
* the ``producer_consumer`` ordering workload stays correct under MSI.
"""

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario


def apply_topology(builder, topology):
    if topology == "crossbar":
        return builder.crossbar()
    if topology == "mesh":
        return builder.mesh(rows=2, cols=2)
    return builder


def gsm_scenario(policy=None, topology="shared_bus", pes=4):
    builder = PlatformBuilder().pes(pes).wrapper_memories(1).monitored()
    builder = apply_topology(builder, topology)
    if policy is not None:
        builder = builder.l1_cache(policy=policy)
    return Scenario(
        name="gsm-acceptance",
        config=builder.build(),
        workload="gsm_encode",
        params={"frames": 1, "seed": 42},
        seed=42,
    )


def run(scenario):
    result = ExperimentRunner([scenario]).run()[0]
    result.raise_for_status()
    return result.report


@pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
@pytest.mark.parametrize("policy", ["write_back", "write_through"])
def test_gsm_bit_exact_with_fewer_memory_transactions(policy, topology):
    flat = run(gsm_scenario(None, topology))
    cached = run(gsm_scenario(policy, topology))
    # Bit-identical encoder output: the caches may only change *where*
    # data lives, never what the software computes.
    assert cached.results == flat.results
    # Strictly fewer shared-memory transactions with the L1 layer on.
    flat_txns = flat.interconnect_stats["memory_transactions"]
    cached_txns = cached.interconnect_stats["memory_transactions"]
    assert cached_txns < flat_txns
    assert cached.cache_hit_rate() > 0.5
    assert len(cached.cache_reports) == 4


def test_write_back_beats_write_through_on_gsm():
    write_through = run(gsm_scenario("write_through"))
    write_back = run(gsm_scenario("write_back"))
    assert (write_back.interconnect_stats["memory_transactions"]
            <= write_through.interconnect_stats["memory_transactions"])


@pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
@pytest.mark.parametrize("policy", ["write_back", "write_through"])
def test_producer_consumer_ordering_under_caches(policy, topology):
    def scenario(with_policy):
        builder = PlatformBuilder().pes(2).wrapper_memories(1)
        builder = apply_topology(builder, topology)
        if with_policy is not None:
            builder = builder.l1_cache(sets=4, ways=2, line_bytes=16,
                                       policy=with_policy)
        return Scenario(
            name="pc-acceptance", config=builder.build(),
            workload="producer_consumer",
            params={"num_items": 24, "fifo_depth": 4, "seed": 3}, seed=3,
        )

    flat = run(scenario(None))
    cached = run(scenario(policy))
    assert cached.results == flat.results
    assert cached.all_pes_finished


def test_caches_off_report_shape_is_unchanged():
    report = run(gsm_scenario(None))
    assert report.cache_reports == []
    assert "coherence" not in report.interconnect_stats
