"""E7 — cache sensitivity: geometry x write policy x PE count.

The per-PE L1 layer (``repro.cache``) turns locality into an experimental
axis the flat platform never had.  This bench runs the ``stencil`` registry
workload — identical results and operation counts at every point, only the
traversal stride (and with it the locality) changes — across:

* write policy: caches off, write-through, write-back;
* traversal stride: sequential (stride 1) vs. line-hostile (stride 17);
* PE count (coherence pressure grows with sharers);
* cache geometry (capacity sweep at a fixed PE count);
* interconnect topology (bus x crossbar x mesh, caches off vs write-back —
  the L1 layer must remove shared-memory traffic on every topology).

Reported per point: shared-memory transactions counted by the fabric's
per-memory monitor columns (:meth:`repro.fabric.Fabric.monitor`), aggregate
L1 hit rate, simulated cycles and simulation speed; what every point simulated
is also recorded in the ledger (``common.ledger``).
The headline checks: an enabled cache must *strictly* reduce shared-memory
transactions on the sequential sweep, and (full run, capacity-starved
geometry) the hostile stride must hit less than the sequential one.
"""

from __future__ import annotations

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    Scenario,
)

from common import emit, format_rows, ledger

PE_COUNTS = [1, 2, 4]
POLICIES = ["write_through", "write_back"]
STRIDES = [1, 17]
#: (sets, ways, line_bytes) points of the geometry sweep (full run only).
#: The first point is capacity-starved (128 B for a ~512 B working set)
#: with two ways, so the stride sweep shows up as conflict misses rather
#: than as deterministic src/dst aliasing.
GEOMETRIES = [(4, 2, 16), (16, 2, 16), (64, 2, 32)]
SIZE = 64
ITERATIONS = 1
GEOMETRY_PES = 2
#: Topology axis: stride-1 stencil, caches off vs write-back, per topology.
TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]
TOPOLOGY_PES = 2


def _scenario(name, pes, stride, policy=None, geometry=None, size=SIZE,
              topology="shared_bus"):
    builder = (PlatformBuilder()
               .pes(pes)
               .wrapper_memories(1)
               .monitored())
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    if policy is not None:
        sets, ways, line_bytes = geometry or (64, 2, 32)
        builder = builder.l1_cache(sets=sets, ways=ways, line_bytes=line_bytes,
                                   policy=policy)
    return Scenario(
        name=name,
        config=builder.build(),
        workload="stencil",
        params={"size": size, "iterations": ITERATIONS, "stride": stride,
                "seed": 11},
        seed=11,
    )


def make_scenarios(pe_counts, geometries):
    scenarios = []
    for pes in pe_counts:
        for stride in STRIDES:
            scenarios.append(_scenario(f"off-p{pes}-s{stride}", pes, stride))
            for policy in POLICIES:
                scenarios.append(_scenario(
                    f"{policy}-p{pes}-s{stride}", pes, stride, policy=policy))
    for sets, ways, line_bytes in geometries:
        for stride in STRIDES:
            scenarios.append(_scenario(
                f"geom{sets}x{ways}x{line_bytes}-s{stride}", GEOMETRY_PES,
                stride, policy="write_back",
                geometry=(sets, ways, line_bytes)))
    for topology in TOPOLOGIES:
        scenarios.append(_scenario(f"{topology}-off-s1", TOPOLOGY_PES, 1,
                                   topology=topology))
        scenarios.append(_scenario(f"{topology}-wb-s1", TOPOLOGY_PES, 1,
                                   policy="write_back", topology=topology))
    return scenarios


def _row(result):
    report = result.report
    stats = report.interconnect_stats
    return {
        "scenario": result.scenario,
        "mem_txns": stats.get("memory_transactions", 0),
        "hit_rate": f"{report.cache_hit_rate() * 100:.1f}%",
        "simulated_cycles": report.simulated_cycles,
        "speed (c/s)": (round(report.simulation_speed)
                        if report.simulation_speed_or_none is not None
                        else "-"),
    }


def test_e7_cache_sensitivity(benchmark, request):
    quick = request.config.getoption("--quick")
    pe_counts = [2] if quick else PE_COUNTS
    geometries = [] if quick else GEOMETRIES
    scenarios = make_scenarios(pe_counts, geometries)
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(
            scenarios, recorder=ledger("e7_cache_sensitivity", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = {result.scenario: result for result in collected["results"]}
    for result in results.values():
        result.raise_for_status()

    emit(
        "e7_cache_sensitivity",
        format_rows([_row(result) for result in collected["results"]])
        + "\n\nstencil results are bit-identical at every point; mem_txns "
        "counts shared-memory transactions in the fabric's per-memory "
        "monitor columns.",
    )

    def mem_txns(name):
        return results[name].report.interconnect_stats["memory_transactions"]

    def hit_rate(name):
        return results[name].report.cache_hit_rate()

    for pes in pe_counts:
        baseline = mem_txns(f"off-p{pes}-s1")
        for policy in POLICIES:
            # An enabled L1 must strictly remove shared-memory traffic on
            # the sequential sweep.
            assert mem_txns(f"{policy}-p{pes}-s1") < baseline
        # The write-back cache absorbs write traffic the write-through one
        # forwards, so it can never do worse on the sequential sweep.
        assert (mem_txns(f"write_back-p{pes}-s1")
                <= mem_txns(f"write_through-p{pes}-s1"))
    for topology in TOPOLOGIES:
        # The L1 layer must remove shared-memory traffic on every topology,
        # and the stencil results stay bit-identical (raise_for_status
        # above already enforced the workload's reference check).
        assert (mem_txns(f"{topology}-wb-s1")
                < mem_txns(f"{topology}-off-s1"))
        assert (results[f"{topology}-wb-s1"].report.results
                == results[f"{topology}-off-s1"].report.results)
    if not quick:
        sets, ways, line_bytes = GEOMETRIES[0]  # capacity-starved point
        small = f"geom{sets}x{ways}x{line_bytes}"
        # With a cache too small for the working set, the line-hostile
        # stride must hit strictly less than the sequential sweep.
        assert hit_rate(f"{small}-s17") < hit_rate(f"{small}-s1")
        # And growing the cache recovers the hit rate.
        big_sets, big_ways, big_line = GEOMETRIES[-1]
        big = f"geom{big_sets}x{big_ways}x{big_line}"
        assert hit_rate(f"{big}-s1") >= hit_rate(f"{small}-s1")
