"""E4 — scaling of simulation speed with platform size (Section 3).

The paper argues the wrapper technique scales to "multiple dynamic shared
memories" and many processing elements.  This bench declares the sweep as a
scenario grid over P ∈ {1, 2, 4, 8} processing elements and M ∈ {1, 2, 4}
shared memories (cycle-driven mode, the ``gsm_encode`` registry workload
per PE) and reports the simulation speed for every point, reproducing the
trend behind the paper's single reported data point (P=4: M=1 vs M=4 →
≈20% degradation).

A second sweep turns the interconnect *topology* into an axis: the same
``gsm_encode`` workload on shared bus x crossbar x 2D-mesh NoC at 4/8/16
PEs, comparing simulated cycles (interconnect contention), utilization and
the mesh's packet latencies — the three-way comparison the NoC subsystem
was built for.

A third sweep crosses topology with the fabric's *arbitration policy*
(round-robin, fixed-priority, weighted round-robin, TDMA): the encoded
output must stay bit-identical whatever decides the grants, while the
recorded ``e4_arbitration/...`` rows track what each policy costs in
simulated cycles and host speed on each topology.
"""

from __future__ import annotations

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    scenario_grid,
)
from repro.fabric import POLICY_KINDS
from repro.soc import InterconnectKind, speed_degradation

from common import emit, format_rows, ledger

PE_COUNTS = [1, 2, 4, 8]
MEMORY_COUNTS = [1, 2, 4]
FRAMES = 1
PE_TICK_WORK = 12
MEM_TICK_WORK = 4

#: Topology-axis sweep: PE counts per mode and the shared memory count.
TOPOLOGY_PE_COUNTS = [4, 8, 16]
TOPOLOGY_PE_COUNTS_QUICK = [4, 8]
TOPOLOGY_MEMORIES = 4
TOPOLOGIES = [InterconnectKind.SHARED_BUS, InterconnectKind.CROSSBAR,
              InterconnectKind.MESH]

#: Arbitration-axis sweep: every fabric policy on every topology.
ARBITRATION_PES = 4
ARBITRATION_MEMORIES = 2
ARBITRATION_POLICIES = list(POLICY_KINDS)


def make_scenarios(pe_counts, memory_counts):
    base = (PlatformBuilder()
            .pes(1)
            .wrapper_memories(1)
            .cycle_driven(memory_work=MEM_TICK_WORK, pe_work=PE_TICK_WORK)
            .build())
    return scenario_grid(
        "scaling", base, "gsm_encode",
        config_grid={"num_pes": pe_counts, "num_memories": memory_counts},
        params={"frames": FRAMES, "seed": 7},
    )


def idle_evaluations(report):
    """Idle-state FSM evaluations summed over the platform's memories."""
    return sum(memory["fsm_occupancy"]["IDLE"]
               for memory in report.memory_reports)


def test_e4_scaling_sweep(benchmark, request):
    pe_counts = [1, 2] if request.config.getoption("--quick") else PE_COUNTS
    memory_counts = MEMORY_COUNTS
    scenarios = make_scenarios(pe_counts, memory_counts)
    collected = {}

    def run_sweep():
        # Serial: every point's wall-clock must be measured on an idle host.
        # Per-point workload construction happens inside this timed region;
        # the asserted metrics use report.wallclock_seconds (simulation only).
        runner = ExperimentRunner(scenarios,
                                  recorder=ledger("e4_scaling", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = collected["results"]
    reports = {}
    for result in results:
        result.raise_for_status()
        key = (result.overrides["num_pes"], result.overrides["num_memories"])
        reports[key] = result.report

    rows = [result.row() for result in results]
    # Per-PE-count degradation of M=4 relative to M=1 (the paper's metric).
    degradation_rows = []
    for num_pes in pe_counts:
        base = reports[(num_pes, 1)]
        wide = reports[(num_pes, 4)]
        degradation_rows.append({
            "PEs": num_pes,
            "speed M=1 (c/s)": round(base.simulation_speed),
            "speed M=4 (c/s)": round(wide.simulation_speed),
            "degradation": f"{speed_degradation(base, wide) * 100:.1f}%",
            "idle evals M=1": idle_evaluations(base),
            "idle evals M=4": idle_evaluations(wide),
        })
    emit(
        "e4_scaling",
        format_rows(rows, columns=["scenario", "num_pes", "num_memories",
                                   "simulated_cycles", "wallclock_seconds",
                                   "simulation_speed"])
        + "\n\nM=1 → M=4 degradation per PE count "
        "(paper reports ≈20% at P=4):\n"
        + format_rows(degradation_rows),
    )

    # Shape checks: for every PE count, adding memories adds module
    # evaluations — the idle FSM evaluations the ticker's host work stands
    # for.  That count is deterministic; the speeds in the table above are
    # one host-time sample per point and gate nothing here (perfbench's
    # ``gsm_bus_cd`` measures the ratio with a spread).
    for num_pes in pe_counts:
        assert idle_evaluations(reports[(num_pes, 4)]) \
            > idle_evaluations(reports[(num_pes, 1)])
    # The relative cost shrinks as the number of (more expensive) ISS models
    # grows; that trend needs the full PE range to rise above host noise.
    if pe_counts == PE_COUNTS:
        small = speed_degradation(reports[(pe_counts[0], 1)],
                                  reports[(pe_counts[0], 4)])
        large = speed_degradation(reports[(pe_counts[-1], 1)],
                                  reports[(pe_counts[-1], 4)])
        assert large < small


def make_topology_scenarios(pe_counts):
    base = (PlatformBuilder()
            .pes(pe_counts[0])
            .wrapper_memories(TOPOLOGY_MEMORIES)
            .build())
    return scenario_grid(
        "topology", base, "gsm_encode",
        config_grid={"num_pes": pe_counts, "interconnect": TOPOLOGIES},
        # Dedicated placement: PE i's buffers live in memory i % M, so
        # concurrent-capable topologies can actually overlap accesses
        # (striped placement with one frame aims every PE at memory 0).
        params={"frames": FRAMES, "seed": 7, "placement": "dedicated"},
    )


def test_e4_topology_sweep(benchmark, request):
    """Bus x crossbar x mesh at 4/8/16 PEs over the same workload."""
    quick = request.config.getoption("--quick")
    pe_counts = TOPOLOGY_PE_COUNTS_QUICK if quick else TOPOLOGY_PE_COUNTS
    scenarios = make_topology_scenarios(pe_counts)
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(scenarios,
                                  recorder=ledger("e4_topology", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    reports = {}
    for result in collected["results"]:
        result.raise_for_status()
        key = (result.overrides["num_pes"],
               result.overrides["interconnect"].value)
        reports[key] = result.report

    rows = []
    for num_pes in pe_counts:
        for topology in TOPOLOGIES:
            report = reports[(num_pes, topology.value)]
            row = {
                "PEs": num_pes,
                "topology": topology.value,
                "simulated_cycles": report.simulated_cycles,
                "utilization":
                    f"{report.interconnect_stats['utilization'] * 100:.1f}%",
                "pkt p95 (cyc)": "-",
            }
            noc = report.interconnect_stats.get("noc")
            if noc:
                row["pkt p95 (cyc)"] = noc["latency_percentiles"]["p95"]
            rows.append(row)
    emit(
        "e4_topology",
        format_rows(rows)
        + f"\n\n{TOPOLOGY_MEMORIES} shared memories; identical gsm_encode "
        "results on every topology (asserted).",
    )

    for num_pes in pe_counts:
        bus = reports[(num_pes, "shared_bus")]
        xbar = reports[(num_pes, "crossbar")]
        mesh = reports[(num_pes, "mesh")]
        # The encoded output is bit-identical across topologies.
        assert xbar.results == bus.results
        assert mesh.results == bus.results
        # The serialized bus can never need fewer cycles than the crossbar.
        assert bus.simulated_cycles >= xbar.simulated_cycles
        # The mesh's distributed contention costs far less than full bus
        # serialization: hop latency and all, it still finishes first.
        assert mesh.simulated_cycles < bus.simulated_cycles
        # Mesh reports are decorated with the NoC block.
        assert mesh.interconnect_stats["noc"]["packets"] > 0

    # The bus's serialization penalty over the concurrent topologies grows
    # with PE count (simulated cycles, so this is deterministic).
    def bus_penalty(num_pes):
        xbar = reports[(num_pes, "crossbar")].simulated_cycles
        bus = reports[(num_pes, "shared_bus")].simulated_cycles
        return (bus - xbar) / xbar

    assert bus_penalty(pe_counts[-1]) > bus_penalty(pe_counts[0])


def make_arbitration_scenarios():
    base = (PlatformBuilder()
            .pes(ARBITRATION_PES)
            .wrapper_memories(ARBITRATION_MEMORIES)
            .build())
    return scenario_grid(
        "arbitration", base, "gsm_encode",
        config_grid={"interconnect": TOPOLOGIES,
                     "arbitration": ARBITRATION_POLICIES},
        params={"frames": FRAMES, "seed": 7, "placement": "dedicated"},
    )


def test_e4_arbitration_sweep(benchmark, request):
    """Every fabric arbitration policy on every topology (also --quick).

    The policy may redistribute waiting — it must never change results:
    the encoded GSM output is asserted bit-identical across all twelve
    (topology, policy) points.  Rows land in the ledger under
    ``e4_arbitration/...`` and feed the perf-smoke ledger gate.
    """
    scenarios = make_arbitration_scenarios()
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(
            scenarios, recorder=ledger("e4_arbitration", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    reports = {}
    for result in collected["results"]:
        result.raise_for_status()
        key = (result.overrides["interconnect"].value,
               result.overrides["arbitration"])
        reports[key] = result.report

    rows = []
    for topology in TOPOLOGIES:
        for policy in ARBITRATION_POLICIES:
            report = reports[(topology.value, policy)]
            grants = report.interconnect_stats["arbitration"]["grant_counts"]
            waits = [row["wait_cycles"] for _master, row in
                     sorted(report.interconnect_stats["per_master"].items())]
            rows.append({
                "topology": topology.value,
                "policy": policy,
                "simulated_cycles": report.simulated_cycles,
                "interconnect p95 (cyc)":
                    report.interconnect_stats["latency_percentiles"]["p95"],
                "wait cyc/PE": "/".join(str(w) for w in waits),
                "grants": sum(grants.values()),
                "wall s": round(report.wallclock_seconds, 4),
                "speed (c/s)": round(report.simulation_speed),
            })
    emit(
        "e4_arbitration",
        format_rows(rows)
        + f"\n\n{ARBITRATION_PES} PEs, {ARBITRATION_MEMORIES} shared "
        "memories, gsm_encode; identical encoder output across all "
        "policies on every topology (asserted).",
    )

    for topology in TOPOLOGIES:
        baseline = reports[(topology.value, "round_robin")]
        for policy in ARBITRATION_POLICIES:
            report = reports[(topology.value, policy)]
            # The arbitration policy must never change computed results.
            assert report.results == baseline.results
            # Every master was granted: even fixed priority drains all PEs.
            grants = report.interconnect_stats["arbitration"]["grant_counts"]
            assert set(grants) == set(range(ARBITRATION_PES))
            assert report.interconnect_stats["arbitration"]["kind"] \
                == policy
