"""Partitioned-vs-sequential bit-identity and run-to-run determinism.

The conservative PDES mode promises two distinct guarantees, tested
separately:

* **partition-local traffic is bit-identical to sequential** — when every
  PE only talks to memories inside its own tile (the cut-free placement
  below), the partitioned run must reproduce the sequential results, end
  time, per-master fabric counters, latency percentiles and per-link NoC
  counters exactly;
* **cross-partition traffic is still deterministic** — boundary crossings
  pay the modelled cut latency (so timing differs from sequential by
  design), but the run is a pure function of the scenario: re-running it,
  or running it in-process instead of across worker processes, produces
  the identical report.
"""

import json

import pytest

from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.pdes import run_partitioned

#: Cut-free placement on a 4x4 mesh: one PE + one memory per quadrant,
#: and fir stripes PE i onto memory i (i % num_memories), so with XY
#: routing no packet ever leaves its quadrant — at 4 partitions
#: (quadrants) or 2 (halves, unions of quadrants by nested bisection).
CUT_FREE = dict(pe_nodes=(0, 2, 8, 10), memory_nodes=(5, 7, 13, 15))


def scenario(partitions, *, num_memories=4, epoch_cycles=None, **mesh_kwargs):
    builder = (PlatformBuilder().pes(4).wrapper_memories(num_memories)
               .mesh(4, 4, **mesh_kwargs))
    if partitions > 1:
        builder = builder.partitions(partitions, epoch_cycles=epoch_cycles)
    return Scenario(name=f"pdes-{partitions}", config=builder.build(),
                    workload="fir", params={"num_samples": 48}, seed=11)


def run(partitions, **kwargs):
    result = run_scenario(scenario(partitions, **kwargs))
    assert result.error is None, result.error
    assert result.passed, result.failures
    return result.report


@pytest.fixture(scope="module")
def sequential():
    return run(1, **CUT_FREE)


@pytest.mark.parametrize("partitions", [2, 4])
def test_cut_free_run_is_bit_identical_to_sequential(sequential, partitions):
    report = run(partitions, **CUT_FREE)
    assert report.pdes["boundary_messages"] == 0
    assert report.results == sequential.results
    assert report.finished == sequential.finished
    assert report.simulated_time == sequential.simulated_time
    # The four kernel counters the perfbench goldens pin: every event
    # fires in exactly one partition, and the other three sum the same
    # per-partition work however many windows the run is cut into.
    assert (report.kernel_stats["events_fired"]
            == sequential.kernel_stats["events_fired"])
    rounds = set()
    for epoch_cycles in (32, 256, 10**6):
        windowed = run(partitions, epoch_cycles=epoch_cycles, **CUT_FREE)
        rounds.add(windowed.pdes["rounds"])
        assert windowed.results == sequential.results
        assert windowed.cost() == report.cost(), epoch_cycles
    assert len(rounds) == 3 and min(rounds) == 1
    mine, theirs = report.interconnect_stats, sequential.interconnect_stats
    assert mine["per_master"] == theirs["per_master"]
    assert mine["transactions"] == theirs["transactions"]
    assert mine["latency_percentiles"] == theirs["latency_percentiles"]
    assert mine["arbitration"] == theirs["arbitration"]
    assert mine["noc"] == theirs["noc"]


def test_monitored_cut_free_run_reports_the_sequential_monitors():
    """Each partition reports the monitor columns of the memories it owns;
    merged, they are the sequential run's, byte for byte."""
    def monitors(partitions):
        builder = (PlatformBuilder().pes(4).wrapper_memories(4).monitored()
                   .mesh(4, 4, **CUT_FREE))
        if partitions > 1:
            builder = builder.partitions(partitions, epoch_cycles=256)
        result = run_scenario(Scenario(
            name=f"monitored-{partitions}", config=builder.build(),
            workload="fir", params={"num_samples": 64}, seed=5))
        result.raise_for_status()
        stats = result.report.interconnect_stats
        return json.dumps([stats["memory_monitors"],
                           stats["memory_transactions"]])

    sequential_json = monitors(1)
    assert json.loads(sequential_json)[1] == 72
    assert monitors(2) == sequential_json


def test_modeled_memories_report_the_sequential_memory_blocks():
    """The modelled baseline memories' blocks, each reported by the
    partition that owns the memory, merge into the sequential run's."""
    def memory_reports(partitions):
        builder = (PlatformBuilder().pes(4).modeled_memories(4)
                   .mesh(4, 4, **CUT_FREE))
        if partitions > 1:
            builder = builder.partitions(partitions)
        result = run_scenario(Scenario(
            name=f"modeled-{partitions}", config=builder.build(),
            workload="fir", params={"num_samples": 48}, seed=11))
        result.raise_for_status()
        if partitions > 1:
            assert result.report.pdes["boundary_messages"] == 0
        return result.report.memory_reports

    sequential_reports = memory_reports(1)
    assert [list(block) for block in sequential_reports] == [
        ["name", "live_allocations", "used_bytes", "heap_accesses",
         "op_counts"]] * 4
    assert all(block["heap_accesses"] > 0 for block in sequential_reports)
    assert memory_reports(2) == sequential_reports


def test_cross_partition_traffic_is_correct_and_counted(sequential):
    """All four PEs hammer one memory across the cuts: workload results
    stay correct (timing-independent), boundary traffic is visible."""
    report = run(2, num_memories=1, pe_nodes=(0, 2, 8, 10),
                 memory_nodes=(15,))
    baseline = run(1, num_memories=1, pe_nodes=(0, 2, 8, 10),
                   memory_nodes=(15,))
    assert report.results == baseline.results
    assert report.pdes["boundary_messages"] > 0
    # Cut crossings pay the epoch latency, so the partitioned run's clock
    # is ahead of (never behind) the sequential one.
    assert report.simulated_time >= baseline.simulated_time


@pytest.mark.parametrize("partitions", [2, 4])
def test_cross_partition_run_to_run_identity(partitions):
    kwargs = dict(num_memories=1, epoch_cycles=32,
                  pe_nodes=(0, 2, 8, 10), memory_nodes=(15,))
    first = run(partitions, **kwargs)
    second = run(partitions, **kwargs)
    assert first.observables() == second.observables()
    assert first.cost() == second.cost()


def test_inprocess_mode_matches_process_mode():
    sc = scenario(2, num_memories=1, epoch_cycles=32,
                  pe_nodes=(0, 2, 8, 10), memory_nodes=(15,))
    in_process = run_partitioned(sc, mode="inprocess")
    across = run_partitioned(sc, mode="process")
    assert in_process.pdes["mode"] == "inprocess"
    assert across.pdes["mode"] == "process"
    first = in_process.observables()
    second = across.observables()
    first["pdes"].pop("mode")
    second["pdes"].pop("mode")
    assert first == second
    assert in_process.cost() == across.cost()


def test_max_time_expiry_matches_sequential():
    """A deadline that cuts the workload short pads all partitions'
    clocks to it, exactly like sequential sc_start."""
    base = scenario(1, **CUT_FREE)
    seq = run_scenario(Scenario(
        name="seq-cut", config=base.config, workload="fir",
        params={"num_samples": 48}, seed=11, max_time=100_000,
        expect_finished=False))
    par = run_scenario(Scenario(
        name="par-cut", config=scenario(2, **CUT_FREE).config,
        workload="fir", params={"num_samples": 48}, seed=11,
        max_time=100_000, expect_finished=False))
    assert par.error is None, par.error
    assert par.report.simulated_time == seq.report.simulated_time == 100_000
    assert par.report.finished == seq.report.finished
