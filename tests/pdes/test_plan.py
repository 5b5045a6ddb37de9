"""Partition planning: tiling geometry, ownership, config validation."""

import dataclasses

import pytest

from repro.api import BuilderError, PlatformBuilder
from repro.cache.geometry import CacheConfig
from repro.check.config import CheckConfig
from repro.pdes import DEFAULT_EPOCH_CYCLES, PartitionError, plan_partitions
from repro.soc.config import PlatformConfig


def mesh_config(rows, cols, partitions, *, num_pes=4, num_memories=4,
                **kwargs):
    builder = (PlatformBuilder().pes(num_pes)
               .wrapper_memories(num_memories).mesh(rows, cols, **kwargs))
    if partitions > 1:
        builder = builder.partitions(partitions)
    return builder.build()


def test_8x8_four_partitions_are_quadrants():
    plan = plan_partitions(mesh_config(8, 8, 4))
    assert plan.partitions == 4 and plan.rows == plan.cols == 8
    for node in range(64):
        row, col = divmod(node, 8)
        quadrant = (row // 4) * 2 + (col // 4)
        assert plan.node_owner[node] == quadrant, f"node {node}"


def test_4x4_two_partitions_are_halves():
    plan = plan_partitions(mesh_config(4, 4, 2))
    for node in range(16):
        assert plan.node_owner[node] == (0 if node < 8 else 1)


def test_bisection_is_nested():
    """Every 2-partition tile is a union of 4-partition tiles, so a
    placement that is cut-free at 4 partitions is cut-free at 2."""
    two = plan_partitions(mesh_config(4, 4, 2))
    four = plan_partitions(mesh_config(4, 4, 4))
    refinement = {}
    for node in range(16):
        coarse, fine = two.node_owner[node], four.node_owner[node]
        assert refinement.setdefault(fine, coarse) == coarse, (
            f"4-partition tile {fine} straddles a 2-partition cut"
        )


def test_pe_and_memory_ownership_follow_placement():
    plan = plan_partitions(mesh_config(
        4, 4, 4, pe_nodes=(0, 2, 8, 10), memory_nodes=(5, 7, 13, 15)))
    assert plan.pe_owner == (0, 1, 2, 3)
    assert plan.memory_owner == (0, 1, 2, 3)
    assert plan.pes_of(2) == (2,)
    assert plan.memories_of(3) == (3,)
    assert plan.nodes_of(0) == frozenset({0, 1, 4, 5})


def test_default_epoch_covers_hop_latency():
    plan = plan_partitions(mesh_config(4, 4, 2))
    assert plan.epoch_cycles >= DEFAULT_EPOCH_CYCLES
    explicit = plan_partitions(dataclasses.replace(
        mesh_config(4, 4, 2), pdes_epoch_cycles=17))
    assert explicit.epoch_cycles == 17


def test_unsplittable_mesh_raises():
    config = mesh_config(1, 4, 8, num_pes=2, num_memories=1)
    with pytest.raises(PartitionError, match="cannot be split"):
        plan_partitions(config)


def test_non_mesh_config_is_rejected():
    with pytest.raises(ValueError, match="requires InterconnectKind.MESH"):
        PlatformConfig(num_pes=2, num_memories=1, partitions=2)


def test_partition_count_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        dataclasses.replace(mesh_config(4, 4, 2), partitions=3)
    with pytest.raises(BuilderError, match="power of two"):
        PlatformBuilder().partitions(6).build()


def test_unsupported_features_are_rejected_eagerly():
    base = mesh_config(4, 4, 2)
    with pytest.raises(ValueError, match="MSI snooping"):
        dataclasses.replace(base, cache=CacheConfig())
    with pytest.raises(ValueError, match="race detector"):
        dataclasses.replace(base, check=CheckConfig())
    with pytest.raises(ValueError, match="idle"):
        dataclasses.replace(base, idle_tick_memories=True)


def test_describe_mentions_partitioning():
    assert "pdes[2p" in mesh_config(4, 4, 2).describe()
    assert "pdes" not in mesh_config(4, 4, 1).describe()


def test_partitions_is_a_sweep_axis():
    from repro.api import ExperimentRunner, scenario_grid

    base = mesh_config(4, 4, 1, pe_nodes=(0, 2, 8, 10),
                       memory_nodes=(5, 7, 13, 15))
    grid = scenario_grid("axis", base, "fir",
                         config_grid={"partitions": [1, 2]},
                         params={"num_samples": 16}, seed=2)
    assert [s.config.partitions for s in grid] == [1, 2]
    results = ExperimentRunner(grid).run()
    for result in results:
        result.raise_for_status()
    assert (results[0].report.results == results[1].report.results)


def test_partitions_must_run_through_coordinator():
    from repro.soc.platform import Platform

    platform = Platform(mesh_config(4, 4, 2))
    with pytest.raises(RuntimeError, match="run_partitioned"):
        platform.run()
