"""Memory-monitor regression gate: the per-memory traffic column.

``golden_memory_monitors.json`` holds ``interconnect_stats["memory_monitors"]``
and ``["memory_transactions"]`` of fixed-seed monitored runs: the stencil
sweep in E7's topology-axis shape (2 PEs, bus / crossbar / mesh, caches off /
write-through / write-back), the three platforms of
``examples/cache_locality.py``, one modeled-memory bus run and one cut-free
partitioned mesh.  It was recorded while a wrapping slave re-drove every
memory's ``serve`` to count its cycles; the fabric now counts them where it
drives the slave, and must reproduce every number and the order of every key.

Re-record only for a deliberate timing-model change, with the reason in the
commit message::

    PYTHONPATH=src python tests/fabric/test_memory_monitors_golden.py
"""

import json
import os

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_memory_monitors.json")

#: Cut-free placement on a 4x4 mesh: PE i only talks to memory i, and no
#: packet leaves its half, so the partitioned run is the sequential one.
CUT_FREE = dict(pe_nodes=(0, 2, 8, 10), memory_nodes=(5, 7, 13, 15))


def _stencil(name, topology, policy=None, geometry=(64, 2, 32), seed=11):
    builder = PlatformBuilder().pes(2).wrapper_memories(1).monitored()
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    if policy is not None:
        sets, ways, line_bytes = geometry
        builder = builder.l1_cache(sets=sets, ways=ways,
                                   line_bytes=line_bytes, policy=policy)
    return Scenario(name=name, config=builder.build(), workload="stencil",
                    params={"size": 64, "iterations": 1, "stride": 1,
                            "seed": seed},
                    seed=seed)


def partitioned_mesh(partitions):
    """The monitored cut-free mesh ``fir`` run, at ``partitions`` shards."""
    builder = (PlatformBuilder().pes(4).wrapper_memories(4).monitored()
               .mesh(4, 4, **CUT_FREE))
    if partitions > 1:
        builder = builder.partitions(partitions, epoch_cycles=256)
    return Scenario(name=f"fir-mesh-p{partitions}", config=builder.build(),
                    workload="fir", params={"num_samples": 64}, seed=5)


def golden_scenarios():
    scenarios = []
    for topology in ("shared_bus", "crossbar", "mesh"):
        for label, policy in (("off", None), ("wt", "write_through"),
                              ("wb", "write_back")):
            scenarios.append(_stencil(f"stencil-{topology}-{label}",
                                      topology, policy))
    for label, policy in (("flat", None), ("write-through", "write_through"),
                          ("write-back", "write_back")):
        scenarios.append(_stencil(f"cache-locality-{label}", "shared_bus",
                                  policy, geometry=(16, 2, 16), seed=7))
    scenarios.append(Scenario(
        name="alloc-churn-bus-modeled",
        config=PlatformBuilder().pes(2).modeled_memories(2).monitored()
        .build(),
        workload="alloc_churn", params={"iterations": 40, "seed": 9}, seed=9))
    scenarios.append(partitioned_mesh(2))
    return scenarios


def memory_monitors():
    runs = ExperimentRunner(golden_scenarios()).run()
    observed = {}
    for result in runs:
        result.raise_for_status()
        stats = result.report.interconnect_stats
        observed[result.scenario] = {
            "memory_monitors": stats["memory_monitors"],
            "memory_transactions": stats["memory_transactions"],
        }
    return observed


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed():
    return memory_monitors()


def test_golden_covers_every_scenario(golden, observed):
    assert set(golden) == set(observed)


@pytest.mark.parametrize("scenario", [s.name for s in golden_scenarios()])
def test_memory_monitors_match_golden(scenario, golden, observed):
    assert observed[scenario] == golden[scenario]
    # Dict equality ignores key order; the serialised form does not.
    assert json.dumps(observed[scenario]) == json.dumps(golden[scenario])


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(memory_monitors(), handle, indent=1)
        handle.write("\n")
