"""Memory-report regression gate for the wrapper / modeled-memory data path.

``golden_memory_reports.json`` holds ``report.memory_reports`` — FSM cycle
total and per-state occupancy, per-opcode counts, host native access counts,
translator counters, heap accessor counts — of fixed-seed runs, recorded on
the implementation that stepped the FSM one Python call per busy cycle and
moved array elements one ``encode_element`` / ``decode_element`` call at a
time.  A host-speed change to that path (run-length schedule, bulk codec,
slice staging) must reproduce every number, and the order in which the
occupancy keys first appear.

Re-record only for a deliberate timing-model change, with the reason in the
commit message::

    PYTHONPATH=src python tests/wrapper/test_memory_reports_golden.py
"""

import json
import os

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_memory_reports.json")

WORKLOADS = {
    "fir": {"num_samples": 1024, "seed": 5},
    "alloc_churn": {"iterations": 100, "seed": 9},
    "stencil": {"size": 64, "seed": 7},
}


def golden_scenarios():
    """4 PEs / 2 memories on the shared bus, wrapper and modeled, plus one
    cycle-driven run for the batched ``IDLE`` accounting."""
    scenarios = []
    for workload, params in WORKLOADS.items():
        for kind in ("wrapper", "modeled"):
            builder = PlatformBuilder().pes(4)
            builder = (builder.wrapper_memories(2) if kind == "wrapper"
                       else builder.modeled_memories(2))
            scenarios.append(Scenario(
                name=f"{workload}-{kind}", config=builder.build(),
                workload=workload, params=params, seed=params["seed"]))
    scenarios.append(Scenario(
        name="fir-wrapper-cycle-driven",
        config=PlatformBuilder().pes(4).wrapper_memories(2)
        .cycle_driven(memory_work=0, pe_work=0).build(),
        workload="fir", params={"num_samples": 128, "seed": 5}, seed=5))
    return scenarios


def memory_reports():
    runs = ExperimentRunner(golden_scenarios()).run()
    for result in runs:
        result.raise_for_status()
    return {result.scenario: result.report.memory_reports for result in runs}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed():
    return memory_reports()


def test_golden_covers_every_scenario(golden, observed):
    assert set(golden) == set(observed)


@pytest.mark.parametrize("scenario", [s.name for s in golden_scenarios()])
def test_memory_reports_match_golden(scenario, golden, observed):
    assert observed[scenario] == golden[scenario]
    # Dict equality ignores key order; the serialised form does not.
    assert json.dumps(observed[scenario]) == json.dumps(golden[scenario])


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(memory_reports(), handle, indent=1)
        handle.write("\n")
