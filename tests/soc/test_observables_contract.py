"""What a run simulated is not what it cost: the contract, executed.

:meth:`~repro.soc.stats.SimulationReport.observables` leaves the scheduler
counters out, and :meth:`~repro.soc.stats.SimulationReport.cost` holds
them.  A slave acts at the first cycle of its service window, so no process
can observe the instants while a channel is held: a fabric that holds it in
one timed wait instead of one wait per cycle simulates exactly the same
thing with fewer activations.  Swapped in for the stock
``Fabric._run_channel`` — the one arbitration point of the bus, the
crossbar and the mesh — the test-local loop below must leave
``observables_sha256()`` unchanged and lower ``cost()`` on every topology,
with and without the sanitizers, the tracer and the metrics sampler
attached.
"""

import itertools
import json

import pytest

from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.fabric import Fabric
from repro.pdes import run_partitioned


def one_wait_channel(self, channel):
    """``Fabric._run_channel`` holding each window in one timed wait."""
    pending = channel.pending
    while True:
        if not pending:
            yield channel.event
            continue
        winner = self._grant(channel.arbiter, sorted(pending))
        token, request, slave, offset = pending.pop(winner)
        if self.arbitration_cycles:
            yield self.period * self.arbitration_cycles
        response, cycles = self._serve(slave, request, offset)
        yield self.period * cycles
        response.slave_cycles = cycles
        response.total_cycles = cycles + self.arbitration_cycles
        channel.busy_cycles += response.total_cycles
        channel.transactions += 1
        for snooper in self._snoopers:
            snooper(request, response)
        self._served(token, request, response)


SCENARIOS = {
    "fir": {"num_samples": 64, "seed": 5},
    "alloc_churn": {"iterations": 4, "block_words": 16, "gsm_frames": 1,
                    "seed": 9},
    "producer_consumer": {"num_items": 16, "fifo_depth": 4, "seed": 3},
}

TOPOLOGIES = {
    "bus": lambda builder: builder,
    "crossbar": lambda builder: builder.crossbar(),
    "mesh": lambda builder: builder.mesh(2, 2),
}

HOOKS = {
    "plain": lambda builder: builder,
    "probed": lambda builder: builder.sanitize().trace().metrics(50),
}

CELLS = list(itertools.product(SCENARIOS, TOPOLOGIES, HOOKS))


def run(workload, topology, hooks):
    builder = PlatformBuilder().pes(4).wrapper_memories(2)
    config = HOOKS[hooks](TOPOLOGIES[topology](builder)).build()
    result = run_scenario(Scenario(name=workload, config=config,
                                   workload=workload,
                                   params=SCENARIOS[workload], seed=11))
    return result.raise_for_status().report


@pytest.mark.parametrize("workload, topology, hooks", CELLS,
                         ids=["-".join(cell) for cell in CELLS])
def test_one_wait_channel_simulates_the_same_at_a_lower_cost(
        workload, topology, hooks, monkeypatch):
    stock = run(workload, topology, hooks)
    monkeypatch.setattr(Fabric, "_run_channel", one_wait_channel)
    one_wait = run(workload, topology, hooks)
    assert one_wait.observables_sha256() == stock.observables_sha256()
    assert (one_wait.cost()["process_activations"]
            < stock.cost()["process_activations"])


def keys(value):
    """Every dict key of a report tree, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from keys(item)


def test_observables_hold_no_scheduler_counters_at_any_depth():
    config = (PlatformBuilder().pes(2).wrapper_memories(2).mesh(2, 2)
              .partitions(2).build())
    report = run_partitioned(Scenario(name="p2", config=config,
                                      workload="fir",
                                      params={"num_samples": 16}),
                             mode="inprocess")
    assert "kernel_stats" in report.as_dict()
    assert "kernel_stats" in report.as_dict()["pdes"]["per_partition"][0]
    assert "kernel_stats" not in set(keys(report.observables()))
    assert report.cost() == {counter: report.kernel_stats[counter]
                             for counter in report.cost()}
    assert report.cost()["process_activations"] > 0


def test_observables_hold_no_host_code_locations():
    """A sanitizer finding's tracebacks name host files and line numbers:
    kept in ``as_dict()``, left out of ``observables()``, so the hash does
    not move with the checkout directory or an edited line."""
    config = (PlatformBuilder().pes(2).wrapper_memories(1)
              .l1_cache(sets=4, ways=2, line_bytes=16,
                        policy="write_through")
              .sanitize().build())
    report = run_scenario(Scenario(
        name="races", config=config, workload="matmul",
        params={"seed": 7}, seed=7)).raise_for_status().report
    findings = report.as_dict()["sanitizer_reports"]
    assert findings and all(site["traceback"] for finding in findings
                            for site in finding["sites"])
    observables = report.observables()
    assert len(observables["sanitizer_reports"]) == len(findings)
    assert "traceback" not in set(keys(observables))
    assert ".py" not in json.dumps(observables, default=str)


def test_observables_hold_no_runnable_queue_depth():
    """The metrics rows' ``runnable`` gauge is the kernel's queue depth:
    kept in ``as_dict()``, left out of ``observables()``."""
    report = run("producer_consumer", "mesh", "probed")
    rows = report.as_dict()["timeseries"]
    assert rows and all("runnable" in row for row in rows)
    assert "runnable" not in set(keys(report.observables()))
