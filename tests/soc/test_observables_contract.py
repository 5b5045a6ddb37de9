"""What a run simulated is not what it cost: the contract, executed.

:meth:`~repro.soc.stats.SimulationReport.observables` leaves the scheduler
counters out, and :meth:`~repro.soc.stats.SimulationReport.cost` holds
them.  A slave acts at the first cycle of its service window, so no process
can observe the instants while the channel is held: a bus that holds it in
one timed wait instead of one wait per cycle simulates exactly the same
thing with fewer activations.  Swapped in for the stock ``SharedBus``, the
test-local bus below must leave ``observables_sha256()`` unchanged and
lower ``cost()``.
"""

import json

import pytest

import repro.soc.platform
from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.fabric import AddressDecodeError, decode_error_response
from repro.interconnect.bus import SharedBus
from repro.pdes import run_partitioned


class OneWaitBus(SharedBus):
    """``SharedBus`` holding arbitration and service windows in one wait."""

    def _run(self):
        while True:
            if not self._pending:
                yield self._request_event
                continue
            winner = self._grant(self.arbiter, sorted(self._pending))
            port, request = self._pending.pop(winner)
            if self.arbitration_cycles:
                yield self.period * self.arbitration_cycles
            try:
                slave, offset, _region = self.address_map.decode(request.address)
            except AddressDecodeError:
                yield self.period
                self.stats.decode_errors += 1
                response, slave_cycles = decode_error_response(), 1
            else:
                response, slave_cycles = self._serve(slave, request, offset)
                if slave_cycles:
                    yield self.period * slave_cycles
            response.slave_cycles = slave_cycles
            response.total_cycles = slave_cycles + self.arbitration_cycles
            self._finish(port, request, response)


SCENARIOS = {
    "fir": {"num_samples": 64, "seed": 5},
    "alloc_churn": {"iterations": 4, "block_words": 16, "gsm_frames": 1,
                    "seed": 9},
    "producer_consumer": {"num_items": 16, "fifo_depth": 4, "seed": 3},
}


def run(workload):
    config = PlatformBuilder().pes(4).wrapper_memories(2).build()
    result = run_scenario(Scenario(name=workload, config=config,
                                   workload=workload,
                                   params=SCENARIOS[workload], seed=11))
    return result.raise_for_status().report


@pytest.mark.parametrize("workload", SCENARIOS)
def test_one_wait_bus_simulates_the_same_at_a_lower_cost(workload, monkeypatch):
    stock = run(workload)
    monkeypatch.setattr(repro.soc.platform, "SharedBus", OneWaitBus)
    one_wait = run(workload)
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
