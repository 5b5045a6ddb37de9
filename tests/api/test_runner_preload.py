"""Sharded workers inherit the simulator from the parent; none imports it.

``ExperimentRunner`` forks one process per scenario, so a module a worker
has to import itself is imported once per scenario.  ``_run_sharded``
therefore loads, before the first fork, what its scenarios' platforms and
workloads need.  Run in a fresh interpreter (in this one, earlier tests
have imported everything): a 2-shard sweep over {bus, mesh + write-back L1
+ sanitizers, a partitioned mesh} x {fir, stencil} whose workers report
their ``sys.modules``; every worker's list must be a subset of the
parent's.  The workers report through a scenario check — it runs in the
worker and its message travels back in ``failures`` — because the
scenarios must name the built-in workloads for their modules to be part
of what is preloaded.  ``spawn`` workers inherit nothing and import for
themselves; their simulated results must be identical.
"""

import os
import subprocess
import sys

import repro

_CHILD = r"""
import sys
from repro.api import ExperimentRunner, PlatformBuilder, Scenario

def loaded():
    return {name for name in sys.modules if name.startswith("repro")}

def report_modules(report):
    return "loaded:" + ",".join(sorted(loaded()))

def base():
    return PlatformBuilder().pes(2).wrapper_memories(2)

configs = {
    "bus": base().build(),
    "mesh": base().mesh().l1_cache(
        sets=8, ways=2, line_bytes=16, policy="write_back").sanitize().build(),
    # A daemon worker cannot fork: it runs both partitions in-process.
    "pdes": base().mesh(2, 2).partitions(2).build(),
}
traffic = {"fir": {"num_samples": 16}, "stencil": {"size": 16}}

def scenarios(checks=()):
    return [Scenario(name=f"{platform}-{workload}", config=config,
                     workload=workload, params=params, checks=checks)
            for platform, config in configs.items()
            for workload, params in traffic.items()]

assert "repro.soc.platform" not in loaded()
assert "repro.sw.workloads.fir" not in loaded()
forked = ExperimentRunner(scenarios((report_modules,)), shards=2).run()
parent = loaded()
for result in forked:
    assert result.error is None, result.error
    [message] = result.failures  # the check's message is the only one
    worker = set(message[len("loaded:"):].split(","))
    assert "repro.soc.platform" in worker
    assert worker <= parent, (result.scenario, sorted(worker - parent))
by_name = {result.scenario: result for result in forked}
assert "repro.cache.l1" in by_name["mesh-fir"].failures[0]
assert by_name["pdes-fir"].report.pdes["mode"] == "inprocess"

spawned = ExperimentRunner(scenarios(), shards=2, start_method="spawn").run()
for ours, theirs in zip(forked, spawned):
    theirs.raise_for_status()
    assert theirs.report.results == ours.report.results
    assert theirs.report.simulated_cycles == ours.report.simulated_cycles
    assert theirs.report.cost() == ours.report.cost()
"""


def test_forked_workers_import_nothing_and_spawn_agrees():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
