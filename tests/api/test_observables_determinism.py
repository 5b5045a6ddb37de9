"""The simulation does not depend on string hashing or on how workers start.

The result store replays a stored report in place of a fresh run, which is
only sound if the same scenario gives the same observables in every
process: whatever ``PYTHONHASHSEED`` the interpreter drew (set iteration
order must never reach a report), and whether a sweep worker was forked
from the parent or spawned as a fresh interpreter.  perfbench pins
``PYTHONHASHSEED=0`` to remove one source of timing variation; this test
states that the simulator itself does not need the pin.

Each fresh interpreter runs three small scenarios in-process — ``stencil``
on a crossbar behind write-back L1s, ``fir`` on the bus and
``alloc_churn`` on the bus — and prints their ``observables_sha256()``.
Under ``PYTHONHASHSEED`` 1 and 2 the hashes must agree.  The first
interpreter also runs two of them as a 2-shard ``ExperimentRunner`` sweep
with forked and with spawned workers, which must match its own in-process
runs.
"""

import json
import os
import subprocess
import sys

import repro

_CHILD = r"""
import json
import sys

from repro.api import ExperimentRunner, PlatformBuilder, Scenario, run_scenario

def platform():
    return PlatformBuilder().pes(2).wrapper_memories(2)

scenarios = [
    Scenario(name="stencil-xbar-l1wb",
             config=platform().crossbar().l1_cache(
                 sets=8, ways=2, line_bytes=16, policy="write_back").build(),
             workload="stencil", params={"size": 24, "iterations": 2}),
    Scenario(name="fir-bus", config=platform().build(), workload="fir",
             params={"num_samples": 24}),
    Scenario(name="alloc_churn-bus", config=platform().build(),
             workload="alloc_churn",
             params={"iterations": 3, "block_words": 8, "gsm_frames": 1}),
]

def hashes(results):
    out = {}
    for result in results:
        result.raise_for_status()
        out[result.scenario] = result.report.observables_sha256()
    return out

serial = hashes(run_scenario(scenario) for scenario in scenarios)
if sys.argv[1] == "sharded":
    for method in ("fork", "spawn"):
        sharded = hashes(ExperimentRunner(scenarios[:2], shards=2,
                                          start_method=method).run())
        assert sharded == {name: serial[name] for name in sharded}, method
print(json.dumps(serial, sort_keys=True))
"""


def observables_under(hash_seed, mode):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD, mode], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_observables_ignore_hash_seed_and_worker_start_method():
    first = observables_under(1, "sharded")
    second = observables_under(2, "serial")
    assert len(first) == 3
    assert first == second
