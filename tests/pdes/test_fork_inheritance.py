"""Partition workers inherit their modules from the coordinator's process.

``_run_processes`` loads the platform layers of the scenario before it
forks, so each worker builds its shard from modules it already has.  In a
fresh interpreter, a cut-free 2-partition traced run of a test-registered
workload whose tasks return their worker's ``sys.modules``: every list
must be a subset of the parent's (tracing is the optional layer here: the
coordinator itself imports the partitioned mesh, nothing imports the
observability suite for the parent but the preload).
"""

import os
import subprocess
import sys

import repro

_CHILD = r"""
import sys
from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.sw import workload

def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro"))

@workload.register("loaded_modules")
def _loaded_modules(config):
    def task(ctx):
        yield from ctx.compute(1)
        return loaded()
    return [task] * config.num_pes

config = (PlatformBuilder().pes(4).wrapper_memories(4)
          .mesh(4, 4, pe_nodes=(0, 2, 8, 10), memory_nodes=(5, 7, 13, 15))
          .trace().partitions(2).build())
assert "repro.soc.platform" not in loaded()
result = run_scenario(Scenario(name="inherit", config=config,
                               workload="loaded_modules"))
result.raise_for_status()
parent = set(loaded())
pdes = result.report.pdes
assert pdes["mode"] == "process" and pdes["boundary_messages"] == 0
assert len(result.report.results) == 4
for pe, worker in result.report.results.items():
    assert {"repro.noc.partitioned", "repro.obs.suite"} <= set(worker)
    assert set(worker) <= parent, (pe, sorted(set(worker) - parent))
"""


def test_partition_workers_import_nothing_of_their_own():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
