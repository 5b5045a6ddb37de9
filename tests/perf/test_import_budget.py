"""Import budget: loading follows use, counted in modules, never timed.

``import repro.api`` is the first thing every run waits for, so what it
and each kind of run load is held to lists and counts a loaded CI host
cannot flake (the ``test_l1_hit_frames`` idiom).  Each case runs in a
fresh interpreter and prints what ``sys.modules`` held:

* the sweep set-up path (``import repro.api``, the perfbench grid, an open
  ``ResultStore``) loads the scenario and store layers, not the simulator;
* a bus + wrapper run loads no layer its configuration did not select, no
  workload but its own, and no more modules than its measured ceiling;
* nothing is deferred into the run: between the first ``Platform.run``
  and the end of ``run_scenario`` no ``repro`` module appears, on any of
  the single-process perfbench platforms.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_PRELUDE = r"""
import json, os, sys, tempfile
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
import repro.api
import workloads

def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro"))
"""


def _child(body: str, *args: str):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", _PRELUDE + body, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _offenders(modules, prefixes):
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)]


#: The path loads 32 modules; ``src/repro`` holds 127.
MAX_SETUP_MODULES = 40


def test_sweep_setup_does_not_load_the_simulator():
    modules = _child(r"""
from repro.api import ResultStore
grid = workloads.sweep_grid(11, True, workloads.sweep_base_config(True))
assert len(grid) == 24
with tempfile.TemporaryDirectory() as directory:
    ResultStore(os.path.join(directory, "sweep.sqlite")).close()
print(json.dumps(loaded()))
""")
    assert _offenders(modules, [
        "repro.kernel.simulator", "repro.soc.platform", "repro.interconnect",
        "repro.wrapper.shared_memory", "repro.noc.mesh", "repro.cache.l1",
        "repro.sw.gsm"]) == []
    assert len(modules) <= MAX_SETUP_MODULES, modules


_RUN = r"""
from repro.api import PlatformBuilder, Scenario, run_scenario
workload, params = sys.argv[1], json.loads(sys.argv[2])
config = PlatformBuilder().pes(2).wrapper_memories(2).build()
run_scenario(Scenario(name="budget", config=config, workload=workload,
                      params=params)).raise_for_status()
print(json.dumps(loaded()))
"""

_UNSELECTED_LAYERS = [
    "repro.noc.mesh", "repro.noc.partitioned", "repro.cache.l1",
    "repro.cache.coherence", "repro.check.suite", "repro.obs.suite",
    "repro.dev.dma", "repro.pdes", "repro.interconnect.crossbar",
    "repro.memory.modeled_dynamic_memory"]
#: The codec proper; ``codec`` (signal generators) and ``tables`` are not.
_GSM_CODEC = ["repro.sw.gsm." + module for module in (
    "arith", "bitstream", "decoder", "encoder", "lpc", "ltp", "mapping",
    "preprocess", "rpe")]


#: Ceilings are the counts measured when they were set: a new module on
#: this path must argue its way in by raising one.
@pytest.mark.parametrize("workload,params,forbidden,max_modules", [
    ("fir", {"num_samples": 16}, ["repro.sw.gsm"], 61),
    ("stencil", {"size": 16}, ["repro.sw.gsm"], 61),
    ("alloc_churn", {"iterations": 4, "gsm_frames": 1}, _GSM_CODEC, 64),
])
def test_bus_wrapper_run_loads_only_what_it_uses(workload, params, forbidden,
                                                 max_modules):
    modules = _child(_RUN, workload, json.dumps(params))
    assert "repro.soc.platform" in modules
    assert _offenders(modules, _UNSELECTED_LAYERS + forbidden) == []
    assert [name for name in modules
            if name.startswith("repro.sw.workloads.")] == [
        f"repro.sw.workloads.{workload}"]
    assert len(modules) <= max_modules, modules


_DEFERRED = r"""
from repro.api import run_scenario
from repro.soc.platform import Platform

name = sys.argv[1]
at_first_run = []
real_run = Platform.run

def run(self, max_time=None):
    if not at_first_run:
        at_first_run.append(set(loaded()))
    return real_run(self, max_time=max_time)

Platform.run = run
run_scenario(workloads.SPECS[name].scenario(name, 11, True)).raise_for_status()
print(json.dumps(sorted(set(loaded()) - at_first_run[0])))
"""


@pytest.mark.parametrize("name", [
    "gsm_bus_cd", "stencil_mesh_flat", "stencil_xbar_l1wb",
    "stencil_mesh_probed", "churn_bus_wrapper"])
def test_nothing_is_imported_once_the_platform_runs(name):
    """Work leaves set-up by not being done, not by hiding in the first run."""
    assert _child(_DEFERRED, name) == []


def test_probed_platform_without_caches_does_not_load_the_l1():
    """The suites tell cache-internal transfers by ``BusRequest.tag`` and
    take the predicate from where the tag lives; only the sanitizer's
    shadow map (``cache.shadow``) comes from the cache package."""
    modules = _child(r"""
from repro.api import run_scenario
scenario = workloads.SPECS["stencil_mesh_probed"].scenario(
    "stencil_mesh_probed", 11, True)
assert scenario.config.cache is None
assert scenario.config.check is not None and scenario.config.obs is not None
run_scenario(scenario).raise_for_status()
print(json.dumps(loaded()))
""")
    assert "repro.check.suite" in modules and "repro.obs.suite" in modules
    assert "repro.noc.mesh" in modules
    assert "repro.cache.l1" not in modules
    assert "repro.cache.coherence" not in modules
