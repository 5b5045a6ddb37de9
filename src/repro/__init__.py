"""repro — fast dynamic memory integration for MPSoC co-simulation.

A Python reproduction of Villa, Schaumont, Verbauwhede, Monchiero and
Palermo, *"Fast Dynamic Memory Integration in Co-Simulation Frameworks for
Multiprocessor System on-Chip"*, DATE 2005.

The package is organised as the paper's Figure 1; every sub-package loads
its modules on first use (:mod:`repro._lazy`), so a run imports only the
layers it names:

* :mod:`repro.kernel` — SystemC-like discrete-event simulation kernel;
* :mod:`repro.isa` / :mod:`repro.iss` — ARM-like instruction set and ISS;
* :mod:`repro.fabric` — the unified interconnect fabric layer: master
  ports, address map, snoopers, uniform statistics and the pluggable
  arbitration policies every topology shares;
* :mod:`repro.interconnect` — the shared-bus / crossbar topologies;
* :mod:`repro.noc` — packet-switched 2D-mesh NoC interconnect (wormhole
  routers, XY routing, link-level statistics);
* :mod:`repro.memory` — host memory layer, static memories, heap, and the
  fully-modelled dynamic memory baseline;
* :mod:`repro.cache` — per-PE L1 data caches kept coherent by a snooping
  MSI protocol;
* :mod:`repro.dev` — bus-attached peripherals: the interrupt controller,
  DMA engines (first-class fabric masters) and timers;
* :mod:`repro.obs` — observability: timeline tracing, metrics
  time-series and host-time profiling over the one probe surface;
* :mod:`repro.check` — simulation sanitizers: the happens-before data-race
  detector, protocol checkers and the static lint for task code
  (``python -m repro.check.lint``);
* :mod:`repro.wrapper` — the paper's contribution: the host-backed dynamic
  shared memory wrapper (pointer table, translator, cycle-true FSM, delays)
  and the C-formalism software API;
* :mod:`repro.sw` — the software layer: task programs, the workload
  registry and the GSM 06.10 codec used by the evaluation;
* :mod:`repro.soc` — platform composition and simulation-speed reporting;
* :mod:`repro.pdes` — partitioned (parallel discrete-event) simulation of
  mesh platforms, one worker process per partition;
* :mod:`repro.api` — the declarative experiment layer: platform builder,
  scenarios, the (optionally process-sharded) experiment runner and
  structured result writers;
* :mod:`repro.store` — the sweep observatory substrate: content-addressed
  persistent result store (SQLite) and live sweep telemetry;
* :mod:`repro.analysis` — evaluation metrics and the sweep dashboard
  (``python -m repro.analysis.serve``).

Quick start::

    from repro.api import PlatformBuilder, Scenario, run_scenario
    from repro.memory import DataType

    def program(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        yield from smem.write_array(vptr, list(range(16)))
        data = yield from smem.read_array(vptr, 16)
        yield from smem.free(vptr)
        return sum(data)

    scenario = Scenario(
        name="hello",
        config=PlatformBuilder().pes(1).wrapper_memories(1).build(),
        workload=lambda config, **params: [program],
    )
    result = run_scenario(scenario).raise_for_status()
    print(result.report.summary())

or, with a registered workload (see :data:`repro.sw.workload`)::

    from repro.api import ExperimentRunner, PlatformBuilder, Scenario

    config = PlatformBuilder().pes(4).crossbar().wrapper_memories(2).build()
    scenario = Scenario(name="gsm", config=config, workload="gsm_encode",
                        params={"frames": 2, "seed": 42})
    [result] = ExperimentRunner([scenario]).run()
"""

__version__ = "2.15.0"

__all__ = [
    "analysis",
    "api",
    "cache",
    "check",
    "dev",
    "fabric",
    "interconnect",
    "isa",
    "iss",
    "kernel",
    "memory",
    "noc",
    "obs",
    "pdes",
    "soc",
    "store",
    "sw",
    "wrapper",
]
