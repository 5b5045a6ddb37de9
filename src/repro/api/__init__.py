"""repro.api — the declarative experiment layer.

The single public entry point for composing and running experiments on the
co-simulation platform:

* :class:`PlatformBuilder` — fluent, validating construction of
  :class:`~repro.soc.config.PlatformConfig`;
* :class:`Scenario` / :func:`scenario_grid` — declarative experiment
  points referencing workloads by registry name (see
  :data:`repro.sw.workload`);
* :class:`ExperimentRunner` / :func:`run_scenario` — serial or
  process-sharded execution with per-run timeouts and seeded
  reproducibility;
* :class:`~repro.store.ResultStore` / :class:`~repro.store.SweepMonitor`
  — content-addressed result caching and live sweep telemetry
  (re-exported from :mod:`repro.store`);
* :func:`results_table` / :func:`write_json` / :func:`write_csv` —
  structured result output;
* :func:`drive` / :func:`single_memory_testbench` — micro-benchmark
  helpers for driving one memory module directly.

A complete experiment in a few lines::

    from repro.api import ExperimentRunner, PlatformBuilder, scenario_grid

    base = PlatformBuilder().pes(4).wrapper_memories(1).cycle_driven().build()
    scenarios = scenario_grid(
        "gsm", base, "gsm_encode",
        config_grid={"num_memories": [1, 2, 4]},
        params={"frames": 2, "seed": 42},
    )
    results = ExperimentRunner(scenarios, shards=2).run()
    for result in results:
        result.raise_for_status()
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "..sw.registry": ["Workload", "WorkloadError", "WorkloadRegistry",
                      "as_workload", "workload"],
    "..cache.geometry": ["CacheConfig", "CacheGeometry", "WritePolicy"],
    "..check.config": ["CheckConfig"],
    "..dev.config": ["DmaConfig", "IrqControllerConfig", "TimerConfig"],
    "..dev.dma": ["DmaDriver"],
    "..obs.config": ["ObsConfig"],
    "..obs.timeline": ["render_timeline"],
    "..obs.metrics": ["write_timeseries_csv", "write_timeseries_json"],
    "..obs.export": ["write_trace"],
    ".builder": ["BuilderError", "COST_MODELS", "DELAY_PRESETS",
                 "PlatformBuilder"],
    ".micro": ["DriveResult", "MemoryTestbench", "drive",
               "single_memory_testbench"],
    ".perf": ["BenchResult", "PerfRecorder", "PerfTimer", "bench_json_path",
              "load_bench_entries"],
    ".results": ["results_table", "write_csv", "write_json"],
    ".runner": ["ExperimentRunner", "run_scenario", "run_tasks"],
    ".scenario": ["Scenario", "ScenarioResult", "expand_grid",
                  "scenario_grid"],
    "..store.store": ["ResultStore"],
    "..store.telemetry": ["SweepMonitor"],
    "..store.hashing": ["UncacheableScenarioError"],
})

__all__ = [
    "BenchResult",
    "BuilderError",
    "COST_MODELS",
    "CacheConfig",
    "CacheGeometry",
    "CheckConfig",
    "DELAY_PRESETS",
    "DmaConfig",
    "DmaDriver",
    "DriveResult",
    "ExperimentRunner",
    "IrqControllerConfig",
    "MemoryTestbench",
    "ObsConfig",
    "PerfRecorder",
    "PerfTimer",
    "PlatformBuilder",
    "ResultStore",
    "Scenario",
    "ScenarioResult",
    "SweepMonitor",
    "TimerConfig",
    "UncacheableScenarioError",
    "Workload",
    "WorkloadError",
    "WorkloadRegistry",
    "WritePolicy",
    "as_workload",
    "bench_json_path",
    "drive",
    "expand_grid",
    "load_bench_entries",
    "render_timeline",
    "results_table",
    "run_scenario",
    "run_tasks",
    "scenario_grid",
    "single_memory_testbench",
    "workload",
    "write_csv",
    "write_json",
    "write_timeseries_csv",
    "write_timeseries_json",
    "write_trace",
]
