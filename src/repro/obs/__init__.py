"""repro.obs — unified observability: timeline tracing, metrics
time-series, and task-level profiling spans.

Three heads over one hook surface (see :class:`~repro.obs.config.ObsConfig`):

* :class:`TraceCollector` — typed spans/instants in simulated time,
  exported as Chrome trace-event / Perfetto JSON
  (``python -m repro.obs.export``) or a text timeline
  (:func:`render_timeline`);
* :class:`MetricsSampler` — periodic counter-delta rows surfaced as
  ``SimulationReport.timeseries`` with CSV/JSON writers;
* :class:`HostProfiler` — host wall-clock attribution per simulated
  process.

Enable via the builder (``PlatformBuilder().trace()``, ``.metrics(...)``)
or ``PlatformConfig(obs=ObsConfig(...))``.  Disabled (the default), the
platform installs zero hooks; enabled, the heads only observe — the
simulation's timing and scheduler counters stay bit-identical either way.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["TRACE_CATEGORIES", "ObsConfig"],
    ".hostprof": ["HostProfiler"],
    ".metrics": ["MetricsSampler", "write_timeseries_csv",
                 "write_timeseries_json"],
    ".suite": ["ObsSuite"],
    ".timeline": ["longest_spans", "render_timeline"],
    ".trace": ["TraceCollector", "TraceEvent"],
    ".export": ["chrome_trace", "write_trace"],
})

__all__ = [
    "TRACE_CATEGORIES",
    "ObsConfig",
    "ObsSuite",
    "TraceCollector",
    "TraceEvent",
    "MetricsSampler",
    "HostProfiler",
    "chrome_trace",
    "write_trace",
    "render_timeline",
    "longest_spans",
    "write_timeseries_csv",
    "write_timeseries_json",
]
