"""Analysis helpers: evaluation metrics, perf-file diffs and sweeps.

Trace analysis (Perfetto export, text timelines, longest-span digests)
lives in :mod:`repro.obs`; the conversion entry points are re-exported
here so analysis scripts have one import surface.  The sweep observatory
(:mod:`repro.analysis.serve`) exposes a persisted
:class:`~repro.store.ResultStore` over HTTP and an offline ``query``
CLI — run ``python -m repro.analysis.serve --help``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bench_compare": ["compare_bench_entries", "compare_bench_files",
                       "format_comparison", "regressions"],
    ".metrics": ["cycles_per_operation", "degradation", "geometric_mean",
                 "harmonic_mean", "overhead", "percent", "speedup",
                 "summarize"],
    "..obs.export": ["chrome_trace", "write_trace"],
    "..obs.timeline": ["longest_spans", "render_timeline"],
    ".sweep": ["best_point", "sweep_table"],
    "..api.scenario": ["expand_grid"],
    ".serve": ["DashboardData"],
})

__all__ = [
    "DashboardData",
    "best_point",
    "chrome_trace",
    "compare_bench_entries",
    "compare_bench_files",
    "cycles_per_operation",
    "degradation",
    "expand_grid",
    "format_comparison",
    "regressions",
    "geometric_mean",
    "harmonic_mean",
    "longest_spans",
    "overhead",
    "percent",
    "render_timeline",
    "speedup",
    "summarize",
    "sweep_table",
    "write_trace",
]
