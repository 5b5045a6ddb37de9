"""Analysis helpers: evaluation metrics, perf-file diffs and sweeps.

Trace analysis (Perfetto export, text timelines, longest-span digests)
lives in :mod:`repro.obs`; the conversion entry points are re-exported
here so analysis scripts have one import surface.  The sweep observatory
(:mod:`repro.analysis.serve`) exposes a persisted
:class:`~repro.store.ResultStore` over HTTP and an offline ``query``
CLI — run ``python -m repro.analysis.serve --help``.
"""

from .bench_compare import (
    compare_bench_entries,
    compare_bench_files,
    format_comparison,
    regressions,
)
from .metrics import (
    cycles_per_operation,
    degradation,
    geometric_mean,
    harmonic_mean,
    overhead,
    percent,
    speedup,
    summarize,
)
from ..obs.export import chrome_trace, write_trace
from ..obs.timeline import longest_spans, render_timeline
from .sweep import best_point, expand_grid, sweep_table


def __getattr__(name):
    # Lazy: ``python -m repro.analysis.serve`` must not find the module
    # pre-imported (runpy would warn and execute a second copy).
    if name == "DashboardData":
        from .serve import DashboardData
        return DashboardData
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
