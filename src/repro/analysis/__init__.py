"""Analysis helpers: the ledger comparator, trace views and the dashboard.

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
                       "format_comparison"],
    "..obs.export": ["chrome_trace", "write_trace"],
    "..obs.timeline": ["longest_spans", "render_timeline"],
    "..api.scenario": ["expand_grid"],
    ".serve": ["DashboardData"],
})

__all__ = [
    "DashboardData",
    "chrome_trace",
    "compare_bench_entries",
    "compare_bench_files",
    "expand_grid",
    "format_comparison",
    "longest_spans",
    "render_timeline",
    "write_trace",
]
