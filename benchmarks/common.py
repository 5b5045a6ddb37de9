"""Shared helpers for the evaluation benches.

Every bench regenerates one row/figure of the paper's evaluation; its
module docstring states the claim it checks, and README.md ("Tests and
benchmarks", "Performance") says how to run them.  Results are printed and
also written to ``benchmarks/results/<bench>.txt`` so they survive
pytest's output capturing; what each scenario *simulated* is recorded
through :func:`ledger`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def emit(bench_name: str, text: str) -> None:
    """Print a result block and persist it under ``benchmarks/results/``."""
    banner = f"\n===== {bench_name} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{bench_name}.txt"), "w") as handle:
        handle.write(banner)


def ledger(bench_name: str, request):
    """The :class:`~repro.api.PerfRecorder` this run's rows belong in.

    ``--quick`` rows are the committed ledger (``BENCH_kernel.json``, or
    wherever ``REPRO_BENCH_JSON`` points), which CI regenerates and
    compares exactly.  A full-size run simulates larger workloads under
    some of the same scenario names, so its rows go to a git-ignored file
    of their own: one key never names two experiments.
    """
    from repro.api import PerfRecorder

    if request.config.getoption("--quick"):
        return PerfRecorder(bench_name)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return PerfRecorder(
        bench_name, path=os.path.join(RESULTS_DIR, "BENCH_kernel.full.json"))


def format_rows(rows: List[Dict[str, object]], columns: Optional[List[str]] = None
                ) -> str:
    """Aligned text table (thin wrapper over the library formatter)."""
    from repro.soc import format_table

    return format_table(rows, columns)
