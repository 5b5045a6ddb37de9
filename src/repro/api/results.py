"""Structured result output: tables, JSON and CSV writers.

The experiment runner hands back :class:`ScenarioResult` objects; these
helpers render them for humans (:func:`results_table`) or persist them for
downstream tooling (:func:`write_json`, :func:`write_csv`) — replacing the
bespoke printing loops of the evaluation benches.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

from ..obs.metrics import row_columns, write_rows_csv
from ..soc.stats import format_table
from .scenario import ScenarioResult


def results_table(results: Iterable[ScenarioResult],
                  columns: Optional[List[str]] = None) -> str:
    """Aligned text table over the flat rows of every result."""
    rows = [result.row() for result in results]
    return format_table(rows, row_columns(rows) if columns is None else columns)


def write_json(results: Sequence[ScenarioResult], path: str, *,
               indent: int = 2) -> str:
    """Write the full structured results (reports included) as JSON."""
    payload = {
        "schema": "repro.api.results/v1",
        "count": len(results),
        "passed": sum(1 for result in results if result.passed),
        "results": [result.as_dict() for result in results],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, default=str)
        handle.write("\n")
    return path


def write_csv(results: Sequence[ScenarioResult], path: str) -> str:
    """Write the flat result rows as CSV (one line per scenario)."""
    return write_rows_csv([result.row() for result in results], path)
