"""Periodic metrics time-series over the platform's counters.

:class:`MetricsSampler` snapshots counter *deltas* every
``interval_ps`` of simulated time — bus/link utilization, cache
hit-rate, runnable-queue depth, IRQ pending mask, per-master
outstanding transactions — into columnar rows surfaced as
``SimulationReport.timeseries``.

The sampler is **passive**: rather than scheduling a kernel timer (which
would add timed steps and process activations, breaking the
bit-identical guarantee, and would keep the event queue alive on the
pure event-driven run path), it is *driven from the observability hook
points*.  Each observation calls :meth:`tick`; every interval boundary
crossed since the previous observation emits one row, stamped at the
boundary time, using the platform state at the first observation at or
past that boundary.  Discrete-event state only changes at observable
events, so for every counter that advances through the fabric hooks the
rows are exactly what a synchronous timer would have sampled — without
the timer.  The run's tail past the last boundary is flushed as a final
partial row by ``ObsSuite.finish``.
"""

from __future__ import annotations

import csv
import json
from typing import Callable, Dict, List, Optional

from .trace import TraceCollector

#: Columns every row carries before the counter/gauge columns.
TIME_COLUMNS = ("t_ps", "t_cycles")


class MetricsSampler:
    """Boundary-crossing sampler building the metrics time-series.

    ``sample_deltas`` returns the current *cumulative* counter values
    (the sampler differences consecutive snapshots); ``sample_gauges``
    returns instantaneous values copied into the row as-is.
    """

    def __init__(self, interval_ps: int, clock_period: int,
                 sample_deltas: Callable[[], Dict[str, float]],
                 sample_gauges: Callable[[], Dict[str, float]],
                 derive: Optional[Callable[[dict, int], None]] = None,
                 collector: Optional[TraceCollector] = None) -> None:
        if interval_ps <= 0:
            raise ValueError("interval_ps must be positive")
        if clock_period <= 0:
            raise ValueError("clock_period must be positive")
        self.interval_ps = interval_ps
        self.clock_period = clock_period
        self._sample_deltas = sample_deltas
        self._sample_gauges = sample_gauges
        #: Optional ``derive(row, elapsed_ps)`` adding derived columns
        #: (utilization, hit rate) after the deltas are in place.
        self._derive = derive
        self._collector = collector
        self._previous: Dict[str, float] = {}
        self._last_stamp = 0
        self._next_boundary = interval_ps
        self.rows: List[dict] = []

    # -- sampling -----------------------------------------------------------------------
    def tick(self, now: int) -> None:
        """Observe the platform at simulated time ``now``.

        Emits one row per interval boundary crossed since the last
        observation; a no-op while ``now`` stays within the current
        interval, so calling it from every hook is cheap.
        """
        while self._next_boundary <= now:
            self._emit_row(self._next_boundary)
            self._next_boundary += self.interval_ps

    def flush(self, now: int) -> None:
        """Emit remaining boundaries up to ``now`` plus the partial tail."""
        self.tick(now)
        if now > self._last_stamp:
            self._emit_row(now)

    def _emit_row(self, stamp: int) -> None:
        current = self._sample_deltas()
        row = {"t_ps": stamp, "t_cycles": stamp // self.clock_period}
        for key, value in current.items():
            row[key] = value - self._previous.get(key, 0)
        self._previous = current
        row.update(self._sample_gauges())
        if self._derive is not None:
            self._derive(row, stamp - self._last_stamp)
        self._last_stamp = stamp
        self.rows.append(row)
        if self._collector is not None:
            values = {key: value for key, value in row.items()
                      if key not in TIME_COLUMNS}
            self._collector.counter("platform", "metrics", stamp,
                                    ("metrics", "counters"), values)


# -- writers ----------------------------------------------------------------------------
def row_columns(rows: List[dict]) -> List[str]:
    """Union of row keys, first-seen order (sparse columns render blank)."""
    return list(dict.fromkeys(key for row in rows for key in row))


def write_rows_csv(rows: List[dict], path: str) -> str:
    """Write dict rows as CSV under the :func:`row_columns` header."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=row_columns(rows),
                                restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_timeseries_csv(rows: List[dict], path: str) -> str:
    """Write ``SimulationReport.timeseries`` rows as CSV."""
    return write_rows_csv(rows, path)


def write_timeseries_json(rows: List[dict], path: str, *,
                          indent: int = 2) -> str:
    """Write ``SimulationReport.timeseries`` rows as JSON."""
    payload = {
        "schema": "repro.obs.timeseries/v1",
        "count": len(rows),
        "columns": row_columns(rows),
        "rows": rows,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent)
        handle.write("\n")
    return path
