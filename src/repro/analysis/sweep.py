"""Sweep-point helpers: tables and best-point selection.

Sweeps themselves are built with :func:`repro.api.scenario_grid` and run
with :class:`repro.api.ExperimentRunner`; this module renders and ranks
the resulting :class:`~repro.soc.stats.SweepPoint` lists.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..api.scenario import expand_grid
from ..soc.stats import SimulationReport, SweepPoint, format_table

__all__ = ["best_point", "expand_grid", "sweep_table"]


def sweep_table(points: Iterable[SweepPoint],
                columns: Optional[List[str]] = None) -> str:
    """Render a list of sweep points as an aligned text table."""
    return format_table([point.row() for point in points], columns)


def best_point(points: Sequence[SweepPoint],
               key: Callable[[SimulationReport], float] = lambda r: r.simulation_speed
               ) -> SweepPoint:
    """The sweep point maximising ``key`` (default: simulation speed)."""
    if not points:
        raise ValueError("no sweep points given")
    return max(points, key=lambda point: key(point.report))
