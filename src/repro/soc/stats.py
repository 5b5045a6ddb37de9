"""Simulation-speed and platform-level statistics.

The paper's evaluation metric is *simulation speed*: how fast the host
machine advances simulated time (and how much that degrades when the
platform grows).  :class:`SimulationReport` gathers everything one platform
run produces — wall-clock time, simulated cycles, per-PE and per-memory
summaries — and :func:`speed_degradation` compares two runs the way the
paper's Section 4 does.

A report keeps what was simulated apart from what it cost.
:meth:`SimulationReport.observables` is the former: two runs of the same
simulation agree on it exactly, however the host got there.
:meth:`SimulationReport.cost` is the scheduler work (the kernel counters),
which a faster kernel may lower without simulating anything differently.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The entries of :meth:`SimulationReport.as_dict`, at any depth, that are
#: not simulated behaviour: host time, the scheduler counters that
#: :meth:`SimulationReport.cost` reports, the metrics time series'
#: ``runnable`` gauge (the kernel's runnable-queue depth), and the host
#: code locations (file paths, line numbers) of a sanitizer finding's
#: access sites.
NON_OBSERVABLE_KEYS = frozenset({"wallclock_seconds", "simulation_speed",
                                 "host_seconds", "sync_wait_seconds",
                                 "host_profile", "kernel_stats",
                                 "runnable", "traceback"})


def _observable(value: object) -> object:
    if isinstance(value, dict):
        return {key: _observable(item) for key, item in value.items()
                if key not in NON_OBSERVABLE_KEYS}
    if isinstance(value, list):
        return [_observable(item) for item in value]
    return value


@dataclass
class SimulationReport:
    """Results of one platform simulation run."""

    description: str
    simulated_time: int
    clock_period: int
    wallclock_seconds: float
    kernel_stats: Dict[str, float]
    pe_reports: List[dict] = field(default_factory=list)
    memory_reports: List[dict] = field(default_factory=list)
    interconnect_stats: Dict[str, float] = field(default_factory=dict)
    #: Per-PE L1 cache summaries (empty when the platform runs uncached).
    cache_reports: List[dict] = field(default_factory=list)
    #: Per-device summaries (interrupt controller, DMA engines, timers);
    #: empty on a device-free platform.
    device_reports: List[dict] = field(default_factory=list)
    #: Sanitizer findings of this run (``config.check``): one dict per
    #: report (see :meth:`repro.check.report.SanitizerReport.as_dict`);
    #: empty on a clean run and on unsanitized platforms.
    sanitizer_reports: List[dict] = field(default_factory=list)
    #: Metrics time-series rows of the :mod:`repro.obs` sampler
    #: (``config.obs.metrics_interval_cycles``): one columnar dict per
    #: sampling boundary; empty when the metrics head is off.
    timeseries: List[dict] = field(default_factory=list)
    #: Observability summary (event/drop counts, host-time buckets) from
    #: ``ObsSuite.summary()``; ``None`` on unobserved platforms.
    obs_summary: Optional[dict] = None
    results: Dict[str, object] = field(default_factory=dict)
    #: Per-PE completion flags: ``{pe_name: True/False}``.  A run that ends
    #: on ``max_time`` leaves unfinished PEs with ``False`` here and their
    #: ``results`` entry is ``None`` — check this instead of trusting a
    #: ``None`` result to mean "the task returned nothing".
    finished: Dict[str, bool] = field(default_factory=dict)
    #: Partitioned (PDES) execution breakdown — partition/epoch geometry,
    #: sync rounds, boundary-message counts and per-partition kernel stats
    #: (see :func:`repro.pdes.merge.merge_reports`).  ``None`` on ordinary
    #: sequential runs.
    pdes: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.finished:
            self.finished = {report["name"]: bool(report.get("finished"))
                             for report in self.pe_reports if "name" in report}

    # -- core metrics -----------------------------------------------------------
    @property
    def simulated_cycles(self) -> int:
        """Simulated clock cycles covered by the run."""
        return self.simulated_time // self.clock_period

    @property
    def simulation_speed(self) -> float:
        """Simulated cycles per host second (the paper's speed metric).

        ``float("inf")`` when the wall-clock resolution rounded the run's
        duration down to zero; JSON views serialise that as ``None``
        (see :meth:`simulation_speed_or_none`) because ``Infinity`` is not
        valid JSON.
        """
        if self.wallclock_seconds <= 0:
            return float("inf")
        return self.simulated_cycles / self.wallclock_seconds

    @property
    def simulation_speed_or_none(self) -> Optional[float]:
        """The speed metric, with non-finite values clamped to ``None``."""
        speed = self.simulation_speed
        return speed if math.isfinite(speed) else None

    @property
    def all_pes_finished(self) -> bool:
        """True when every processing element ran its task to completion."""
        if self.finished:
            return all(self.finished.values())
        return all(report.get("finished") for report in self.pe_reports)

    def total_api_calls(self) -> int:
        """Total shared-memory API calls issued by all PEs."""
        return sum(report.get("api_calls", 0) for report in self.pe_reports)

    def total_transactions(self) -> int:
        """Total interconnect transactions."""
        return int(self.interconnect_stats.get("transactions", 0))

    # -- cache metrics ----------------------------------------------------------
    def total_cache_hits(self) -> int:
        """Cache lookups served locally across every PE's L1 (the numerator
        of :meth:`cache_hit_rate`; absorbed array writes are not lookups)."""
        return sum(report.get("hits", 0) + report.get("array_hits", 0)
                   for report in self.cache_reports)

    def cache_hit_rate(self) -> float:
        """Aggregate L1 hit rate over all PEs (0.0 when caches are off)."""
        lookups = sum(report.get("hits", 0) + report.get("misses", 0)
                      + report.get("array_hits", 0)
                      + report.get("array_misses", 0)
                      for report in self.cache_reports)
        if not lookups:
            return 0.0
        return self.total_cache_hits() / lookups

    # -- formatting ----------------------------------------------------------------
    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"platform:        {self.description}",
            f"simulated time:  {self.simulated_time} ({self.simulated_cycles} cycles)",
            f"wall clock:      {self.wallclock_seconds:.3f} s",
            f"speed:           {self.simulation_speed:,.0f} cycles/s",
            f"transactions:    {self.total_transactions()}",
            f"API calls:       {self.total_api_calls()}",
            f"PEs finished:    {sum(1 for r in self.pe_reports if r.get('finished'))}"
            f"/{len(self.pe_reports)}",
        ]
        if self.cache_reports:
            lines.append(
                f"L1 caches:       {len(self.cache_reports)} x "
                f"{self.cache_reports[0].get('geometry', '?')} "
                f"({self.cache_reports[0].get('policy', '?')}), "
                f"hit rate {self.cache_hit_rate() * 100:.1f}%"
            )
        if self.device_reports:
            kinds = ", ".join(
                f"{report.get('name', '?')}({report.get('kind', '?')})"
                for report in self.device_reports
            )
            lines.append(f"devices:         {kinds}")
        if self.sanitizer_reports:
            by_checker: Dict[str, int] = {}
            for report in self.sanitizer_reports:
                checker = report.get("checker", "?")
                by_checker[checker] = by_checker.get(checker, 0) + 1
            breakdown = ", ".join(f"{count} {checker}" for checker, count
                                  in sorted(by_checker.items()))
            lines.append(f"sanitizers:      "
                         f"{len(self.sanitizer_reports)} report(s) "
                         f"({breakdown})")
        if self.obs_summary is not None:
            trace = self.obs_summary.get("trace")
            parts = [f"config {self.obs_summary.get('config', '?')}"]
            if trace:
                parts.append(f"{trace['events']} events "
                             f"({trace['dropped']} dropped)")
            if self.timeseries:
                parts.append(f"{len(self.timeseries)} metrics rows")
            lines.append(f"observability:   {', '.join(parts)}")
        if self.pdes is not None:
            lines.append(
                f"pdes:            {self.pdes.get('partitions')} partitions, "
                f"{self.pdes.get('epoch_cycles')}-cycle epochs, "
                f"{self.pdes.get('rounds')} rounds, "
                f"{self.pdes.get('boundary_messages')} boundary messages "
                f"({self.pdes.get('mode')})"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-serialisable) used by the benches.

        ``simulation_speed`` is clamped to ``None`` when the wall clock
        rounded to zero: ``float("inf")`` would serialise as the
        non-standard ``Infinity`` token most JSON parsers reject.
        """
        data = {
            "description": self.description,
            "simulated_time": self.simulated_time,
            "simulated_cycles": self.simulated_cycles,
            "wallclock_seconds": self.wallclock_seconds,
            "simulation_speed": self.simulation_speed_or_none,
            "kernel_stats": dict(self.kernel_stats),
            "interconnect_stats": dict(self.interconnect_stats),
            "pe_reports": list(self.pe_reports),
            "memory_reports": list(self.memory_reports),
            "cache_reports": list(self.cache_reports),
            "device_reports": list(self.device_reports),
            "sanitizer_reports": list(self.sanitizer_reports),
            "timeseries": list(self.timeseries),
            "obs_summary": self.obs_summary,
            "finished": dict(self.finished),
        }
        if self.pdes is not None:
            data["pdes"] = self.pdes
        return data

    def observables(self) -> dict:
        """:meth:`as_dict` without :data:`NON_OBSERVABLE_KEYS`: what two
        runs of the same simulation must agree on exactly."""
        return _observable(self.as_dict())

    def cost(self) -> Dict[str, int]:
        """The scheduler counters of the run (summed over partitions)."""
        # Deferred: sweep set-up imports this module but not the kernel.
        from ..kernel.simulator import SimulationStats
        return {counter: self.kernel_stats.get(counter, 0)
                for counter in SimulationStats.COUNTERS}

    def observables_sha256(self) -> str:
        """SHA-256 of :meth:`observables` as canonical JSON."""
        text = json.dumps(self.observables(), sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def speed_degradation(reference: SimulationReport, other: SimulationReport) -> float:
    """Relative simulation-speed degradation of ``other`` vs. ``reference``.

    Returns a fraction: 0.20 means ``other`` simulates 20% slower (the
    paper's headline number when going from one to four shared memories).
    Negative values mean ``other`` is faster.
    """
    if reference.simulation_speed <= 0:
        return 0.0
    return 1.0 - (other.simulation_speed / reference.simulation_speed)


def format_table(rows: List[Dict[str, object]], columns: Optional[List[str]] = None
                 ) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: max(len(str(col)), max(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row.get(col, "")).ljust(widths[col])
                               for col in columns))
    return "\n".join(lines)
