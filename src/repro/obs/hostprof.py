"""Host wall-clock attribution per simulated process.

The simulator is single-threaded: between two consecutive observability
hook observations, the host CPU was (mostly) running the process that is
current at the second observation — its generator body, its bus
transfers, its cost-model arithmetic.  :class:`HostProfiler` exploits
that: each observation charges the wall-clock elapsed since the previous
one to the currently running process (or ``"kernel"`` when the hook
fires outside any process, e.g. during finalize).

The attribution is *sampled at the observation points*, so it is coarse:
host time spent in stretches that emit no observable events (a long
``compute`` burn resolves as a single timer wake) lands on the next
observed process.  That is accurate enough to answer the profiling
question — "which PE/program is the simulator spending its host time
on?" — without per-activation timestamping overhead.  Buckets are host
wall-clock and therefore not deterministic; they are reported in
``SimulationReport.obs_summary``, never in the trace event stream.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class HostProfiler:
    """Buckets host seconds per simulated process name."""

    def __init__(self) -> None:
        self.buckets: Dict[str, float] = {}
        self._last: Optional[float] = None
        self._simulator = None

    def install(self, simulator) -> None:
        """Start attributing; called when the platform run begins."""
        self._simulator = simulator
        self._last = time.perf_counter()

    def observe(self) -> None:
        """Charge the elapsed host time to the current process."""
        if self._last is None:
            return
        now = time.perf_counter()
        elapsed = now - self._last
        self._last = now
        process = self._simulator.current_process
        name = process.name if process is not None else "kernel"
        self.buckets[name] = self.buckets.get(name, 0.0) + elapsed

    def finish(self) -> None:
        """Final charge so trailing host time is not lost."""
        self.observe()
        self._last = None

    def report(self) -> Dict[str, float]:
        """Buckets sorted by descending host seconds."""
        return dict(sorted(self.buckets.items(),
                           key=lambda item: (-item[1], item[0])))
