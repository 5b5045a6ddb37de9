"""One partition of a PDES run: a platform shard plus its kernel windows.

:class:`PartitionSim` owns one :class:`~repro.soc.platform.Platform`
built with a :class:`~repro.noc.partitioned.PartitionContext`, and drives
its simulator in epoch-bounded windows for its worker's round loop:

* :meth:`advance` runs the kernel up to a horizon the horizon rule proved
  safe, delivering inbound boundary flits at exactly their cut-latency
  delivery times, and reports the outbox sorted by owning partition plus
  the partition's next activity time (the "null message" of PDES);
* :meth:`finish` trims the clock back to the last real activity (the
  multi-window equivalent of the sequential
  :meth:`~repro.kernel.simulator.Simulator.trim_to_last_activity`) and
  harvests a picklable :class:`PartitionPayload` of raw statistics for
  the merge stage.

Raw objects (``BusStats``, latency arrays, ``NocStats``) are shipped
instead of the rendered report block so the merged report can rebuild
the exact sequential ``interconnect_stats`` shape with no re-parsing.
"""

from __future__ import annotations

import heapq
import time as _wallclock
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fabric.stats import BusStats
from ..noc.partitioned import BoundaryFlit
from ..noc.stats import NocStats
from .plan import PartitionPlan


@dataclass
class PartitionPayload:
    """Everything one partition reports at the end of a run (picklable)."""

    index: int
    pes: Tuple[int, ...]
    memories: Tuple[int, ...]
    simulated_time: int
    kernel_stats: Dict[str, float]
    wallclock_seconds: float
    boundary_sent: int
    boundary_received: int
    #: Host time spent exchanging window messages with the peers.
    sync_wait_seconds: float = 0.0
    #: ``(global_pe_index, report_dict, result, finished, name)`` per
    #: owned processor.
    pe_rows: List[Tuple[int, dict, object, bool, str]] = field(
        default_factory=list)
    #: ``(memory_index, report_dict)`` per owned memory.
    memory_rows: List[Tuple[int, dict]] = field(default_factory=list)
    #: ``(memory_index, monitor_block)`` per owned monitored memory.
    monitor_rows: List[Tuple[int, dict]] = field(default_factory=list)
    bus_stats: BusStats = field(default_factory=BusStats)
    latencies: array = field(default_factory=lambda: array("q"))
    grant_counts: Dict[int, int] = field(default_factory=dict)
    arbitration_kind: str = "round_robin"
    noc_stats: NocStats = field(default_factory=NocStats)
    #: Full-mesh port count (both networks) — the utilization denominator.
    ports_total: int = 0
    trace_events: Optional[list] = None
    trace_dropped: int = 0
    trace_filtered: int = 0
    timeseries: List[dict] = field(default_factory=list)
    obs_summary: Optional[dict] = None


class PartitionSim:
    """Builds and drives one partition's platform shard."""

    def __init__(self, scenario, plan: PartitionPlan, index: int) -> None:
        # Deferred imports: repro.api imports this package's coordinator
        # lazily and vice versa (the scenario layer sits above the soc
        # layer, this module is instantiated by both sides of the pipe).
        from ..api.runner import _build_seeded_workload
        from ..soc.platform import Platform

        self.scenario = scenario
        self.plan = plan
        self.index = index
        self.context = plan.context(index, scenario.config.clock_period)
        bundle = _build_seeded_workload(scenario)
        self.platform = Platform(scenario.config, partition=self.context)
        self.platform.add_tasks(bundle.tasks)
        self.sim = self.platform.prepare_run()
        self.sim.elaborate()
        #: Inbound flits not yet delivered, as ``(*sort_key, flit)`` heap
        #: entries — the deterministic delivery order.
        self._pending: List[Tuple[int, int, int, BoundaryFlit]] = []
        #: Time of the last window in which the kernel did real work; the
        #: final clock trims back to this (windows pad ``now`` to their
        #: horizon exactly like ``sc_start`` pads to its deadline).
        self._last_real_time = 0
        self.wallclock = 0.0
        #: Host seconds its worker's round loop spent in peer exchanges.
        self.sync_wait = 0.0

    # -- round-loop protocol ----------------------------------------------------
    def next_activity(self) -> Optional[int]:
        """Earliest time anything can happen here (``None`` = drained).

        Folds the undelivered inbound flits into the kernel's own bound,
        so the horizon rule stays sound with no per-partition delivery
        queues to track.
        """
        bound = self.sim.next_activity_time()
        if self._pending:
            head = self._pending[0][0]
            bound = head if bound is None else min(bound, head)
        return bound

    def advance(self, horizon: int, inbound: List[BoundaryFlit]
                ) -> Tuple[List[List[BoundaryFlit]], Optional[int],
                           Optional[int]]:
        """Simulate up to ``horizon``, delivering ``inbound`` on the way.

        The horizon rule guarantees no other partition can affect this one
        before ``horizon``; deliveries happen exactly when simulated time
        reaches each flit's ``deliver_time`` (flits due *at* the horizon
        are enqueued and wake their port process in the next window, at
        the same timestamp).  Returns the window's outbox sorted by owning
        partition, the earliest ``deliver_time`` in it (``None`` when it
        is empty) and :meth:`next_activity`.
        """
        start = _wallclock.perf_counter()
        for flit in inbound:
            heapq.heappush(self._pending, (*flit.sort_key(), flit))
        sim = self.sim
        noc = self.platform.interconnect
        pending = self._pending
        while True:
            while pending and pending[0][0] <= sim.now:
                noc.deliver(heapq.heappop(pending)[3])
            target = horizon
            if pending and pending[0][0] < target:
                target = pending[0][0]
            if target < sim.now:
                target = sim.now
            deltas_before = sim.stats.delta_cycles
            # run_until(now) is run(0): it still flushes the delta queue,
            # so flits delivered at the horizon are processed at their
            # exact timestamp before the window closes.
            sim.run_until(target)
            if sim.stats.delta_cycles != deltas_before:
                # Real work happened in this window: remember where it
                # ended (run() resets last_activity_time every call).
                self._last_real_time = sim.last_activity_time
            if sim.now >= horizon and not (pending
                                           and pending[0][0] <= sim.now):
                break
        outboxes: List[List[BoundaryFlit]] = [
            [] for _ in range(self.plan.partitions)]
        earliest = None
        for flit in self.platform.boundary.drain():
            # The flit's next port key names the node it enters; that
            # node's owner is the destination partition.
            node = flit.packet.path[flit.packet.hop][1]
            outboxes[self.plan.node_owner[node]].append(flit)
            if earliest is None or flit.deliver_time < earliest:
                earliest = flit.deliver_time
        self.wallclock += _wallclock.perf_counter() - start
        return outboxes, earliest, self.next_activity()

    def finish(self) -> PartitionPayload:
        """Trim the clock, run end-of-simulation hooks, harvest stats."""
        start = _wallclock.perf_counter()
        sim = self.sim
        platform = self.platform
        if (not sim.pending_activity and not self._pending
                and sim.now > self._last_real_time):
            sim.now = self._last_real_time
            sim.stats.end_time = self._last_real_time
        platform.finalize()
        self.wallclock += _wallclock.perf_counter() - start

        noc = platform.interconnect
        owned_memories = self.plan.memories_of(self.index)
        payload = PartitionPayload(
            index=self.index,
            pes=self.plan.pes_of(self.index),
            memories=owned_memories,
            simulated_time=sim.now,
            kernel_stats=sim.stats.as_dict(),
            wallclock_seconds=self.wallclock,
            boundary_sent=platform.boundary.sent,
            boundary_received=platform.boundary.received,
            sync_wait_seconds=self.sync_wait,
            bus_stats=noc.stats,
            latencies=noc._latencies,
            grant_counts=noc.merged_grant_counts(),
            arbitration_kind=noc.arbitration.kind,
            noc_stats=noc.noc_stats,
            ports_total=sum(len(net) for net in noc._nets.values()),
        )
        for processor, pe_index in zip(platform.processors,
                                       platform.pe_indices):
            payload.pe_rows.append((pe_index, processor.report(),
                                    processor.stats.result,
                                    processor.finished, processor.name))
        # Every memory is registered, in index order; only owned ones serve.
        monitors = noc.monitor_stats()
        for memory_index in owned_memories:
            payload.memory_rows.append(
                (memory_index, platform.memories[memory_index].report()))
            if monitors:
                payload.monitor_rows.append(
                    (memory_index, monitors[memory_index]))
        if platform.obs is not None:
            if platform.obs.trace is not None:
                payload.trace_events = list(platform.obs.trace.events)
                payload.trace_dropped = platform.obs.trace.dropped
                payload.trace_filtered = platform.obs.trace.filtered
            payload.timeseries = list(platform.obs.timeseries)
            payload.obs_summary = platform.obs.summary()
        return payload
