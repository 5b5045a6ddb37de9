"""The observability suite: one subscriber of the platform's probe bus.

:class:`ObsSuite` is the platform-facing façade over the three heads
(:class:`~repro.obs.trace.TraceCollector`,
:class:`~repro.obs.metrics.MetricsSampler`,
:class:`~repro.obs.hostprof.HostProfiler`).  :meth:`ObsSuite.attach`
(called once, from ``Platform.prepare_run``) reads processors, caches,
interrupt controller and simulator off the platform and subscribes to
its :class:`~repro.kernel.probes.Probes` bus: ``port_issue`` /
``port_complete`` for transactions, ``irq_raise`` / ``irq_wait`` /
``irq_claim``, ``dma_begin`` / ``dma_end``, and ``task_span`` for the
phases workloads annotate with ``ctx.span``.

Everything here is strictly read-only with respect to the simulation:
the suite never notifies events, never creates processes, and never
consumes simulated time, so enabling observability leaves simulated
time and the golden scheduler counters bit-identical (enforced by
``tests/obs/test_obs_bit_identical.py``).

Track layout (``(group, lane)`` pairs, mapped to Perfetto pid/tid by the
exporter):

* ``("pes", <pe name>)`` — task-execution span, ``ctx.span`` phase
  annotations, IRQ wait spans and claim instants of one PE;
* ``("fabric", <port name>)`` — transaction spans per master port
  (issue→complete, named ``<op> <slave>`` after the region the fabric
  decoded; cache fill/writeback/restage traffic is categorised ``cache``);
* ``("devices", <device name>)`` — DMA transfer spans and IRQ raise
  instants;
* ``("metrics", "counters")`` — the sampler's counter track.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..fabric.transaction import BusOp, cache_transfer_kind
from .config import ObsConfig
from .hostprof import HostProfiler
from .metrics import MetricsSampler
from .trace import TraceCollector, TraceEvent


class ObsSuite:
    """Collects timeline events, metrics rows and host-time buckets."""

    def __init__(self, config: ObsConfig, clock_period: int) -> None:
        self.config = config
        self.clock_period = clock_period
        self.trace: Optional[TraceCollector] = (
            TraceCollector(max_events=config.max_events,
                           categories=config.categories)
            if config.trace else None)
        self.host: Optional[HostProfiler] = (
            HostProfiler() if config.host_profile else None)
        self.sampler: Optional[MetricsSampler] = None
        if config.metrics_interval_cycles:
            self.sampler = MetricsSampler(
                interval_ps=config.metrics_interval_cycles * clock_period,
                clock_period=clock_period,
                sample_deltas=self._sample_deltas,
                sample_gauges=self._sample_gauges,
                derive=self._derive_row,
                collector=self.trace,
            )
        #: In-flight transactions: id(request) -> issue timestamp.  Keyed
        #: per request (not per master) because coherence writebacks can
        #: ride a holder's port while that PE's own transfer is in flight.
        self._issue_times: Dict[int, int] = {}
        #: Per-master-port outstanding transaction counts (gauge).
        self._outstanding: Dict[str, int] = {}
        #: pe_id -> IRQ wait-begin timestamp (open wait spans).
        self._irq_waits: Dict[int, int] = {}
        #: engine name -> DMA transfer-begin (timestamp, programmed count).
        self._dma_starts: Dict[str, Tuple[int, int]] = {}
        #: (op is a write, slave region name) -> fabric span name; keyed
        #: by a bool, not the op, whose enum hash is a Python call.
        self._span_names: Dict[Tuple[bool, str], str] = {}

    # -- wiring -------------------------------------------------------------------------
    def attach(self, platform) -> None:
        """Read the built platform and subscribe to its probe bus.

        Called once from ``Platform.prepare_run``, when processors, caches
        and simulator all exist.
        """
        self.interconnect = platform.interconnect
        #: The clock (``simulator.now``, in picoseconds), the runnable-depth
        #: gauge and the host-profile attribution.
        self.simulator = platform.simulator
        self._processors = platform.processors
        #: pe_id -> PE track lane.
        self._pe_lanes = {processor.context.pe_id: processor.name
                          for processor in platform.processors}
        #: Caches feed the sampler's hit-rate columns.
        self._caches = platform.caches
        self._controller = platform.irq_controller
        if self.host is not None:
            self.host.install(platform.simulator)
        platform.probes.subscribe(
            port_issue=self.on_port_issue,
            port_complete=self.on_port_complete,
            irq_raise=self.irq_raised,
            irq_wait=self.irq_wait_begin,
            irq_claim=self.irq_claimed,
            dma_begin=self.dma_begin,
            dma_end=self.dma_end,
            task_span=self.task_span,
        )

    def _observe(self, now: int) -> None:
        """Per-probe bookkeeping shared by every observation point."""
        if self.sampler is not None:
            self.sampler.tick(now)
        if self.host is not None:
            self.host.observe()

    # -- fabric probes ------------------------------------------------------------------
    def on_port_issue(self, port, request) -> None:
        now = self.simulator.now
        self._issue_times[id(request)] = now
        self._outstanding[port.name] = self._outstanding.get(port.name, 0) + 1
        self._observe(now)

    def on_port_complete(self, port, request, response) -> None:
        now = self.simulator.now
        issued = self._issue_times.pop(id(request), now)
        held = self._outstanding.get(port.name, 0)
        if held:
            self._outstanding[port.name] = held - 1
        if self.trace is not None:
            tag = request.tag or ""
            name = cache_transfer_kind(tag)
            if name is not None:
                cat = "cache"
            else:
                # Named by the region the fabric decoded: no decode here.
                region = request.region
                slave = region.name if region is not None else "?"
                cat = "fabric"
                key = (request.op is BusOp.WRITE, slave)
                name = self._span_names.get(key)
                if name is None:
                    name = self._span_names[key] = \
                        f"{request.op.value} {slave}"
            args = {"addr": f"{request.address:#x}",
                    "words": request.word_count, "ok": response.ok}
            if tag:
                args["tag"] = tag
            self.trace.emit(TraceEvent("X", name, cat, issued,
                                       ("fabric", port.name), now - issued,
                                       args))
        self._observe(now)

    # -- interrupt probes ---------------------------------------------------------------
    def irq_raised(self, mask: int) -> None:
        now = self.simulator.now
        if self.trace is not None:
            self.trace.instant("irq raise", "irq", now,
                               ("devices", "irq"), mask=f"{mask:#x}")
        self._observe(now)

    def irq_wait_begin(self, pe_id: int) -> None:
        now = self.simulator.now
        self._irq_waits[pe_id] = now
        self._observe(now)

    def irq_claimed(self, pe_id: int, mask: int) -> None:
        now = self.simulator.now
        lane = self._pe_lanes.get(pe_id, f"pe{pe_id}")
        began = self._irq_waits.pop(pe_id, now)
        if self.trace is not None:
            self.trace.complete("irq wait", "wait", began, now - began,
                                ("pes", lane), mask=f"{mask:#x}")
            self.trace.instant("irq claim", "irq", now, ("pes", lane),
                               mask=f"{mask:#x}")
        self._observe(now)

    # -- DMA probes ---------------------------------------------------------------------
    def dma_begin(self, engine, count: int) -> None:
        now = self.simulator.now
        self._dma_starts[engine.name] = (now, count)
        self._observe(now)

    def dma_end(self, engine, ok: bool, words_done: int) -> None:
        now = self.simulator.now
        began, count = self._dma_starts.pop(engine.name, (now, 0))
        if self.trace is not None:
            self.trace.complete("dma transfer", "dma", began, now - began,
                                ("devices", engine.name), count=count,
                                words=words_done, ok=ok)
        self._observe(now)

    # -- task-side spans ----------------------------------------------------------------
    def task_span(self, context, name: str, began: int, ended: int) -> None:
        """A ``ctx.span`` workload phase annotation closing at ``ended``."""
        if self.trace is not None:
            self.trace.complete(name, "task", began, ended - began,
                                ("pes", context.name))
        self._observe(ended)

    # -- metrics providers --------------------------------------------------------------
    def _sample_deltas(self) -> Dict[str, float]:
        stats = self.interconnect.stats
        data = {"bus_transactions": stats.transactions,
                "bus_busy_cycles": stats.busy_cycles}
        hits = misses = fills = writebacks = 0
        for cache in self._caches:
            hits += cache.stats.hits + cache.stats.array_hits
            misses += cache.stats.misses + cache.stats.array_misses
            fills += cache.stats.fills
            writebacks += cache.stats.writebacks
        if self._caches:
            data.update(cache_hits=hits, cache_misses=misses,
                        cache_fills=fills, cache_writebacks=writebacks)
        noc = getattr(self.interconnect, "noc_stats", None)
        if noc is not None:
            for name in sorted(noc.links):
                data[f"link[{name}]"] = noc.links[name].busy_cycles
        return data

    def _sample_gauges(self) -> Dict[str, float]:
        gauges: Dict[str, float] = {}
        gauges["runnable"] = self.simulator.runnable_depth
        if self._controller is not None:
            gauges["irq_pending"] = self._controller.pending_mask
        gauges["outstanding"] = sum(self._outstanding.values())
        for name in sorted(self._outstanding):
            gauges[f"outstanding[{name}]"] = self._outstanding[name]
        return gauges

    def _derive_row(self, row: dict, elapsed_ps: int) -> None:
        elapsed_cycles = elapsed_ps // self.clock_period
        if elapsed_cycles > 0:
            row["bus_utilization"] = round(
                min(1.0, row["bus_busy_cycles"] / elapsed_cycles), 4)
        lookups = row.get("cache_hits", 0) + row.get("cache_misses", 0)
        if "cache_hits" in row:
            row["cache_hit_rate"] = (round(row["cache_hits"] / lookups, 4)
                                     if lookups else 0.0)

    # -- run boundary -------------------------------------------------------------------
    def finish(self, now: int) -> None:
        """End of run: close task spans, flush the sampler's tail."""
        if self.trace is not None:
            for processor in self._processors:
                stats = processor.stats
                ended = stats.finished_at
                finished = ended is not None
                if ended is None:
                    ended = now
                self.trace.complete(
                    "task", "task", stats.started_at,
                    ended - stats.started_at, ("pes", processor.name),
                    finished=finished,
                    compute_cycles=processor.context.compute_cycles)
        if self.sampler is not None:
            self.sampler.flush(now)
        if self.host is not None:
            self.host.finish()

    # -- reporting ----------------------------------------------------------------------
    @property
    def timeseries(self) -> List[dict]:
        """The sampler's rows (empty when the metrics head is off)."""
        return self.sampler.rows if self.sampler is not None else []

    def summary(self) -> dict:
        """Per-head summary for ``SimulationReport.obs_summary``."""
        summary: dict = {"config": self.config.describe()}
        if self.trace is not None:
            summary["trace"] = self.trace.summary()
        if self.sampler is not None:
            summary["metrics_rows"] = len(self.sampler.rows)
        if self.host is not None:
            summary["host_profile"] = {
                name: round(seconds, 6)
                for name, seconds in self.host.report().items()}
        return summary
