"""Platform builder: assembles PEs, interconnect and shared memories.

:class:`Platform` turns a :class:`~repro.soc.config.PlatformConfig` into a
ready-to-run module hierarchy:

* one interconnect (shared bus or crossbar),
* ``num_memories`` dynamic memory modules (host-backed wrappers or the
  fully-modelled baseline), each mapped in its own address window,
* ``num_pes`` task processors, each with one master port and one
  :class:`~repro.wrapper.api.SharedMemoryAPI` per memory,
* optionally a per-cycle "idle ticker" that evaluates every memory module
  each clock cycle, reproducing the cost structure of cycle-driven
  co-simulation kernels.

Typical use::

    config = PlatformConfig(num_pes=4, num_memories=1)
    platform = Platform(config)
    platform.add_task(make_fir_task(samples, taps))   # round-robin placement
    report = platform.run()
    print(report.summary())

This module imports what every platform has — kernel, shared bus, wrapper,
task processor.  The layers a configuration may or may not select (crossbar,
mesh, partitioned mesh, modelled memory, L1 caches, devices, sanitizers,
observability) are imported by :func:`load_layers`, from the configuration,
and :class:`Platform` instantiates them only from what it returns: a bus +
wrapper run never compiles the mesh or the cache.
"""

from __future__ import annotations

import time as _wallclock
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Union

from ..interconnect.bus import SharedBus
from ..kernel import Event, Module, Probes, Simulator
from ..memory.host_memory import HostMemory
from ..memory.protocol import REGISTER_WINDOW_BYTES
from ..sw.registry import workload as _registry
from ..sw.task_processor import TaskProcessor
from ..wrapper.api import SharedMemoryAPI
from ..wrapper.shared_memory import SharedMemoryWrapper
from .config import InterconnectKind, MemoryKind, PlatformConfig
from .stats import SimulationReport

if TYPE_CHECKING:
    from ..cache.coherence import CoherenceDomain
    from ..cache.l1 import L1Cache
    from ..check.suite import SanitizerSuite
    from ..dev.dma import DmaEngine
    from ..dev.irq import InterruptController
    from ..dev.peripheral import RegisterFilePeripheral
    from ..dev.timer import TimerPeripheral
    from ..memory.modeled_dynamic_memory import ModeledDynamicMemory
    from ..noc.partitioned import BoundaryRuntime, PartitionContext
    from ..obs.suite import ObsSuite
    from ..sw.task import TaskFunction

    DynamicMemory = Union[SharedMemoryWrapper, ModeledDynamicMemory]


def load_layers(config: PlatformConfig, workload: object = None,
                partitioned: bool = False) -> SimpleNamespace:
    """Import the optional layers ``config`` selects (and the module of the
    registry workload named ``workload``); returns the layers' classes.

    The one place that decides which modules a configuration needs.
    :class:`Platform` builds its optional parts from the namespace returned
    here, and the two fork sites (``ExperimentRunner._run_sharded``, the
    PDES coordinator) call it in the parent before the first fork, so every
    worker inherits the modules it will run instead of importing the
    simulator again.
    """
    layers = SimpleNamespace()

    def use(*classes: type) -> None:
        for cls in classes:
            setattr(layers, cls.__name__, cls)

    if isinstance(workload, str) and workload in _registry:
        _registry.get(workload)
    if partitioned:
        from ..noc.partitioned import BoundaryRuntime, PartitionedMeshNoc
        use(BoundaryRuntime, PartitionedMeshNoc)
    elif config.interconnect is InterconnectKind.MESH:
        from ..noc.mesh import MeshNoc
        use(MeshNoc)
    if config.interconnect is InterconnectKind.CROSSBAR:
        from ..interconnect.crossbar import Crossbar
        use(Crossbar)
    if config.memory_kind is not MemoryKind.WRAPPER:
        from ..memory.modeled_dynamic_memory import ModeledDynamicMemory
        use(ModeledDynamicMemory)
    if config.cache is not None:
        from ..cache.coherence import CoherenceDomain
        from ..cache.l1 import L1Cache
        use(CoherenceDomain, L1Cache)
    if config.devices:
        from ..dev.dma import DmaEngine
        from ..dev.irq import InterruptController, IrqClient
        from ..dev.timer import TimerPeripheral
        use(DmaEngine, InterruptController, IrqClient, TimerPeripheral)
    if config.check is not None:
        from ..check.suite import SanitizerSuite
        use(SanitizerSuite)
    if config.obs is not None:
        from ..obs.suite import ObsSuite
        use(ObsSuite)
    return layers


class MemoryIdleTicker(Module):
    """Evaluates platform modules once per clock cycle (cycle-driven mode).

    Cycle-driven co-simulation kernels (GEZEL, plain SystemC RTL) evaluate
    every hardware module on every clock edge whether or not it has work to
    do.  This module reproduces that cost structure: each simulated cycle it
    performs ``work_units`` host-work units per memory module (the wrapper
    FSM input evaluation) and, optionally, ``pe_work_units`` per processing
    element (the ISS stepping one instruction/cycle).  The paper's
    "degradation of simulation speed" when adding shared memories comes
    exactly from the memory part of this per-cycle cost.
    """

    def __init__(self, name: str, memories: List[DynamicMemory], period: int,
                 work_units: int, processors: Optional[List[TaskProcessor]] = None,
                 pe_work_units: int = 0,
                 parent: Optional[Module] = None) -> None:
        super().__init__(name, parent)
        self.memories = memories
        self.period = period
        self.work_units = max(0, work_units)
        self.processors = processors if processors is not None else []
        self.pe_work_units = max(0, pe_work_units)
        self.ticks = 0
        self._sink = 0
        self._ticks_flushed = 0
        self.add_process(self._run, name="tick")

    def _spin(self, units: int) -> None:
        sink = self._sink
        for _ in range(units):
            sink = (sink * 33 + 1) & 0xFFFFFFFF
        self._sink = sink

    def _run(self):
        # Per-cycle hot loop: the work *units* are the model (one unit of
        # host work per module evaluation, as a cycle-driven kernel would
        # perform); bindings and unit totals are hoisted so the plumbing
        # around them costs as little as possible.  No simulated time passes
        # within a tick, so the per-module spins fold into one call, and the
        # per-module idle-cycle *bookkeeping* (counters only, no modelled
        # work) is batch-flushed in :meth:`end_of_simulation`.
        period = self.period
        spin = self._spin
        units_per_tick = (self.work_units * len(self.memories)
                          + self.pe_work_units * len(self.processors))
        while True:
            yield period
            self.ticks += 1
            if units_per_tick:
                spin(units_per_tick)

    def end_of_simulation(self) -> None:
        """Flush the accumulated idle-cycle counts into every memory.

        One batched ``account_idle_cycles`` per memory stands for one idle
        evaluation per tick; the final counter values are identical.
        """
        new_ticks = self.ticks - self._ticks_flushed
        if not new_ticks:
            return
        self._ticks_flushed = self.ticks
        for memory in self.memories:
            account = getattr(memory, "account_idle_cycles", None)
            if account is not None:
                account(new_ticks)


class Platform:
    """A complete MPSoC co-simulation platform built from a configuration.

    With ``partition`` set (a :class:`~repro.noc.partitioned.PartitionContext`
    built by :mod:`repro.pdes`), the platform becomes one shard of a
    partitioned (PDES) run: the mesh is built partition-aware, tasks whose
    PE lives in another partition are skipped, and the kernel windows are
    driven by the PDES coordinator instead of :meth:`run`.
    """

    def __init__(self, config: PlatformConfig,
                 host: Optional[HostMemory] = None,
                 partition: Optional[PartitionContext] = None) -> None:
        self.config = config
        #: The optional layers this configuration selects, already imported.
        self._layers = load_layers(config, partitioned=partition is not None)
        self.top = Module(config.name)
        #: The one instrumentation hook surface, handed to every emitter
        #: (simulator, fabric, interrupt controller, DMA engines, task
        #: contexts); every point stays ``None`` unless a suite subscribes.
        self.probes = Probes()
        self.host = host if host is not None else HostMemory()
        #: PDES shard identity (``None`` on an ordinary sequential platform).
        self.partition = partition
        self.boundary: Optional[BoundaryRuntime] = (
            self._layers.BoundaryRuntime(partition)
            if partition is not None else None
        )
        self.interconnect = self._build_interconnect()
        self.memories: List[DynamicMemory] = [
            self._build_memory(index) for index in range(config.num_memories)
        ]
        for index, memory in enumerate(self.memories):
            self.interconnect.attach_slave(
                f"smem{index}", config.memory_base(index), REGISTER_WINDOW_BYTES,
                memory,
            )
            if config.monitor_memories:
                self.interconnect.monitor(memory, f"smem{index}.monitor")
        #: One L1 cache per PE plus their coherence domain (``config.cache``).
        self.caches: List[L1Cache] = []
        self.coherence: Optional[CoherenceDomain] = None
        #: Window base address -> memory index (shared by the coherence
        #: domain's bus snooper and every per-PE cache shim).
        self._windows = {config.memory_base(index): index
                         for index in range(config.num_memories)}
        if config.cache is not None:
            self.coherence = self._layers.CoherenceDomain()
            self.coherence.attach_interconnect(self.interconnect,
                                               self._windows)
        #: Bus-attached devices (``config.devices``), window-ordered.
        self.devices: List[RegisterFilePeripheral] = []
        self.irq_controller: Optional[InterruptController] = None
        self.dma_engines: List[DmaEngine] = []
        self.timers: List[TimerPeripheral] = []
        self._device_layout = config.device_layout()
        if self._device_layout is not None:
            self._build_devices(self._device_layout)
        #: Runtime sanitizers (``config.check``), timing-transparent.
        self.check_suite: Optional[SanitizerSuite] = (
            self._layers.SanitizerSuite(config.check)
            if config.check is not None else None)
        #: Observability (``config.obs``), timing-transparent.
        self.obs: Optional[ObsSuite] = (
            self._layers.ObsSuite(config.obs, config.clock_period)
            if config.obs is not None else None)
        #: The suites this platform runs with: attached to :attr:`probes`
        #: by :meth:`prepare_run`, finished by :meth:`finalize`.
        self._suites = [suite for suite in (self.check_suite, self.obs)
                        if suite is not None]
        self.processors: List[TaskProcessor] = []
        #: Global PE index of each entry of :attr:`processors` (in a
        #: partitioned shard the two differ: foreign PEs are skipped).
        self.pe_indices: List[int] = []
        #: Next default placement slot — counts *global* PE slots, so a
        #: partitioned shard assigns the same indices as the sequential run.
        self._pe_cursor = 0
        self._pending_tasks: List[TaskFunction] = []
        self.ticker: Optional[MemoryIdleTicker] = None
        if config.idle_tick_memories:
            self.ticker = MemoryIdleTicker(
                "mem_ticker", self.memories, config.clock_period,
                config.idle_tick_work, processors=self.processors,
                pe_work_units=config.pe_tick_work, parent=self.top,
            )
        self.simulator: Optional[Simulator] = None
        self._stop_event: Optional[Event] = None

    # -- construction helpers ---------------------------------------------------------
    def _build_interconnect(self):
        config = self.config
        arbitration = config.arbitration_spec()
        if config.interconnect is InterconnectKind.MESH:
            if self.partition is not None:
                return self._layers.PartitionedMeshNoc(
                    "noc", period=config.clock_period,
                    config=config.resolved_noc(),
                    arbitration=arbitration, parent=self.top,
                    partition=self.partition, runtime=self.boundary,
                    probes=self.probes,
                )
            return self._layers.MeshNoc(
                "noc", period=config.clock_period,
                config=config.resolved_noc(), arbitration=arbitration,
                parent=self.top, probes=self.probes)
        if config.interconnect is InterconnectKind.CROSSBAR:
            return self._layers.Crossbar(
                "xbar", period=config.clock_period,
                arbitration_cycles=config.arbitration_cycles,
                arbitration=arbitration, parent=self.top, probes=self.probes)
        return SharedBus("bus", period=config.clock_period,
                         arbitration_cycles=config.arbitration_cycles,
                         arbitration=arbitration, parent=self.top,
                         probes=self.probes)

    def _build_memory(self, index: int) -> DynamicMemory:
        config = self.config
        if config.memory_kind is MemoryKind.WRAPPER:
            return SharedMemoryWrapper(
                capacity_bytes=config.memory_capacity_bytes,
                sm_addr=index,
                host=self.host,
                delays=config.wrapper_delays,
                endianness=config.endianness,
                base_vptr=0,
                name=f"smem{index}",
            )
        capacity = config.memory_capacity_bytes or (1 << 20)
        return self._layers.ModeledDynamicMemory(
            size_bytes=capacity,
            sm_addr=index,
            endianness=config.endianness,
            latency=config.modeled_latency,
            name=f"smem{index}",
        )

    def _build_devices(self, layout) -> None:
        """Instantiate and attach every device slot of the resolved layout."""
        config = self.config
        controller = self._layers.InterruptController(
            layout.controller.name, num_pes=config.num_pes,
            lines=layout.controller.config.lines, parent=self.top,
            probes=self.probes,
        )
        self.irq_controller = controller
        built = {layout.controller.name: controller}
        for slot in layout.slots:
            if slot.kind == "dma":
                port = self.interconnect.master_port(slot.master_id,
                                                     name=slot.name)
                apis = [
                    SharedMemoryAPI(
                        port,
                        base_address=config.memory_base(mem_index),
                        sm_addr=mem_index,
                        raise_on_error=False,
                        tag_prefix=f"{slot.name}.smem{mem_index}",
                    )
                    for mem_index in range(config.num_memories)
                ]
                built[slot.name] = self._layers.DmaEngine(
                    slot.name, port, apis, controller, slot.irq_line,
                    burst_words=slot.config.burst_words, parent=self.top,
                    probes=self.probes,
                )
            elif slot.kind == "timer":
                built[slot.name] = self._layers.TimerPeripheral(
                    slot.name, controller, slot.irq_line,
                    clock_period=config.clock_period,
                    compare_cycles=slot.config.compare_cycles,
                    periodic=slot.config.periodic,
                    auto_start=slot.config.auto_start,
                    parent=self.top,
                )
        for slot in layout.slots:
            device = built[slot.name]
            self.devices.append(device)
            self.interconnect.attach_slave(slot.name, slot.base,
                                           device.window_bytes(), device)
        self.dma_engines = [built[slot.name] for slot in layout.dmas]
        self.timers = [built[slot.name] for slot in layout.timers]

    # -- task placement ------------------------------------------------------------------
    def add_task(self, task: TaskFunction, pe_index: Optional[int] = None,
                 start_delay_cycles: int = 0, name: Optional[str] = None
                 ) -> Optional[TaskProcessor]:
        """Place ``task`` on a processing element (round-robin by default).

        On a partitioned shard, a task whose PE belongs to another
        partition is skipped (the slot still advances, so placement is
        identical across shards) and ``None`` is returned.
        """
        if pe_index is None:
            pe_index = (self._pe_cursor if self.partition is not None
                        else len(self.processors))
        if pe_index >= self.config.num_pes:
            raise ValueError(
                f"PE index {pe_index} out of range (platform has "
                f"{self.config.num_pes} PEs)"
            )
        if self.partition is not None:
            self._pe_cursor = max(self._pe_cursor, pe_index + 1)
            if not self.partition.owns_pe(pe_index):
                return None
        port = self.interconnect.master_port(pe_index, name=f"pe{pe_index}")
        if self.coherence is not None:
            assert self.config.cache is not None
            cache = self._layers.L1Cache(
                f"pe{pe_index}.l1", self.config.cache, port, self.coherence,
                self._windows, self.config.clock_period,
            )
            self.caches.append(cache)
            port = cache.port
        apis = [
            SharedMemoryAPI(
                port,
                base_address=self.config.memory_base(mem_index),
                sm_addr=mem_index,
                tag_prefix=f"pe{pe_index}.smem{mem_index}",
            )
            for mem_index in range(self.config.num_memories)
        ]
        irq = (self._layers.IrqClient(self.irq_controller, pe_index)
               if self.irq_controller is not None else None)
        processor = TaskProcessor(
            name or f"pe{pe_index}",
            port,
            apis,
            task,
            clock_period=self.config.clock_period,
            cost_model=self.config.cost_model,
            start_delay_cycles=start_delay_cycles,
            parent=self.top,
            irq=irq,
            devices=self._device_layout,
            probes=self.probes,
        )
        self.processors.append(processor)
        self.pe_indices.append(pe_index)
        return processor

    def add_tasks(self, tasks: List[TaskFunction]) -> List[TaskProcessor]:
        """Place one task per PE, in order (skipping foreign PEs on a
        partitioned shard)."""
        placed = [self.add_task(task) for task in tasks]
        return [processor for processor in placed if processor is not None]

    # -- execution ----------------------------------------------------------------------------
    def prepare_run(self) -> Simulator:
        """Create the simulator and attach the check/obs suites to the
        probe bus (processors, caches and simulator all exist by now).

        Split out of :meth:`run` so the PDES partition driver
        (:mod:`repro.pdes.partition`) can own the kernel windows itself.
        """
        if not self.processors and self.partition is None:
            raise RuntimeError("no tasks were added to the platform")
        self.simulator = Simulator(self.top, probes=self.probes)
        for suite in self._suites:
            suite.attach(self)
        return self.simulator

    def finalize(self) -> None:
        """End-of-simulation module callbacks, then every suite's finish."""
        assert self.simulator is not None
        self.simulator.finalize()
        for suite in self._suites:
            suite.finish(self.simulator.now)

    def finish_run(self, wallclock_seconds: float) -> SimulationReport:
        """End-of-simulation callbacks plus the report (counterpart of
        :meth:`prepare_run`)."""
        self.finalize()
        return self._build_report(wallclock_seconds)

    def run(self, max_time: Optional[int] = None) -> SimulationReport:
        """Simulate until every PE finishes (or ``max_time`` elapses)."""
        if self.config.partitions > 1 and self.partition is None:
            raise RuntimeError(
                "this configuration requests partitioned (PDES) execution; "
                "run it through repro.pdes.run_partitioned() or the "
                "scenario runner (repro.api.run_scenario), which dispatch "
                "automatically"
            )
        self.prepare_run()
        wall_start = _wallclock.perf_counter()
        if self.ticker is None and max_time is None and not self.devices:
            # Pure event-driven run: ends when no activity remains.
            self.simulator.run()
        else:
            # The ticker (or a free-running timer device) keeps the event
            # queue busy forever, so run in slices
            # until every PE finished (or the optional deadline passes).
            slice_time = 50_000 * self.config.clock_period
            deadline = max_time
            while True:
                remaining = None if deadline is None else deadline - self.simulator.now
                if remaining is not None and remaining <= 0:
                    break
                step = slice_time if remaining is None else min(slice_time, remaining)
                self.simulator.run(step)
                if all(p.finished for p in self.processors):
                    break
                if not self.simulator.pending_activity:
                    break
            # run(step) clamps to the slice boundary (sc_start semantics);
            # if everything drained before the deadline, the report should
            # end at the actual finish time, not the padded boundary.
            self.simulator.trim_to_last_activity()
        wallclock = _wallclock.perf_counter() - wall_start
        return self.finish_run(wallclock)

    def _build_report(self, wallclock_seconds: float) -> SimulationReport:
        assert self.simulator is not None
        # The fabric emits the uniform counters (per-master columns,
        # utilization, latency percentiles, arbitration grants), any
        # topology block (the mesh's "noc" section) and the monitored
        # memories' traffic columns, for every topology.
        interconnect_stats = self.interconnect.interconnect_stats(
            self.simulator.now)
        if self.coherence is not None:
            interconnect_stats["coherence"] = self.coherence.stats.as_dict()
        memory_reports = []
        for memory in self.memories:
            if isinstance(memory, SharedMemoryWrapper):
                memory_reports.append(memory.report())
            else:
                memory_reports.append({
                    "name": memory.name,
                    "live_allocations": memory.live_count(),
                    "used_bytes": memory.used_bytes(),
                    "heap_accesses": memory.heap_accesses(),
                    "op_counts": {op.name: count
                                  for op, count in memory.op_counts.items()},
                })
        return SimulationReport(
            description=self.config.describe(),
            simulated_time=self.simulator.now,
            clock_period=self.config.clock_period,
            wallclock_seconds=wallclock_seconds,
            kernel_stats=self.simulator.stats.as_dict(),
            pe_reports=[p.report() for p in self.processors],
            memory_reports=memory_reports,
            interconnect_stats=interconnect_stats,
            cache_reports=[cache.report() for cache in self.caches],
            device_reports=[device.report() for device in self.devices],
            sanitizer_reports=(self.check_suite.reports
                               if self.check_suite is not None else []),
            timeseries=(self.obs.timeseries if self.obs is not None else []),
            obs_summary=(self.obs.summary() if self.obs is not None else None),
            results={p.name: p.stats.result for p in self.processors},
            finished={p.name: p.finished for p in self.processors},
        )

