"""Fluent platform builder wrapping :class:`~repro.soc.config.PlatformConfig`.

The builder is the declarative front door for composing platforms::

    config = (PlatformBuilder()
              .pes(4)
              .crossbar()
              .wrapper_memories(2)
              .cycle_driven(memory_work=4, pe_work=12)
              .build())

Every method stages one aspect of the configuration and returns the builder,
so platform descriptions read as a single expression.  :meth:`build`
validates the staged values (on top of ``PlatformConfig``'s own invariant
checks) and returns a plain :class:`PlatformConfig`; :meth:`build_platform`
additionally instantiates the :class:`~repro.soc.platform.Platform`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

from ..cache.geometry import CacheConfig, CacheError, CacheGeometry, WritePolicy
from ..check.config import CheckConfig
from ..dev.config import DmaConfig, IrqControllerConfig, TimerConfig
from ..fabric import canonical_kind
from ..memory.latency import LatencyModel
from ..memory.protocol import Endianness
from ..noc.config import NocConfig
from ..obs.config import ObsConfig
from ..soc.config import (
    ArbitrationKind,
    InterconnectKind,
    MemoryKind,
    PlatformConfig,
)
from ..sw.instruction_costs import ARM7_LIKE, FAST_CORE, CostModel
from ..wrapper.delays import WrapperDelays

#: Named wrapper-delay presets accepted by :meth:`PlatformBuilder.delays`.
DELAY_PRESETS = {
    "default": WrapperDelays,
    "sram": WrapperDelays.sram_like,
    "sdram": WrapperDelays.sdram_like,
}

#: Named cost models accepted by :meth:`PlatformBuilder.cost_model`.
COST_MODELS = {
    "arm7": ARM7_LIKE,
    "fast": FAST_CORE,
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(PlatformConfig)}


class BuilderError(ValueError):
    """Raised when the builder is given inconsistent or invalid values."""


class PlatformBuilder:
    """Composable, validating front end for :class:`PlatformConfig`."""

    def __init__(self, base: Optional[PlatformConfig] = None) -> None:
        self._overrides: Dict[str, object] = {}
        if base is not None:
            if not isinstance(base, PlatformConfig):
                raise BuilderError(
                    f"base must be a PlatformConfig, got {type(base).__name__}"
                )
            # Shallow per-field copy (asdict() would recursively turn nested
            # dataclasses like WrapperDelays into plain dicts).
            self._overrides.update(
                {f.name: getattr(base, f.name)
                 for f in dataclasses.fields(base)}
            )

    @classmethod
    def from_config(cls, config: PlatformConfig) -> "PlatformBuilder":
        """A builder pre-seeded with every field of ``config``."""
        return cls(base=config)

    # -- staging helpers -----------------------------------------------------------
    def _set(self, **fields: object) -> "PlatformBuilder":
        self._overrides.update(fields)
        return self

    def _positive_int(self, value: object, what: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise BuilderError(f"{what} must be a positive integer, got {value!r}")
        return value

    # -- topology ----------------------------------------------------------------------
    def pes(self, count: int) -> "PlatformBuilder":
        """Number of processing elements."""
        return self._set(num_pes=self._positive_int(count, "PE count"))

    def memories(self, count: int,
                 kind: Union[MemoryKind, str] = MemoryKind.WRAPPER
                 ) -> "PlatformBuilder":
        """Number of dynamic shared memories and their model."""
        if isinstance(kind, str):
            try:
                kind = MemoryKind(kind)
            except ValueError:
                raise BuilderError(
                    f"unknown memory kind {kind!r}; use one of "
                    f"{[k.value for k in MemoryKind]}"
                ) from None
        return self._set(num_memories=self._positive_int(count, "memory count"),
                         memory_kind=kind)

    def wrapper_memories(self, count: int) -> "PlatformBuilder":
        """``count`` host-backed wrapper memories (the paper's model)."""
        return self.memories(count, MemoryKind.WRAPPER)

    def modeled_memories(self, count: int) -> "PlatformBuilder":
        """``count`` fully-modelled baseline memories."""
        return self.memories(count, MemoryKind.MODELED)

    def capacity(self, capacity_bytes: Optional[int]) -> "PlatformBuilder":
        """Simulated capacity per memory (``None`` = unlimited wrapper)."""
        if capacity_bytes is not None:
            self._positive_int(capacity_bytes, "memory capacity")
        return self._set(memory_capacity_bytes=capacity_bytes)

    # -- interconnect -----------------------------------------------------------------
    def crossbar(self, arbitration_cycles: Optional[int] = None
                 ) -> "PlatformBuilder":
        """Use the crossbar interconnect."""
        self._set(interconnect=InterconnectKind.CROSSBAR)
        if arbitration_cycles is not None:
            self._set(arbitration_cycles=arbitration_cycles)
        return self

    def mesh(self, rows: Optional[int] = None, cols: Optional[int] = None,
             *, flit_bytes: int = 4, link_cycles: int = 1,
             router_cycles: int = 1, buffer_packets: int = 2,
             memory_nodes: Optional[tuple] = None,
             pe_nodes: Optional[tuple] = None) -> "PlatformBuilder":
        """Use the packet-switched 2D-mesh NoC interconnect.

        ``rows``/``cols`` default to a near-square mesh sized for the
        platform; the remaining knobs are the link width (bytes per flit),
        link/router pipeline latencies in cycles, the per-port input
        buffer depth (packets) and optional explicit node placements.
        """
        try:
            noc = NocConfig(
                rows=rows, cols=cols, flit_bytes=flit_bytes,
                link_cycles=link_cycles, router_cycles=router_cycles,
                buffer_packets=buffer_packets,
                memory_nodes=(tuple(memory_nodes)
                              if memory_nodes is not None else None),
                pe_nodes=tuple(pe_nodes) if pe_nodes is not None else None,
            )
        except ValueError as exc:
            raise BuilderError(f"invalid mesh description: {exc}") from exc
        return self._set(interconnect=InterconnectKind.MESH, noc=noc)

    def partitions(self, count: int,
                   epoch_cycles: Optional[int] = None) -> "PlatformBuilder":
        """Partitioned (PDES) execution: shard the mesh into ``count``
        spatial partitions, each simulated by its own worker process.

        ``count`` must be a power of two (1 disables partitioning);
        ``epoch_cycles`` overrides the conservative-sync window — the
        modelled latency of every boundary-crossing link.
        """
        count = self._positive_int(count, "partition count")
        if count & (count - 1):
            raise BuilderError(
                f"partition count must be a power of two, got {count}")
        if epoch_cycles is not None:
            self._positive_int(epoch_cycles, "epoch cycles")
        return self._set(partitions=count, pdes_epoch_cycles=epoch_cycles)

    def arbitration(self,
                    kind: Union[ArbitrationKind, str] = ArbitrationKind.ROUND_ROBIN,
                    *,
                    weights=None,
                    priority_order=None,
                    schedule=None) -> "PlatformBuilder":
        """Arbitration policy of every grant point of the interconnect.

        Works on every topology — the bus channel, each crossbar channel
        and each mesh slave server apply the same policy.  ``kind`` is an
        :class:`~repro.soc.config.ArbitrationKind` or its value string;
        the fabric aliases (``"priority"``, ``"weighted"``, ``"rr"``...)
        are accepted.  Optional parameters:

        * ``weights`` — weighted-RR grant budgets: a sequence indexed by
          master id, or a ``{master_id: weight}`` mapping (gaps get 1);
        * ``priority_order`` — fixed-priority order, most important first;
        * ``schedule`` — TDMA slot schedule of master ids.

        Unset parameters fall back to PE-count-derived defaults (see
        :meth:`~repro.soc.config.PlatformConfig.arbitration_spec`).
        """
        if isinstance(kind, str):
            try:
                kind = ArbitrationKind(canonical_kind(kind))
            except ValueError:
                raise BuilderError(
                    f"unknown arbitration {kind!r}; use one of "
                    f"{[k.value for k in ArbitrationKind]}"
                ) from None
        elif not isinstance(kind, ArbitrationKind):
            raise BuilderError(
                f"arbitration kind must be an ArbitrationKind or string, "
                f"got {type(kind).__name__}"
            )
        staged: Dict[str, object] = {"arbitration": kind}
        if weights is not None:
            if isinstance(weights, dict):
                if not weights:
                    raise BuilderError("arbitration weights must not be empty")
                if not all(isinstance(master, int)
                           and not isinstance(master, bool) and master >= 0
                           for master in weights):
                    raise BuilderError(
                        f"arbitration weight keys must be non-negative "
                        f"master ids, got {sorted(weights, key=repr)}"
                    )
                span = max(weights) + 1
                weights = tuple(weights.get(i, 1) for i in range(span))
            staged["arbitration_weights"] = tuple(weights)
        if priority_order is not None:
            staged["arbitration_priority"] = tuple(priority_order)
        if schedule is not None:
            staged["arbitration_schedule"] = tuple(schedule)
        return self._set(**staged)

    def shared_bus(self,
                   arbitration: Union[ArbitrationKind, str, None] = None,
                   arbitration_cycles: Optional[int] = None) -> "PlatformBuilder":
        """Use the shared bus, optionally selecting an arbitration policy.

        ``arbitration`` left unset keeps whatever :meth:`arbitration`
        staged (or the round-robin default); passing a value delegates to
        :meth:`arbitration`, so the same kinds and aliases are accepted.
        """
        self._set(interconnect=InterconnectKind.SHARED_BUS)
        if arbitration is not None:
            self.arbitration(arbitration)
        if arbitration_cycles is not None:
            self._set(arbitration_cycles=arbitration_cycles)
        return self

    # -- memory hierarchy --------------------------------------------------------------
    def l1_cache(self, sets: int = 64, ways: int = 2, line_bytes: int = 32,
                 policy: Union[WritePolicy, str] = WritePolicy.WRITE_BACK,
                 hit_cycles: int = 1) -> "PlatformBuilder":
        """Give every PE an L1 data cache (MSI-coherent across PEs).

        ``policy`` is a :class:`~repro.cache.geometry.WritePolicy` or its
        value string (``"write_back"`` / ``"write_through"``).
        """
        if isinstance(policy, str):
            try:
                policy = WritePolicy(policy)
            except ValueError:
                raise BuilderError(
                    f"unknown write policy {policy!r}; use one of "
                    f"{[p.value for p in WritePolicy]}"
                ) from None
        try:
            config = CacheConfig(
                geometry=CacheGeometry(sets=sets, ways=ways,
                                       line_bytes=line_bytes),
                policy=policy, hit_cycles=hit_cycles,
            )
        except CacheError as exc:
            raise BuilderError(f"invalid cache description: {exc}") from exc
        return self._set(cache=config)

    def no_cache(self) -> "PlatformBuilder":
        """Remove the L1 layer: the flat (bit-identical) PE -> bus model."""
        return self._set(cache=None)

    def monitored(self, enable: bool = True) -> "PlatformBuilder":
        """Keep a timing-transparent fabric traffic column per memory
        (per-memory transaction counts and latency percentiles in reports)."""
        return self._set(monitor_memories=bool(enable))

    # -- sanitizers ------------------------------------------------------------------
    def sanitize(self, *, race: bool = True, protocol: bool = True,
                 coherence: bool = True, max_reports: int = 32,
                 capture_stacks: bool = True) -> "PlatformBuilder":
        """Attach the simulation sanitizers (:mod:`repro.check`).

        Enables the happens-before data-race detector, the protocol
        checkers (lock leaks, reserve reentry, port lifecycle, register
        misuse) and — on cached platforms — the coherence invariant
        scanner.  Sanitizers are timing-transparent: simulated time and
        every kernel counter are identical with and without them.
        Findings land in ``report.sanitizer_reports``.
        """
        try:
            config = CheckConfig(race=race, protocol=protocol,
                                 coherence=coherence,
                                 max_reports=max_reports,
                                 capture_stacks=capture_stacks)
        except ValueError as exc:
            raise BuilderError(f"invalid sanitizer description: {exc}") from exc
        return self._set(check=config)

    def no_sanitize(self) -> "PlatformBuilder":
        """Detach every sanitizer (the default, zero-overhead platform)."""
        return self._set(check=None)

    # -- observability -----------------------------------------------------------------
    def _merge_obs(self, **changes: object) -> "PlatformBuilder":
        """Stage an :class:`ObsConfig`, merging into one already staged
        (so ``.trace().metrics(...)`` composes)."""
        staged = self._overrides.get("obs")
        base = staged if isinstance(staged, ObsConfig) else None
        fields = {
            "trace": base.trace if base else False,
            "metrics_interval_cycles": (base.metrics_interval_cycles
                                        if base else 0),
            "categories": base.categories if base else None,
            "max_events": base.max_events if base else 200_000,
            "host_profile": base.host_profile if base else False,
        }
        fields.update(changes)
        try:
            config = ObsConfig(**fields)
        except ValueError as exc:
            raise BuilderError(
                f"invalid observability description: {exc}") from exc
        return self._set(obs=config)

    def trace(self, *, categories: Optional[Sequence[str]] = None,
              max_events: int = 200_000,
              host_profile: bool = False) -> "PlatformBuilder":
        """Attach timeline tracing (:mod:`repro.obs`).

        Records per-PE task/wait spans, per-master fabric transactions,
        cache fills/writebacks, DMA bursts, IRQ edges and ``ctx.span``
        workload annotations in simulated time; export with
        :func:`repro.obs.write_trace` or ``python -m repro.obs.export``.
        ``categories`` filters at emission; ``max_events`` bounds the
        buffer (overflow counts as dropped).  Tracing is
        timing-transparent: simulated time and every kernel counter are
        identical with and without it.
        """
        return self._merge_obs(
            trace=True,
            categories=None if categories is None else tuple(categories),
            max_events=max_events, host_profile=host_profile)

    def metrics(self, interval_cycles: int = 1000) -> "PlatformBuilder":
        """Attach the metrics time-series sampler (:mod:`repro.obs`).

        Snapshots counter deltas (bus/link utilization, cache hit rate,
        runnable depth, IRQ pending mask, outstanding transactions) every
        ``interval_cycles`` simulated clock cycles into
        ``report.timeseries``.  Composes with :meth:`trace`.
        """
        self._positive_int(interval_cycles, "metrics interval cycles")
        return self._merge_obs(metrics_interval_cycles=interval_cycles)

    def no_obs(self) -> "PlatformBuilder":
        """Detach observability (the default, zero-hook platform)."""
        return self._set(obs=None)

    # -- devices ---------------------------------------------------------------------
    def _add_device(self, config: object) -> "PlatformBuilder":
        staged = tuple(self._overrides.get("devices", ()))
        return self._set(devices=staged + (config,))

    def irq_controller(self, lines: int = 32) -> "PlatformBuilder":
        """Attach the platform interrupt controller with ``lines`` IRQ lines.

        Optional when DMA engines or timers are declared — those imply a
        default controller — but explicit declaration controls the line
        count.
        """
        if any(isinstance(device, IrqControllerConfig)
               for device in self._overrides.get("devices", ())):
            raise BuilderError("the platform already has an interrupt "
                               "controller")
        try:
            return self._add_device(IrqControllerConfig(lines=lines))
        except ValueError as exc:
            raise BuilderError(str(exc)) from exc

    def dma(self, count: int = 1, burst_words: int = 64,
            irq_line: Optional[int] = None) -> "PlatformBuilder":
        """Attach ``count`` DMA engines (each its own fabric master).

        ``irq_line`` pins the completion line of a single engine; with
        ``count > 1`` lines are always auto-assigned.
        """
        self._positive_int(count, "DMA engine count")
        self._positive_int(burst_words, "DMA burst words")
        if count > 1 and irq_line is not None:
            raise BuilderError("irq_line only applies to a single DMA engine")
        builder = self
        for _ in range(count):
            builder = builder._add_device(
                DmaConfig(burst_words=burst_words, irq_line=irq_line))
        return builder

    def timer(self, compare_cycles: int = 1000, periodic: bool = False,
              auto_start: bool = False,
              irq_line: Optional[int] = None) -> "PlatformBuilder":
        """Attach one compare-match timer (IRQ on expiry)."""
        self._positive_int(compare_cycles, "timer compare cycles")
        return self._add_device(TimerConfig(
            compare_cycles=compare_cycles, periodic=bool(periodic),
            auto_start=bool(auto_start), irq_line=irq_line,
        ))

    def no_devices(self) -> "PlatformBuilder":
        """Drop every staged device: the device-free platform."""
        return self._set(devices=())

    # -- timing -----------------------------------------------------------------------
    def clock_period(self, period: int) -> "PlatformBuilder":
        """Clock period in kernel time units."""
        return self._set(clock_period=self._positive_int(period, "clock period"))

    def cycle_driven(self, memory_work: int = 4, pe_work: int = 12
                     ) -> "PlatformBuilder":
        """Cycle-driven co-simulation: every module evaluated every cycle.

        ``memory_work``/``pe_work`` are the host work units per cycle per
        memory wrapper FSM and per ISS, reproducing the cost structure the
        paper's speed-degradation experiment measures.
        """
        if memory_work < 0 or pe_work < 0:
            raise BuilderError("per-cycle work units must be >= 0")
        return self._set(idle_tick_memories=True, idle_tick_work=memory_work,
                         pe_tick_work=pe_work)

    def event_driven(self) -> "PlatformBuilder":
        """Pure event-driven simulation (modules evaluated on demand)."""
        return self._set(idle_tick_memories=False, pe_tick_work=0)

    # -- models --------------------------------------------------------------------------
    def delays(self, delays: Union[WrapperDelays, str]) -> "PlatformBuilder":
        """Wrapper FSM delay parameters, or a preset name (sram/sdram)."""
        if isinstance(delays, str):
            try:
                delays = DELAY_PRESETS[delays]()
            except KeyError:
                raise BuilderError(
                    f"unknown delay preset {delays!r}; use one of "
                    f"{sorted(DELAY_PRESETS)}"
                ) from None
        if not isinstance(delays, WrapperDelays):
            raise BuilderError(
                f"delays must be a WrapperDelays or preset name, got "
                f"{type(delays).__name__}"
            )
        return self._set(wrapper_delays=delays)

    def latency(self, model: LatencyModel) -> "PlatformBuilder":
        """Latency model of the fully-modelled baseline memories."""
        return self._set(modeled_latency=model)

    def endianness(self, order: Union[Endianness, str]) -> "PlatformBuilder":
        """Byte order of the simulated architecture."""
        if isinstance(order, str):
            try:
                order = Endianness(order)
            except ValueError:
                raise BuilderError(
                    f"unknown endianness {order!r}; use 'little' or 'big'"
                ) from None
        return self._set(endianness=order)

    def cost_model(self, model: Union[CostModel, str]) -> "PlatformBuilder":
        """Cost model of local PE computation, or a name (arm7/fast)."""
        if isinstance(model, str):
            try:
                model = COST_MODELS[model]
            except KeyError:
                raise BuilderError(
                    f"unknown cost model {model!r}; use one of "
                    f"{sorted(COST_MODELS)}"
                ) from None
        return self._set(cost_model=model)

    def address_map(self, base: int, stride: int) -> "PlatformBuilder":
        """Base address and stride of the memory windows on the bus."""
        if not isinstance(base, int) or isinstance(base, bool) or base < 0:
            raise BuilderError(
                f"base address must be a non-negative integer, got {base!r}"
            )
        return self._set(
            memory_base_address=base,
            memory_window_stride=self._positive_int(stride, "window stride"),
        )

    def named(self, name: str) -> "PlatformBuilder":
        """Name of the top module (shows up in reports)."""
        if not name or not isinstance(name, str):
            raise BuilderError("platform name must be a non-empty string")
        return self._set(name=name)

    def replace(self, **fields: object) -> "PlatformBuilder":
        """Escape hatch: stage raw ``PlatformConfig`` fields by name."""
        unknown = set(fields) - _CONFIG_FIELDS
        if unknown:
            raise BuilderError(
                f"unknown PlatformConfig field(s): {sorted(unknown)}"
            )
        return self._set(**fields)

    # -- terminal operations -------------------------------------------------------------
    def build(self) -> PlatformConfig:
        """Validate the staged values and produce the configuration."""
        try:
            return PlatformConfig(**self._overrides)
        except (TypeError, ValueError) as exc:
            raise BuilderError(f"invalid platform description: {exc}") from exc

    def build_platform(self, host=None):
        """Build the configuration and instantiate the platform."""
        from ..soc.platform import Platform

        return Platform(self.build(), host=host)

    def __repr__(self) -> str:
        staged = ", ".join(f"{k}={v!r}" for k, v in sorted(self._overrides.items()))
        return f"PlatformBuilder({staged})"
