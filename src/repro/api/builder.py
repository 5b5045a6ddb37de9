"""Fluent platform builder wrapping :class:`~repro.soc.config.PlatformConfig`.

The builder is the declarative front door for composing platforms::

    config = (PlatformBuilder()
              .pes(4)
              .crossbar()
              .wrapper_memories(2)
              .cycle_driven(memory_work=4, pe_work=12)
              .build())

The configs validate themselves: ``PlatformConfig`` and every layer config
(``NocConfig``, ``CacheConfig``, ``DmaConfig``...) check their own fields
in ``__post_init__``.  The builder only translates: each method parses
names (``"sdram"``, ``"fast"``, ``"write_back"``), stages one aspect of
the configuration and returns the builder, so a platform description
reads as a single expression.  Unknown names and invalid layer configs
raise at once; every other bad value surfaces from :meth:`build`, which
reports ``PlatformConfig``'s error as a :class:`BuilderError` and returns
the config (:meth:`build_platform` also instantiates the
:class:`~repro.soc.platform.Platform`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

from ..cache.geometry import CacheConfig, CacheGeometry, WritePolicy
from ..check.config import CheckConfig
from ..dev.config import DmaConfig, IrqControllerConfig, TimerConfig
from ..fabric.policy import check_kind
from ..memory.latency import LatencyModel
from ..memory.protocol import Endianness
from ..noc.config import NocConfig
from ..obs.config import ObsConfig
from ..soc.config import InterconnectKind, MemoryKind, PlatformConfig
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


class BuilderError(ValueError):
    """Raised when the builder is given inconsistent or invalid values."""


def _choice(value: object, choices, what: str) -> object:
    """The enum member or preset-table entry the name ``value`` selects;
    a value that is not a string passes through for ``PlatformConfig`` to
    type-check."""
    if not isinstance(value, str):
        return value
    try:
        return choices[value] if isinstance(choices, dict) else choices(value)
    except (KeyError, ValueError):
        names = (sorted(choices) if isinstance(choices, dict)
                 else [member.value for member in choices])
        raise BuilderError(
            f"unknown {what} {value!r}; use one of {names}") from None


def _make(cls: type, what: str, **fields: object) -> object:
    """``cls(**fields)``, with the layer config's ``ValueError`` reported
    as a :class:`BuilderError`."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise BuilderError(f"invalid {what} description: {exc}") from exc


class PlatformBuilder:
    """Composable front end for :class:`PlatformConfig`."""

    def __init__(self) -> None:
        self._overrides: Dict[str, object] = {}

    @classmethod
    def from_config(cls, config: PlatformConfig) -> "PlatformBuilder":
        """A builder pre-seeded with every field of ``config``."""
        if not isinstance(config, PlatformConfig):
            raise BuilderError(f"from_config needs a PlatformConfig, got "
                               f"{type(config).__name__}")
        # Per-field copy: asdict() would also turn nested dataclasses such
        # as WrapperDelays into plain dicts.
        return cls()._set(**{f.name: getattr(config, f.name)
                             for f in dataclasses.fields(config)})

    def _set(self, **fields: object) -> "PlatformBuilder":
        self._overrides.update(fields)
        return self

    # -- topology ----------------------------------------------------------------------
    def pes(self, count: int) -> "PlatformBuilder":
        """Number of processing elements."""
        return self._set(num_pes=count)

    def memories(self, count: int,
                 kind: Union[MemoryKind, str] = MemoryKind.WRAPPER
                 ) -> "PlatformBuilder":
        """Number of dynamic shared memories and their model."""
        return self._set(num_memories=count,
                         memory_kind=_choice(kind, MemoryKind, "memory kind"))

    def wrapper_memories(self, count: int) -> "PlatformBuilder":
        """``count`` host-backed wrapper memories (the paper's model)."""
        return self.memories(count, MemoryKind.WRAPPER)

    def modeled_memories(self, count: int) -> "PlatformBuilder":
        """``count`` fully-modelled baseline memories."""
        return self.memories(count, MemoryKind.MODELED)

    def capacity(self, capacity_bytes: Optional[int]) -> "PlatformBuilder":
        """Simulated capacity per memory (``None`` = unlimited wrapper)."""
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
        noc = _make(
            NocConfig, "mesh", rows=rows, cols=cols, flit_bytes=flit_bytes,
            link_cycles=link_cycles, router_cycles=router_cycles,
            buffer_packets=buffer_packets,
            memory_nodes=(tuple(memory_nodes)
                          if memory_nodes is not None else None),
            pe_nodes=tuple(pe_nodes) if pe_nodes is not None else None,
        )
        return self._set(interconnect=InterconnectKind.MESH, noc=noc)

    def partitions(self, count: int,
                   epoch_cycles: Optional[int] = None) -> "PlatformBuilder":
        """Partitioned (PDES) execution: shard the mesh into ``count``
        spatial partitions, each simulated by its own worker process.

        ``count`` must be a power of two (1 disables partitioning);
        ``epoch_cycles`` overrides the conservative-sync window — the
        modelled latency of every boundary-crossing link.
        """
        return self._set(partitions=count, pdes_epoch_cycles=epoch_cycles)

    def arbitration(self, kind: str = "round_robin", *,
                    weights=None,
                    priority_order=None,
                    schedule=None) -> "PlatformBuilder":
        """Arbitration policy of every grant point of the interconnect.

        Works on every topology — the bus channel, each crossbar channel
        and each mesh slave's channel apply the same policy.  ``kind`` is
        one of :data:`~repro.fabric.policy.POLICY_KINDS`.  Optional
        parameters:

        * ``weights`` — weighted-RR grant budgets: a sequence indexed by
          master id, or a ``{master_id: weight}`` mapping (gaps get 1);
        * ``priority_order`` — fixed-priority order, most important first;
        * ``schedule`` — TDMA slot schedule of master ids.

        Unset parameters fall back to PE-count-derived defaults (see
        :meth:`~repro.soc.config.PlatformConfig.arbitration_spec`).
        """
        try:
            check_kind(kind)
        except ValueError as exc:
            raise BuilderError(str(exc)) from None
        staged: Dict[str, object] = {"arbitration": kind}
        if weights is not None:
            if isinstance(weights, dict):
                if not weights or not all(
                        isinstance(master, int) and not isinstance(master, bool)
                        and master >= 0 for master in weights):
                    raise BuilderError(
                        f"arbitration weights must not be empty and their "
                        f"keys must be non-negative master ids, got "
                        f"{sorted(weights, key=repr)}")
                weights = tuple(weights.get(i, 1)
                                for i in range(max(weights) + 1))
            staged["arbitration_weights"] = tuple(weights)
        if priority_order is not None:
            staged["arbitration_priority"] = tuple(priority_order)
        if schedule is not None:
            staged["arbitration_schedule"] = tuple(schedule)
        return self._set(**staged)

    def shared_bus(self,
                   arbitration: Optional[str] = None,
                   arbitration_cycles: Optional[int] = None) -> "PlatformBuilder":
        """Use the shared bus, optionally selecting an arbitration policy.

        ``arbitration`` left unset keeps whatever :meth:`arbitration`
        staged (or the round-robin default); passing a value delegates to
        :meth:`arbitration`, so the same kinds are accepted.
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
        geometry = _make(CacheGeometry, "cache", sets=sets, ways=ways,
                         line_bytes=line_bytes)
        return self._set(cache=_make(
            CacheConfig, "cache", geometry=geometry,
            policy=_choice(policy, WritePolicy, "write policy"),
            hit_cycles=hit_cycles))

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
        return self._set(check=_make(
            CheckConfig, "sanitizer", race=race, protocol=protocol,
            coherence=coherence, max_reports=max_reports,
            capture_stacks=capture_stacks))

    def no_sanitize(self) -> "PlatformBuilder":
        """Detach every sanitizer (the default, zero-overhead platform)."""
        return self._set(check=None)

    # -- observability -----------------------------------------------------------------
    def _merge_obs(self, **changes: object) -> "PlatformBuilder":
        """Stage an :class:`ObsConfig`, merging into one already staged
        (so ``.trace().metrics(...)`` composes)."""
        staged = self._overrides.get("obs")
        fields = (dict(vars(staged)) if isinstance(staged, ObsConfig)
                  else {"trace": False})
        fields.update(changes)
        return self._set(obs=_make(ObsConfig, "observability", **fields))

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
        # ObsConfig reads 0 as "metrics off"; asking for metrics means >= 1.
        if (not isinstance(interval_cycles, int)
                or isinstance(interval_cycles, bool) or interval_cycles < 1):
            raise BuilderError(f"metrics interval must be a positive "
                               f"integer, got {interval_cycles!r}")
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
        return self._add_device(
            _make(IrqControllerConfig, "interrupt controller", lines=lines))

    def dma(self, count: int = 1, burst_words: int = 64,
            irq_line: Optional[int] = None) -> "PlatformBuilder":
        """Attach ``count`` DMA engines (each its own fabric master).

        ``irq_line`` pins the completion line of a single engine; with
        ``count > 1`` leave it unset (two engines cannot claim one line).
        """
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise BuilderError(
                f"DMA engine count must be a positive integer, got {count!r}")
        config = _make(DmaConfig, "DMA", burst_words=burst_words,
                       irq_line=irq_line)
        for _ in range(count):
            self._add_device(config)
        return self

    def timer(self, compare_cycles: int = 1000, periodic: bool = False,
              auto_start: bool = False,
              irq_line: Optional[int] = None) -> "PlatformBuilder":
        """Attach one compare-match timer (IRQ on expiry)."""
        return self._add_device(_make(
            TimerConfig, "timer", compare_cycles=compare_cycles,
            periodic=bool(periodic), auto_start=bool(auto_start),
            irq_line=irq_line))

    def no_devices(self) -> "PlatformBuilder":
        """Drop every staged device: the device-free platform."""
        return self._set(devices=())

    # -- timing -----------------------------------------------------------------------
    def clock_period(self, period: int) -> "PlatformBuilder":
        """Clock period in kernel time units."""
        return self._set(clock_period=period)

    def cycle_driven(self, memory_work: int = 4, pe_work: int = 12
                     ) -> "PlatformBuilder":
        """Cycle-driven co-simulation: every module evaluated every cycle.

        ``memory_work``/``pe_work`` are the host work units per cycle per
        memory wrapper FSM and per ISS, reproducing the cost structure the
        paper's speed-degradation experiment measures.
        """
        return self._set(idle_tick_memories=True, idle_tick_work=memory_work,
                         pe_tick_work=pe_work)

    def event_driven(self) -> "PlatformBuilder":
        """Pure event-driven simulation (modules evaluated on demand)."""
        return self._set(idle_tick_memories=False, pe_tick_work=0)

    # -- models --------------------------------------------------------------------------
    def delays(self, delays: Union[WrapperDelays, str]) -> "PlatformBuilder":
        """Wrapper FSM delay parameters, or a preset name (sram/sdram)."""
        if isinstance(delays, str):
            delays = _choice(delays, DELAY_PRESETS, "delay preset")()
        return self._set(wrapper_delays=delays)

    def latency(self, model: LatencyModel) -> "PlatformBuilder":
        """Latency model of the fully-modelled baseline memories."""
        return self._set(modeled_latency=model)

    def endianness(self, order: Union[Endianness, str]) -> "PlatformBuilder":
        """Byte order of the simulated architecture."""
        return self._set(endianness=_choice(order, Endianness, "endianness"))

    def cost_model(self, model: Union[CostModel, str]) -> "PlatformBuilder":
        """Cost model of local PE computation, or a name (arm7/fast)."""
        return self._set(cost_model=_choice(model, COST_MODELS, "cost model"))

    def address_map(self, base: int, stride: int) -> "PlatformBuilder":
        """Base address and stride of the memory windows on the bus."""
        return self._set(memory_base_address=base,
                         memory_window_stride=stride)

    def named(self, name: str) -> "PlatformBuilder":
        """Name of the top module (shows up in reports)."""
        return self._set(name=name)

    def replace(self, **fields: object) -> "PlatformBuilder":
        """Escape hatch: stage raw ``PlatformConfig`` fields by name."""
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
