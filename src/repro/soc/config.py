"""Platform configuration.

A :class:`PlatformConfig` captures everything needed to build one of the
paper's co-simulation platforms: how many processing elements, how many
dynamic shared memories and of which model (host-backed wrapper vs.
fully-modelled baseline), the interconnect topology and arbitration, clock
period, wrapper delay parameters, and whether memory modules are ticked
every cycle (cycle-driven co-simulation style) or only evaluated on demand
(event-driven style).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..cache.geometry import CacheConfig
from ..check.config import CheckConfig
from ..obs.config import ObsConfig
from ..dev.config import DeviceLayout, resolve_layout
from ..fabric.policy import ArbitrationSpec, check_kind
from ..kernel.simtime import NS
from ..memory.latency import LatencyModel
from ..memory.protocol import Endianness
from ..noc.config import NocConfig
from ..sw.instruction_costs import ARM7_LIKE, CostModel
from ..wrapper.delays import WrapperDelays


class MemoryKind(enum.Enum):
    """Which dynamic-memory model the platform instantiates."""

    #: The paper's host-backed dynamic shared memory wrapper.
    WRAPPER = "wrapper"
    #: The traditional fully-modelled dynamic memory baseline.
    MODELED = "modeled"


class InterconnectKind(enum.Enum):
    """Interconnect topology."""

    SHARED_BUS = "shared_bus"
    CROSSBAR = "crossbar"
    MESH = "mesh"


#: Integer fields of :class:`PlatformConfig` and the lowest value of each.
_LOWEST = (
    ("num_pes", 1), ("num_memories", 1), ("memory_capacity_bytes", 1),
    ("clock_period", 1), ("arbitration_cycles", 0), ("idle_tick_work", 0),
    ("pe_tick_work", 0), ("memory_base_address", 0),
    ("memory_window_stride", 1), ("device_base_address", 0),
    ("device_window_stride", 1), ("partitions", 1), ("pdes_epoch_cycles", 1),
)
#: Model and layer-object fields of :class:`PlatformConfig` and their types.
_TYPES = (
    ("memory_kind", MemoryKind), ("interconnect", InterconnectKind),
    ("noc", NocConfig),
    ("wrapper_delays", WrapperDelays), ("modeled_latency", LatencyModel),
    ("endianness", Endianness), ("cost_model", CostModel),
    ("cache", CacheConfig), ("check", CheckConfig), ("obs", ObsConfig),
    ("name", str),
)
#: The fields of either table that may also be ``None``.
_OPTIONAL = frozenset({"memory_capacity_bytes", "pdes_epoch_cycles", "noc",
                       "cache", "check", "obs"})


@dataclass
class PlatformConfig:
    """Complete description of one simulated MPSoC platform."""

    #: Number of processing elements (the paper's ISSs).
    num_pes: int = 4
    #: Number of dynamic shared memory modules.
    num_memories: int = 1
    #: Dynamic memory model used for every memory module.
    memory_kind: MemoryKind = MemoryKind.WRAPPER
    #: Simulated capacity of each memory (None = unlimited for the wrapper).
    memory_capacity_bytes: Optional[int] = 1 << 20
    #: Interconnect topology.
    interconnect: InterconnectKind = InterconnectKind.SHARED_BUS
    #: Arbitration policy, one of :data:`~repro.fabric.policy.POLICY_KINDS`,
    #: applied uniformly on every topology.
    arbitration: str = "round_robin"
    #: Weighted-RR grant budgets indexed by master id (``None`` = PE count
    #: down to 1, so lower-id masters get proportionally more bandwidth).
    arbitration_weights: Optional[Tuple[int, ...]] = None
    #: Fixed-priority order, most important first (``None`` = by master id).
    arbitration_priority: Optional[Tuple[int, ...]] = None
    #: TDMA slot schedule of master ids (``None`` = one slot per PE).
    arbitration_schedule: Optional[Tuple[int, ...]] = None
    #: Mesh NoC parameters (``InterconnectKind.MESH`` only).  ``None``
    #: derives a near-square mesh sized for the platform; see
    #: :meth:`resolved_noc`.
    noc: Optional[NocConfig] = None
    #: Clock period of the platform in kernel time units.
    clock_period: int = 10 * NS
    #: Fixed interconnect overhead cycles per transfer.
    arbitration_cycles: int = 1
    #: Delay parameters of the wrapper FSM.
    wrapper_delays: WrapperDelays = field(default_factory=WrapperDelays)
    #: Latency model of the modelled baseline memories.
    modeled_latency: LatencyModel = field(default_factory=LatencyModel)
    #: Byte order of the simulated architecture.
    endianness: Endianness = Endianness.LITTLE
    #: Cost model of local computation on the PEs.
    cost_model: CostModel = ARM7_LIKE
    #: If True, every memory module is evaluated once per clock cycle even
    #: when idle, as in cycle-driven co-simulation kernels (GEZEL/SystemC
    #: without dynamic sensitivity).  This is what makes "more memories"
    #: cost host time in the paper's experiment.
    idle_tick_memories: bool = False
    #: Host-side work units performed per idle tick per memory (knob used to
    #: match the relative weight of memory modules in the authors' kernel).
    idle_tick_work: int = 4
    #: Host-side work units performed per cycle per processing element when
    #: the platform is ticked cycle by cycle (0 = PEs are event-driven).  An
    #: instruction-set simulator costs noticeably more per evaluated cycle
    #: than a memory wrapper FSM; the default ratio of 3:1 versus
    #: ``idle_tick_work`` reflects that.
    pe_tick_work: int = 0
    #: Per-PE L1 data cache configuration; ``None`` (the default) builds the
    #: flat PE -> interconnect -> memory platform, bit-identical to the
    #: pre-cache model.  A :class:`~repro.cache.geometry.CacheConfig` places
    #: one L1 cache per PE, kept coherent with MSI snooping.
    cache: Optional[CacheConfig] = None
    #: Simulation sanitizers (:mod:`repro.check`); ``None`` (the default)
    #: runs without any checker attached — bit-identical to the unchecked
    #: platform.  A :class:`~repro.check.config.CheckConfig` attaches the
    #: happens-before race detector, protocol checkers and/or the
    #: coherence invariant scanner; checks are timing-transparent (they
    #: observe transfers, they never consume simulated time).
    check: Optional[CheckConfig] = None
    #: Observability (:mod:`repro.obs`); ``None`` (the default) installs
    #: zero hooks — bit-identical to the unobserved platform.  An
    #: :class:`~repro.obs.config.ObsConfig` attaches timeline tracing,
    #: the metrics time-series sampler and/or host-time attribution; all
    #: heads are timing-transparent (they observe, they never consume
    #: simulated time or touch the scheduler).
    obs: Optional[ObsConfig] = None
    #: Keep a fabric traffic column per memory module (:meth:`Fabric.monitor
    #: <repro.fabric.base.Fabric.monitor>`, timing-transparent) and surface
    #: per-memory transaction counts and latency percentiles in
    #: ``interconnect_stats``.
    monitor_memories: bool = False
    #: Base byte address of the first memory window on the interconnect.
    memory_base_address: int = 0x1000_0000
    #: Address stride between consecutive memory windows.
    memory_window_stride: int = 0x0001_0000
    #: Bus-attached devices (:mod:`repro.dev` config objects: an
    #: ``IrqControllerConfig``, ``DmaConfig`` and/or ``TimerConfig``
    #: entries).  Empty (the default) builds the device-free platform,
    #: bit-identical to the pre-device model.
    devices: Tuple[object, ...] = ()
    #: Base byte address of the first device register window.
    device_base_address: int = 0x2000_0000
    #: Address stride between consecutive device windows.
    device_window_stride: int = 0x0001_0000
    #: Number of spatial partitions the mesh platform is sharded into for
    #: parallel (PDES) execution — see :mod:`repro.pdes`.  ``1`` (the
    #: default) is the ordinary sequential simulation, bit-identical to a
    #: config without the field.  Values > 1 require a mesh interconnect
    #: and tile the NoC into that many rectangles, each simulated by its
    #: own event loop; such configs must be run through
    #: :func:`repro.pdes.run_partitioned` (the scenario runner dispatches
    #: automatically).
    partitions: int = 1
    #: Conservative-sync window of partitioned runs, in clock cycles: every
    #: boundary-crossing packet is delivered this many cycles after it
    #: leaves its source partition, and the coordinator advances all
    #: partitions in lockstep windows bounded by this lookahead.  ``None``
    #: derives a default from the mesh timing parameters.
    pdes_epoch_cycles: Optional[int] = None
    #: Name given to the top module.
    name: str = "mpsoc"

    def __post_init__(self) -> None:
        for name, lowest in _LOWEST:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < lowest):
                raise ValueError(
                    f"{name} must be an integer >= {lowest}, got {value!r}")
        for name, kind in _TYPES:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            if not isinstance(value, kind):
                raise ValueError(
                    f"{name} must be a {kind.__name__}"
                    f"{' or None' if name in _OPTIONAL else ''}, "
                    f"got {type(value).__name__}")
        if not self.name:
            raise ValueError("name must be a non-empty string")
        check_kind(self.arbitration)
        for name in ("arbitration_weights", "arbitration_priority",
                     "arbitration_schedule"):
            value = getattr(self, name)
            if value is None:
                continue
            value = tuple(value)
            if not value or not all(isinstance(item, int)
                                    and not isinstance(item, bool)
                                    for item in value):
                raise ValueError(f"{name} must be a non-empty tuple of ints")
            setattr(self, name, value)
        if self.arbitration_weights is not None and any(
                weight < 1 for weight in self.arbitration_weights):
            raise ValueError("arbitration weights must be >= 1")
        self.devices = tuple(self.devices)
        if self.devices:
            memories_end = (self.memory_base_address
                            + self.num_memories * self.memory_window_stride)
            if self.device_base_address < memories_end:
                raise ValueError(
                    "device windows overlap the memory windows; raise "
                    "device_base_address"
                )
            # Validates line assignments / names / counts eagerly.
            self.device_layout()
        if self.partitions & (self.partitions - 1):
            raise ValueError(
                f"partitions must be a power of two, got {self.partitions}")
        if self.partitions > 1:
            if self.interconnect is not InterconnectKind.MESH:
                raise ValueError(
                    "partitioned (PDES) execution tiles the mesh NoC; "
                    "partitions > 1 requires InterconnectKind.MESH"
                )
            if self.cache is not None:
                raise ValueError(
                    "partitions > 1 does not support caches: MSI snooping "
                    "needs a global transfer order the partitioned "
                    "simulation does not provide"
                )
            if self.check is not None:
                raise ValueError(
                    "partitions > 1 does not support simulation sanitizers: "
                    "the race detector needs the global event order; run "
                    "checked simulations sequentially"
                )
            if self.devices:
                raise ValueError(
                    "partitions > 1 does not support bus-attached devices "
                    "(DMA/IRQ/timer windows are not partition-aware yet)"
                )
            if self.idle_tick_memories:
                raise ValueError(
                    "partitions > 1 does not support cycle-driven idle "
                    "ticking (the host ticker is a global process)"
                )

    # -- derived helpers -----------------------------------------------------------
    def memory_base(self, index: int) -> int:
        """Bus base address of memory ``index``."""
        if not 0 <= index < self.num_memories:
            raise ValueError(f"memory index {index} out of range")
        return self.memory_base_address + index * self.memory_window_stride

    def arbitration_spec(self) -> ArbitrationSpec:
        """The fabric-level arbitration description of this platform.

        Per-policy parameters default to PE-count-derived values: priority
        and TDMA slots follow master ids, weighted-RR budgets descend from
        ``num_pes`` to 1 (so the policies are distinguishable out of the
        box; override the ``arbitration_*`` fields for exact control).
        """
        return ArbitrationSpec(
            kind=self.arbitration,
            priority_order=(self.arbitration_priority
                            if self.arbitration_priority is not None
                            else tuple(range(self.num_pes))),
            weights=(self.arbitration_weights
                     if self.arbitration_weights is not None
                     else tuple(range(self.num_pes, 0, -1))),
            schedule=(self.arbitration_schedule
                      if self.arbitration_schedule is not None
                      else tuple(range(self.num_pes))),
        )

    def device_layout(self) -> Optional[DeviceLayout]:
        """The resolved device map (``None`` on a device-free platform).

        Deterministic from the config alone, so driver software (through
        ``ctx.devices``) and the platform builder agree on every window
        base, IRQ line and DMA master id.
        """
        return resolve_layout(self.devices, self.num_pes,
                              self.device_base_address,
                              self.device_window_stride)

    def resolved_noc(self) -> NocConfig:
        """The mesh parameters with concrete dimensions for this platform."""
        base = self.noc if self.noc is not None else NocConfig()
        return base.resolve(self.num_pes, self.num_memories)

    def describe(self) -> str:
        """One-line summary used in logs and benchmark tables."""
        topology = self.interconnect.value
        if self.interconnect is InterconnectKind.MESH:
            noc = self.resolved_noc()
            topology = f"mesh {noc.rows}x{noc.cols}"
        text = (
            f"{self.num_pes} PE / {self.num_memories} x {self.memory_kind.value} "
            f"memory / {topology} ({self.arbitration})"
        )
        if self.cache is not None:
            text += f" / {self.cache.describe()}"
        if self.check is not None:
            text += f" / check[{self.check.describe()}]"
        if self.obs is not None:
            text += f" / obs[{self.obs.describe()}]"
        layout = self.device_layout()
        if layout is not None:
            text += f" / {layout.describe()}"
        if self.partitions > 1:
            epoch = self.pdes_epoch_cycles
            suffix = f" x{epoch}c" if epoch is not None else ""
            text += f" / pdes[{self.partitions}p{suffix}]"
        return text
