"""Device configuration and address-layout resolution.

Devices are declared on a :class:`~repro.soc.config.PlatformConfig` as a
tuple of small frozen dataclasses (:class:`IrqControllerConfig`,
:class:`DmaConfig`, :class:`TimerConfig`).  :func:`resolve_layout` turns
that declaration into a concrete :class:`DeviceLayout`: every device gets a
register window base address, IRQ-raising devices get a line on the
interrupt controller (explicit lines win, the rest are auto-assigned), and
DMA engines get fabric master ids above the processing elements.

Keeping the resolution here (rather than inside ``Platform``) lets software
— workload factories, drivers running on a PE — compute the exact same
layout from the config alone, which is how a :class:`~repro.dev.dma.DmaDriver`
knows where its engine's registers live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Hard upper bound of interrupt lines (pending/enable masks are one word).
MAX_IRQ_LINES = 32


def _check_int(config: object, name: str, lowest: int,
               highest: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``config.<name>`` is an integer in
    ``lowest..highest`` (no upper bound when ``highest`` is ``None``)."""
    value = getattr(config, name)
    if (not isinstance(value, int) or isinstance(value, bool) or value < lowest
            or highest is not None and value > highest):
        bound = f"{lowest}..{highest}" if highest is not None else f">= {lowest}"
        raise ValueError(f"{type(config).__name__}.{name} must be an integer "
                         f"{bound}, got {value!r}")


@dataclass(frozen=True)
class IrqControllerConfig:
    """One platform-wide interrupt controller."""

    #: Number of interrupt lines (1..32; masks are single 32-bit words).
    lines: int = MAX_IRQ_LINES
    #: Instance name (also the register window name on the fabric).
    name: str = "irqc"

    def __post_init__(self) -> None:
        _check_int(self, "lines", 1, MAX_IRQ_LINES)


@dataclass(frozen=True)
class DmaConfig:
    """One memory-to-memory DMA engine (its own fabric master)."""

    #: Largest burst the engine moves per READ_ARRAY/WRITE_ARRAY pair.
    burst_words: int = 64
    #: Completion interrupt line (``None`` = auto-assigned).
    irq_line: Optional[int] = None
    #: Instance name (``""`` = ``dma<k>`` by engine ordinal).
    name: str = ""

    def __post_init__(self) -> None:
        _check_int(self, "burst_words", 1)
        if self.irq_line is not None:
            _check_int(self, "irq_line", 0)


@dataclass(frozen=True)
class TimerConfig:
    """One compare-match timer raising an IRQ on expiry."""

    #: Compare value in platform clock cycles.
    compare_cycles: int = 1000
    #: Reload and keep ticking after each expiry.
    periodic: bool = False
    #: Start counting at elaboration without software programming.
    auto_start: bool = False
    #: Expiry interrupt line (``None`` = auto-assigned).
    irq_line: Optional[int] = None
    #: Instance name (``""`` = ``timer<k>`` by timer ordinal).
    name: str = ""

    def __post_init__(self) -> None:
        _check_int(self, "compare_cycles", 1)
        if self.irq_line is not None:
            _check_int(self, "irq_line", 0)


#: Every config class a ``PlatformConfig.devices`` tuple may contain.
DEVICE_CONFIG_TYPES = (IrqControllerConfig, DmaConfig, TimerConfig)


@dataclass(frozen=True)
class DeviceSlot:
    """One resolved device instance: config plus its platform addresses."""

    #: Device kind: ``"irq"``, ``"dma"`` or ``"timer"``.
    kind: str
    #: Instance name (unique across devices; fabric window name).
    name: str
    #: The declaring config object.
    config: object
    #: Base byte address of the register window on the fabric.
    base: int
    #: Interrupt line the device raises (``None`` for the controller).
    irq_line: Optional[int] = None
    #: Fabric master id (DMA engines only).
    master_id: Optional[int] = None


@dataclass(frozen=True)
class DeviceLayout:
    """The resolved device map of one platform."""

    #: Every slot in window order (controller first).
    slots: Tuple[DeviceSlot, ...]
    #: The interrupt controller slot (always present when any device is).
    controller: DeviceSlot
    #: DMA engine slots in declaration order.
    dmas: Tuple[DeviceSlot, ...]
    #: Timer slots in declaration order.
    timers: Tuple[DeviceSlot, ...]

    def dma(self, index: int = 0) -> DeviceSlot:
        """The ``index``-th DMA engine slot (raises when absent)."""
        try:
            return self.dmas[index]
        except IndexError:
            raise ValueError(
                f"no DMA engine with index {index} "
                f"(platform has {len(self.dmas)})"
            ) from None

    def timer(self, index: int = 0) -> DeviceSlot:
        """The ``index``-th timer slot (raises when absent)."""
        try:
            return self.timers[index]
        except IndexError:
            raise ValueError(
                f"no timer with index {index} "
                f"(platform has {len(self.timers)})"
            ) from None

    def describe(self) -> str:
        """Compact summary used by ``PlatformConfig.describe()``."""
        parts = [f"irqc({self.controller.config.lines})"]
        if self.dmas:
            parts.append(f"{len(self.dmas)} dma")
        if self.timers:
            parts.append(f"{len(self.timers)} timer")
        return "+".join(parts)


def resolve_layout(
    devices: Tuple[object, ...],
    num_pes: int,
    base_address: int,
    stride: int,
) -> Optional[DeviceLayout]:
    """Resolve a ``PlatformConfig.devices`` tuple into a :class:`DeviceLayout`.

    Returns ``None`` for an empty declaration (a device-free platform must
    stay bit-identical to the pre-``repro.dev`` model).  An interrupt
    controller is injected implicitly when DMA engines or timers are
    declared without one; explicit IRQ lines are honoured first and the
    remaining devices fill the lowest free lines.
    """
    if not devices:
        return None
    for config in devices:
        if not isinstance(config, DEVICE_CONFIG_TYPES):
            raise ValueError(
                f"devices entries must be device configs, got "
                f"{type(config).__name__}"
            )
    controllers = [c for c in devices if isinstance(c, IrqControllerConfig)]
    if len(controllers) > 1:
        raise ValueError("a platform supports at most one interrupt controller")
    controller_config = controllers[0] if controllers else IrqControllerConfig()

    raisers = [c for c in devices if not isinstance(c, IrqControllerConfig)]
    claimed = set()
    for config in raisers:
        line = config.irq_line
        if line is None:
            continue
        if not 0 <= line < controller_config.lines:
            raise ValueError(
                f"irq_line {line} outside controller lines "
                f"0..{controller_config.lines - 1}"
            )
        if line in claimed:
            raise ValueError(
                f"irq_line {line} claimed by more than one device "
                f"(completion claims would race)"
            )
        claimed.add(line)

    def next_free_line(start: List[int]) -> int:
        while start[0] in claimed:
            start[0] += 1
        line = start[0]
        if line >= controller_config.lines:
            raise ValueError(
                f"not enough interrupt lines for every device "
                f"(controller has {controller_config.lines})"
            )
        claimed.add(line)
        return line

    cursor = [0]
    slots: List[DeviceSlot] = []
    controller_slot = DeviceSlot(
        kind="irq", name=controller_config.name, config=controller_config,
        base=base_address,
    )
    slots.append(controller_slot)

    names = {controller_config.name}
    dma_slots: List[DeviceSlot] = []
    timer_slots: List[DeviceSlot] = []
    for config in raisers:
        window = len(slots)
        line = (config.irq_line if config.irq_line is not None
                else next_free_line(cursor))
        if isinstance(config, DmaConfig):
            name = config.name or f"dma{len(dma_slots)}"
            slot = DeviceSlot(
                kind="dma", name=name, config=config,
                base=base_address + window * stride, irq_line=line,
                master_id=num_pes + len(dma_slots),
            )
            dma_slots.append(slot)
        else:
            name = config.name or f"timer{len(timer_slots)}"
            slot = DeviceSlot(
                kind="timer", name=name, config=config,
                base=base_address + window * stride, irq_line=line,
            )
            timer_slots.append(slot)
        if slot.name in names:
            raise ValueError(f"duplicate device name {slot.name!r}")
        names.add(slot.name)
        slots.append(slot)

    return DeviceLayout(
        slots=tuple(slots),
        controller=controller_slot,
        dmas=tuple(dma_slots),
        timers=tuple(timer_slots),
    )
