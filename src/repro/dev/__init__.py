"""Bus-attached devices: interrupt controller, DMA engine, timers.

The device subsystem turns the PE/memory/fabric platform into one that can
run device-driver-shaped software.  Everything is built from one base
class, :class:`RegisterFilePeripheral` — a kernel Module that is also a
fabric BusSlave exposing a decoded window of word registers:

* :class:`InterruptController` — up to 32 edge/level lines, per-PE enable
  masks, a software-raise doorbell register, and allocation-free wakeup
  delivery through one persistent event per PE (:class:`IrqClient`).
* :class:`DmaEngine` — a single-channel memory-to-memory engine with its
  own fabric master port, speaking the wrapper's READ_ARRAY/WRITE_ARRAY
  protocol in ``burst_words`` chunks and raising a completion IRQ
  (:class:`DmaDriver` is the task-side programming helper).
* :class:`TimerPeripheral` — one-shot/periodic compare-match timers on the
  kernel's timed fast path.

Devices are declared on a ``PlatformConfig`` via the frozen config classes
(:class:`IrqControllerConfig`, :class:`DmaConfig`, :class:`TimerConfig`);
:func:`resolve_layout` maps a declaration to concrete window addresses,
IRQ lines and master ids — the same resolution the platform builds from
and driver software reads (``ctx.devices``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["DEVICE_CONFIG_TYPES", "MAX_IRQ_LINES", "DeviceLayout",
                "DeviceSlot", "DmaConfig", "IrqControllerConfig",
                "TimerConfig", "resolve_layout"],
    ".dma": ["DmaDriver", "DmaEngine"],
    ".irq": ["InterruptController", "IrqClient", "lines_to_mask"],
    ".peripheral": ["RegisterFilePeripheral"],
    ".timer": ["TimerPeripheral"],
})

__all__ = [
    "DEVICE_CONFIG_TYPES",
    "MAX_IRQ_LINES",
    "DeviceLayout",
    "DeviceSlot",
    "DmaConfig",
    "DmaDriver",
    "DmaEngine",
    "InterruptController",
    "IrqClient",
    "IrqControllerConfig",
    "RegisterFilePeripheral",
    "TimerConfig",
    "TimerPeripheral",
    "lines_to_mask",
    "resolve_layout",
]
