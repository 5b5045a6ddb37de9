"""SoC composition: platform configuration, builder and reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["InterconnectKind", "MemoryKind", "PlatformConfig"],
    ".platform": ["MemoryIdleTicker", "Platform"],
    ".stats": ["SimulationReport", "format_table", "speed_degradation"],
})

__all__ = [
    "InterconnectKind",
    "MemoryIdleTicker",
    "MemoryKind",
    "Platform",
    "PlatformConfig",
    "SimulationReport",
    "format_table",
    "speed_degradation",
]
