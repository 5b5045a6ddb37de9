"""SoC composition: platform configuration, builder and reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["ArbitrationKind", "InterconnectKind", "MemoryKind",
                "PlatformConfig"],
    ".platform": ["MemoryIdleTicker", "Platform"],
    ".stats": ["SimulationReport", "format_table", "speed_degradation"],
})

__all__ = [
    "ArbitrationKind",
    "InterconnectKind",
    "MemoryIdleTicker",
    "MemoryKind",
    "Platform",
    "PlatformConfig",
    "SimulationReport",
    "format_table",
    "speed_degradation",
]
