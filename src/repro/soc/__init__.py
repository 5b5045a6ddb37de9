"""SoC composition: platform configuration, builder and reporting."""

from .config import (
    ArbitrationKind,
    InterconnectKind,
    MemoryKind,
    PlatformConfig,
)
from .platform import MemoryIdleTicker, Platform
from .stats import (
    SimulationReport,
    SweepPoint,
    format_table,
    speed_degradation,
    wallclock_overhead,
)

__all__ = [
    "ArbitrationKind",
    "InterconnectKind",
    "MemoryIdleTicker",
    "MemoryKind",
    "Platform",
    "PlatformConfig",
    "SimulationReport",
    "SweepPoint",
    "format_table",
    "speed_degradation",
    "wallclock_overhead",
]
