"""System interconnect topologies: shared bus, crossbar, monitors.

The interconnect carries memory-mapped transactions between processing
elements and memory modules (static memories and the dynamic shared-memory
wrappers).  This package holds the bus/crossbar topologies and the traffic
monitor; the shared machinery — master ports, slave attachment,
arbitration policies, address decoding, transaction types, statistics —
lives in :mod:`repro.fabric` and must be imported from there.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bus": ["SharedBus"],
    ".crossbar": ["Crossbar"],
    ".monitor": ["BusMonitor", "MonitoredTransfer"],
})

__all__ = [
    "BusMonitor",
    "Crossbar",
    "MonitoredTransfer",
    "SharedBus",
]
