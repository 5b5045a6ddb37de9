"""System interconnect topologies: shared bus and crossbar.

The interconnect carries memory-mapped transactions between processing
elements and memory modules (static memories and the dynamic shared-memory
wrappers).  This package holds the bus/crossbar topologies; the shared
machinery — master ports, slave attachment, arbitration policies, address
decoding, transaction types, statistics, per-memory traffic columns — lives
in :mod:`repro.fabric` and must be imported from there.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bus": ["SharedBus"],
    ".crossbar": ["Crossbar"],
})

__all__ = [
    "Crossbar",
    "SharedBus",
]
