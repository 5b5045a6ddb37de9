"""repro.fabric — the unified interconnect fabric layer.

One memory-access surface, many transports: every interconnect topology of
the platform (shared bus, crossbar, 2D-mesh NoC) subclasses
:class:`Fabric`, which owns the shared machinery — slave attachment via a
validating address map, the :class:`MasterPort` issue/complete lifecycle,
the one arbitration point (``Fabric._run_channel``, which holds a channel
for a slave's service window), snooper registration, decode-error
accounting, uniform :class:`BusStats`/:class:`MasterStats` counters with
latency percentiles — while a pluggable :class:`ArbitrationPolicy` family
(round-robin, fixed-priority, weighted round-robin, TDMA) decides who wins
each contended grant, identically on every topology.

Adding an arbitration policy or a topology is a one-class plug-in:
policies implement :meth:`ArbitrationPolicy.grant`; topologies map each
slave to a channel (and the mesh routes requests to it and responses
back).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".address_map": ["AddressDecodeError", "AddressMap", "AddressMapConflict",
                     "Region"],
    ".base": ["Fabric"],
    ".policy": ["POLICY_KINDS", "ArbitrationPolicy", "ArbitrationSpec",
                "FixedPriorityArbiter", "RoundRobinArbiter", "TdmaArbiter",
                "WeightedRoundRobinArbiter"],
    ".port": ["BusSlave", "MasterPort", "PortHelpers"],
    ".stats": ["BusStats", "MasterStats", "percentile_summary"],
    ".transaction": ["CACHE_TAG_SUFFIXES", "WORD_SIZE", "BusOp", "BusRequest",
                     "BusResponse", "ResponseStatus", "cache_transfer_kind",
                     "decode_error_response"],
})

__all__ = [
    "AddressDecodeError",
    "AddressMap",
    "AddressMapConflict",
    "ArbitrationPolicy",
    "ArbitrationSpec",
    "BusOp",
    "BusRequest",
    "BusResponse",
    "BusSlave",
    "BusStats",
    "CACHE_TAG_SUFFIXES",
    "Fabric",
    "FixedPriorityArbiter",
    "MasterPort",
    "MasterStats",
    "POLICY_KINDS",
    "PortHelpers",
    "Region",
    "ResponseStatus",
    "RoundRobinArbiter",
    "TdmaArbiter",
    "WORD_SIZE",
    "WeightedRoundRobinArbiter",
    "cache_transfer_kind",
    "decode_error_response",
    "percentile_summary",
]
