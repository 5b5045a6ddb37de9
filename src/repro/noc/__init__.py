"""Packet-switched 2D-mesh network-on-chip interconnect.

The third platform topology next to the shared bus and the crossbar:
per-node wormhole routers with XY dimension-order routing, round-robin
virtual-channel arbitration per output port, configurable link width and
latencies, separate request/response networks (deadlock-free by
construction) and link-level statistics.

Drop-in use through the platform layer::

    config = (PlatformBuilder()
              .pes(8)
              .wrapper_memories(2)
              .mesh(rows=2, cols=4)
              .build())

or standalone, with the same surface as ``SharedBus``/``Crossbar``::

    noc = MeshNoc("noc", config=NocConfig(rows=2, cols=2))
    noc.attach_slave("mem", 0x1000_0000, 0x1_0000, memory)
    port = noc.master_port(0)
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["NocConfig"],
    ".mesh": ["MeshNoc"],
    ".packet": ["LOCAL_LANE", "Packet", "entry_lane", "flits_for_payload",
                "request_payload_bytes", "response_payload_bytes"],
    ".stats": ["LinkStats", "NocStats"],
})

__all__ = [
    "LOCAL_LANE",
    "LinkStats",
    "MeshNoc",
    "NocConfig",
    "NocStats",
    "Packet",
    "entry_lane",
    "flits_for_payload",
    "request_payload_bytes",
    "response_payload_bytes",
]
