"""Memory subsystem: host layer, static memories, heap, and baselines.

This package provides the memory substrate of the co-simulation framework:

* :class:`HostMemory` / :class:`HostBlock` — the host machine's memory
  management capabilities (Figure 1's bottom layer) used by the wrapper;
* :class:`StaticMemory` — the traditional table memory module;
* :class:`FreeListHeap` — a first-fit allocator with in-memory metadata;
* :class:`ModeledDynamicMemory` — the fully-modelled dynamic memory baseline;
* :mod:`repro.memory.protocol` — the transaction protocol shared by every
  dynamic memory module (opcodes, status codes, register map).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".dynamic_base": ["DynamicMemorySlave", "decode_array", "decode_element",
                      "encode_array", "encode_element", "to_signed"],
    ".heap": ["HEADER_BYTES", "CountingAccessor", "FreeListHeap", "HeapError",
              "HeapStats", "WordAccessor"],
    ".host_memory": ["HostAccessError", "HostAllocationError", "HostBlock",
                     "HostMemory", "HostMemoryStats"],
    ".latency": ["LatencyModel"],
    ".modeled_dynamic_memory": ["ModeledDynamicMemory"],
    ".protocol": ["DATA_TYPE_SIZES", "IO_ARRAY_BASE", "IO_ARRAY_BYTES",
                  "REG_COMMAND", "REG_LIVE_COUNT", "REG_RESULT", "REG_STATUS",
                  "REG_USED_BYTES", "REGISTER_WINDOW_BYTES", "DataType",
                  "Endianness", "MemCommand", "MemOpcode", "MemResult",
                  "MemStatus", "ProtocolError", "data_type_size"],
    ".static_memory": ["StaticMemory"],
})

__all__ = [
    "CountingAccessor",
    "DATA_TYPE_SIZES",
    "DataType",
    "DynamicMemorySlave",
    "Endianness",
    "FreeListHeap",
    "HEADER_BYTES",
    "HeapError",
    "HeapStats",
    "HostAccessError",
    "HostAllocationError",
    "HostBlock",
    "HostMemory",
    "HostMemoryStats",
    "IO_ARRAY_BASE",
    "IO_ARRAY_BYTES",
    "LatencyModel",
    "MemCommand",
    "MemOpcode",
    "MemResult",
    "MemStatus",
    "ModeledDynamicMemory",
    "ProtocolError",
    "REG_COMMAND",
    "REG_LIVE_COUNT",
    "REG_RESULT",
    "REG_STATUS",
    "REG_USED_BYTES",
    "REGISTER_WINDOW_BYTES",
    "StaticMemory",
    "WordAccessor",
    "data_type_size",
    "decode_array",
    "decode_element",
    "encode_array",
    "encode_element",
    "to_signed",
]
