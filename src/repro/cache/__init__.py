"""Per-PE L1 caches with MSI snooping coherence.

This package adds a real memory hierarchy to the platform: a configurable
L1 data cache per processing element (:class:`L1Cache`) shimmed between the
PE's master port and the interconnect, kept coherent across PEs by a
snooping MSI protocol (:class:`CoherenceDomain`).  Caches are a pure opt-in
layer — a platform built without a :class:`CacheConfig` is bit-identical to
the cache-less one — and, when enabled, cache-served accesses are
bit-identical with wrapper-served ones while removing shared-memory
transactions from the interconnect.

Enable them declaratively::

    config = (PlatformBuilder()
              .pes(4)
              .wrapper_memories(1)
              .l1_cache(sets=64, ways=2, line_bytes=32, policy="write_back")
              .build())
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".coherence": ["CoherenceDomain", "DomainStats"],
    ".geometry": ["CacheConfig", "CacheError", "CacheGeometry", "WritePolicy"],
    ".engine": ["CacheStats"],
    ".l1": ["CachedPort", "L1Cache"],
    ".lines": ["CacheLine", "LineDirectory", "MSIState", "canonical_word"],
    ".shadow": ["ShadowMap", "SharedAllocation"],
})

__all__ = [
    "CacheConfig",
    "CacheError",
    "CacheGeometry",
    "CacheLine",
    "CacheStats",
    "CachedPort",
    "CoherenceDomain",
    "DomainStats",
    "L1Cache",
    "LineDirectory",
    "MSIState",
    "ShadowMap",
    "SharedAllocation",
    "WritePolicy",
    "canonical_word",
]
