"""Latency model of the traditional memory modules.

The static table memory and the fully-modelled dynamic memory baseline
charge their operations from a :class:`LatencyModel`: a fixed
per-operation component plus a per-word transfer component for bursts.
(The paper's wrapper takes its "dynamic and data dependent" delays from
:class:`~repro.wrapper.delays.WrapperDelays` instead.)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LatencyModel:
    """Configurable cycle cost of memory operations.

    Attributes
    ----------
    read_cycles / write_cycles:
        Base cost of a scalar read/write.
    alloc_cycles / free_cycles:
        Base cost of management operations (only meaningful for dynamic
        memory modules).
    per_word_cycles:
        Additional cycles charged per data word moved in burst transfers.
    """

    read_cycles: int = 1
    write_cycles: int = 1
    alloc_cycles: int = 2
    free_cycles: int = 2
    per_word_cycles: int = 1

    def __post_init__(self) -> None:
        for name in ("read_cycles", "write_cycles", "alloc_cycles", "free_cycles",
                     "per_word_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    # -- cost queries --------------------------------------------------------
    def scalar_read(self) -> int:
        """Cycles for a scalar read."""
        return max(1, self.read_cycles)

    def scalar_write(self) -> int:
        """Cycles for a scalar write."""
        return max(1, self.write_cycles)

    def burst_read(self, words: int) -> int:
        """Cycles for a burst read of ``words`` words."""
        return max(1, self.read_cycles + self.per_word_cycles * words)

    def burst_write(self, words: int) -> int:
        """Cycles for a burst write of ``words`` words."""
        return max(1, self.write_cycles + self.per_word_cycles * words)

    def alloc(self) -> int:
        """Cycles for an allocation."""
        return max(1, self.alloc_cycles)

    def free(self) -> int:
        """Cycles for a deallocation."""
        return max(1, self.free_cycles)
