"""Uniform interconnect statistics shared by every fabric topology.

Whatever transport runs underneath — serialized bus, per-slave crossbar
channels, a packet-switched mesh — the fabric layer accounts every
completed transaction into the same :class:`BusStats`/:class:`MasterStats`
counters, so topology comparisons always see the same columns.

:func:`percentile_summary` is the one latency aggregator of the platform
(the per-slave :func:`monitor_block`, the NoC's end-to-end packet
statistics and the fabric's own transaction-latency column all use it),
nearest-rank so the reported values are deterministic and always equal to
observed samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass
class MasterStats:
    """Per-master interconnect statistics."""

    transactions: int = 0
    reads: int = 0
    writes: int = 0
    words: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready view (one row of the per-master stats table)."""
        return asdict(self)


@dataclass
class BusStats:
    """Aggregate interconnect statistics."""

    transactions: int = 0
    busy_cycles: int = 0
    decode_errors: int = 0
    per_master: Dict[int, MasterStats] = field(default_factory=dict)

    def master(self, master_id: int) -> MasterStats:
        """Statistics record for ``master_id`` (created on first use)."""
        if master_id not in self.per_master:
            self.per_master[master_id] = MasterStats()
        return self.per_master[master_id]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view including the per-master breakdown."""
        return {
            "transactions": self.transactions,
            "busy_cycles": self.busy_cycles,
            "decode_errors": self.decode_errors,
            "per_master": {master_id: stats.as_dict() for master_id, stats
                           in sorted(self.per_master.items())},
        }


def _nearest_rank(ordered: List[int], quantile: float) -> int:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile_summary(latencies: Iterable[int]) -> Dict[str, Optional[float]]:
    """p50/p95/max nearest-rank summary of a latency sample.

    An empty sample yields ``{"count": 0, "p50": None, "p95": None,
    "max": None}`` — explicitly *no data*, never a fake ``0`` latency that
    could be mistaken for an observed instant response.
    """
    ordered = sorted(latencies)
    if not ordered:
        return {"count": 0, "p50": None, "p95": None, "max": None}
    return {
        "count": len(ordered),
        "p50": _nearest_rank(ordered, 0.50),
        "p95": _nearest_rank(ordered, 0.95),
        "max": ordered[-1],
    }


def monitor_block(name: str, reads: Sequence[int],
                  writes: Sequence[int]) -> Dict[str, object]:
    """The JSON-ready traffic block of one monitored slave.

    ``reads`` / ``writes`` are the slave cycles of every read / write it
    served.  ``latency_percentiles`` is keyed ``all`` / ``read`` /
    ``write``, omitting an op with no transfers.
    """
    every = reads + writes
    samples = {"all": every, "read": reads, "write": writes}
    return {
        "name": name,
        "transactions": len(every),
        "reads": len(reads),
        "writes": len(writes),
        "total_cycles": sum(every),
        "latency_percentiles": {op: percentile_summary(sample)
                                for op, sample in samples.items() if sample},
    }
