"""Link-level and end-to-end statistics of the mesh interconnect.

:class:`NocStats` mirrors what the fabric's per-memory monitor column
(:func:`~repro.fabric.stats.monitor_block`) provides for a single slave, at
network granularity:

* per-link counters — busy cycles, packets, flits, blocked (backpressure)
  cycles — and from them per-link utilization;
* per-router contention — how many packets were left waiting whenever an
  output port made a grant decision;
* end-to-end transaction latency percentiles (inject-to-completion, in
  interconnect cycles), nearest-rank like the monitor's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..fabric.stats import percentile_summary


@dataclass
class LinkStats:
    """Counters of one directed link (or injection/ejection port)."""

    name: str
    busy_cycles: int = 0
    packets: int = 0
    flits: int = 0
    #: Cycles the port spent stalled on downstream backpressure while
    #: holding the channel (the wormhole "blocked worm" time).
    blocked_cycles: int = 0
    #: Packets that found at least one rival waiting at grant time.
    contended_grants: int = 0

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the link carried flits."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)

    def as_dict(self) -> dict:
        """The counters, without the link's name (the key it is filed
        under).  ``vars``, not ``asdict``: the fields are plain ints, and
        the deep copy would cost an 8x8 mesh's ~700 links 10 ms a report."""
        return {key: value for key, value in vars(self).items()
                if key != "name"}


@dataclass
class NocStats:
    """Aggregate statistics of one mesh interconnect."""

    #: Link name -> counters ("n3->n4", "n0.inject", "n5.eject", ...).
    links: Dict[str, LinkStats] = field(default_factory=dict)
    #: Router node -> packets that waited behind another grant there.
    router_contention: Dict[int, int] = field(default_factory=dict)
    #: End-to-end latency (cycles, inject to completion) per transaction.
    latencies: List[int] = field(default_factory=list)
    packets_sent: int = 0
    flits_sent: int = 0
    hops_total: int = 0

    # -- recording ---------------------------------------------------------------
    def link(self, name: str) -> LinkStats:
        """Counters of one link (created on first use)."""
        stats = self.links.get(name)
        if stats is None:
            stats = self.links[name] = LinkStats(name)
        return stats

    def record_contention(self, node: int, waiting: int) -> None:
        if waiting > 0:
            self.router_contention[node] = (
                self.router_contention.get(node, 0) + waiting
            )

    def record_packet(self, flits: int, hops: int) -> None:
        self.packets_sent += 1
        self.flits_sent += flits
        self.hops_total += hops

    def record_latency(self, cycles: int) -> None:
        self.latencies.append(cycles)

    # -- queries -----------------------------------------------------------------
    @property
    def average_hops(self) -> float:
        if not self.packets_sent:
            return 0.0
        return self.hops_total / self.packets_sent

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/max end-to-end transaction latency in cycles."""
        return percentile_summary(self.latencies)

    def link_utilization(self, elapsed_cycles: int) -> Dict[str, float]:
        """Per-link utilization over ``elapsed_cycles`` (0.0-1.0)."""
        return {name: round(link.utilization(elapsed_cycles), 4)
                for name, link in sorted(self.links.items())}

    def total_busy_cycles(self) -> int:
        return sum(link.busy_cycles for link in self.links.values())

    def as_dict(self, elapsed_cycles: int = 0) -> dict:
        """JSON-ready summary block for ``interconnect_stats``."""
        summary = {
            "packets": self.packets_sent,
            "flits": self.flits_sent,
            "average_hops": round(self.average_hops, 3),
            "latency_percentiles": self.latency_percentiles(),
            "router_contention": {str(node): count for node, count
                                  in sorted(self.router_contention.items())},
            "links": {name: link.as_dict()
                      for name, link in sorted(self.links.items())},
        }
        if elapsed_cycles > 0:
            summary["link_utilization"] = self.link_utilization(elapsed_cycles)
        return summary
