"""Typed trace events in simulated time, with a bounded collector.

The trace model follows the Chrome trace-event phases the exporter emits:

* ``"X"`` **complete events** — spans with a start timestamp and a
  duration (task execution, fabric transactions, DMA bursts, IRQ waits,
  ``ctx.span`` workload annotations);
* ``"i"`` **instants** — point events (IRQ raise, cache fill/writeback);
* ``"C"`` **counters** — the metrics sampler's per-interval values.

Timestamps and durations are simulated picoseconds.  Every event carries
a ``track`` — a ``(group, lane)`` pair the exporter maps onto Perfetto's
``pid``/``tid`` axes, e.g. ``("pes", "mpsoc.pe0")`` or
``("fabric", "pe1_port")``.

:class:`TraceCollector` is a plain append buffer: bounded (keep-first;
overflow increments :attr:`~TraceCollector.dropped`) and category
filtered at emission.  It never touches the simulator, so collecting a
trace cannot perturb simulated time or scheduler counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class TraceEvent:
    """One timeline event, in simulated time.

    ``ph`` is the Chrome trace-event phase (``"X"``, ``"i"`` or ``"C"``);
    ``ts`` and ``dur`` are simulated picoseconds; ``track`` is the
    ``(group, lane)`` pair the exporter maps to ``pid``/``tid``.  Slotted
    and built positionally, since a traced run makes one per transfer;
    nothing mutates an event once it is emitted.
    """

    ph: str
    name: str
    cat: str
    ts: int
    track: Tuple[str, str]
    dur: int = 0
    args: dict = field(default_factory=dict)


class TraceCollector:
    """Bounded, category-filtered buffer of :class:`TraceEvent`.

    ``categories=None`` keeps every category.  When the buffer reaches
    ``max_events`` the *earliest* events are kept and later ones are
    counted in :attr:`dropped` — the timeline stays contiguous from t=0,
    and the drop counter makes the truncation visible.
    """

    def __init__(self, max_events: int = 200_000,
                 categories: Optional[Tuple[str, ...]] = None) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.categories = None if categories is None else frozenset(categories)
        self.events: List[TraceEvent] = []
        #: Events rejected by the bounded buffer (not by category filters).
        self.dropped = 0
        #: Events rejected by the category filter.
        self.filtered = 0

    # -- emission -----------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> bool:
        """Append ``event``; returns False if filtered or dropped."""
        if self.categories is not None and event.cat not in self.categories:
            self.filtered += 1
            return False
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return False
        self.events.append(event)
        return True

    def complete(self, name: str, cat: str, ts: int, dur: int,
                 track: Tuple[str, str], **args) -> bool:
        """Record a span (``"X"`` complete event) of ``dur`` ps at ``ts``."""
        return self.emit(TraceEvent("X", name, cat, ts, track, dur, args))

    def instant(self, name: str, cat: str, ts: int,
                track: Tuple[str, str], **args) -> bool:
        """Record a point event (``"i"`` instant) at ``ts``."""
        return self.emit(TraceEvent("i", name, cat, ts, track, 0, args))

    def counter(self, name: str, cat: str, ts: int,
                track: Tuple[str, str], values: Dict[str, float]) -> bool:
        """Record a ``"C"`` counter sample (one series per key)."""
        return self.emit(TraceEvent("C", name, cat, ts, track, 0,
                                    dict(values)))

    # -- inspection ---------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def by_category(self, cat: str) -> List[TraceEvent]:
        """Events of one category, in emission order."""
        return [event for event in self.events if event.cat == cat]

    def summary(self) -> dict:
        """Event/drop counts, keyed for ``SimulationReport.obs_summary``."""
        per_cat: Dict[str, int] = {}
        for event in self.events:
            per_cat[event.cat] = per_cat.get(event.cat, 0) + 1
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "filtered": self.filtered,
            "by_category": dict(sorted(per_cat.items())),
        }
