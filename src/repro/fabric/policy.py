"""Pluggable arbitration policies of the interconnect fabric.

An arbitration policy chooses which of the masters with a pending request
is granted the contended resource for the next transfer.  Policies are
plain strategy objects, deliberately stateless with respect to the kernel:
the fabric invokes :meth:`ArbitrationPolicy.grant` with the sorted ids of
the requesters and applies the decision, which makes policies trivial to
unit-test and to swap in configuration sweeps.

Four families are provided:

* :class:`RoundRobinArbiter` — fair rotation, the platform default.
* :class:`FixedPriorityArbiter` — lower master id (or an explicit priority
  list) always wins; simple but can starve.
* :class:`WeightedRoundRobinArbiter` — rotation with per-master grant
  budgets: a master keeps the grant for up to ``weight`` consecutive
  transfers before the rotation moves on, so bandwidth shares follow the
  weights while every requester still gets its turn (starvation-free).
* :class:`TdmaArbiter` — time-division slots, useful for predictable MPSoC
  interconnects (work-conserving: an idle slot falls back to round-robin).

Because a fabric may have *several* arbitration points (one per crossbar
channel, one per mesh slave), policies are usually described by an
:class:`ArbitrationSpec` — a small, picklable value object the fabric turns
into fresh policy instances wherever it needs one (its :meth:`create` is
the one factory).  :data:`POLICY_KINDS` holds the one spelling of each
kind: ``PlatformConfig.arbitration``, ``PlatformBuilder.arbitration()`` and
the spec take exactly these strings and reject anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union


class ArbitrationPolicy:
    """Interface shared by all arbitration policies."""

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        """Pick one master id from ``requesters`` (empty → ``None``)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any internal rotation/slot state."""


class FixedPriorityArbiter(ArbitrationPolicy):
    """Grants the requester with the highest static priority.

    By default lower master ids have higher priority; an explicit priority
    order (most-important first) may be supplied instead.
    """

    def __init__(self, priority_order: Optional[Sequence[int]] = None) -> None:
        self._order = list(priority_order) if priority_order is not None else None
        self.grant_counts: Dict[int, int] = {}

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        if not requesters:
            return None
        if self._order is None:
            winner = min(requesters)
        else:
            ranked = [m for m in self._order if m in requesters]
            winner = ranked[0] if ranked else min(requesters)
        self.grant_counts[winner] = self.grant_counts.get(winner, 0) + 1
        return winner

    def reset(self) -> None:
        self.grant_counts.clear()


class RoundRobinArbiter(ArbitrationPolicy):
    """Rotating-priority arbitration: the last granted master becomes lowest."""

    def __init__(self) -> None:
        self._last_granted: Optional[int] = None
        self.grant_counts: Dict[int, int] = {}

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        if not requesters:
            return None
        if len(requesters) == 1:
            winner = requesters[0]  # whatever the rotation says: no sort
        else:
            ordered = sorted(requesters)
            last = self._last_granted
            after = [] if last is None else [m for m in ordered if m > last]
            winner = after[0] if after else ordered[0]
        self._last_granted = winner
        self.grant_counts[winner] = self.grant_counts.get(winner, 0) + 1
        return winner

    def reset(self) -> None:
        self._last_granted = None
        self.grant_counts.clear()


class WeightedRoundRobinArbiter(ArbitrationPolicy):
    """Round-robin rotation with per-master consecutive-grant budgets.

    ``weights`` maps master ids to their budget (a sequence indexed by
    master id, or a mapping); masters not covered get ``default_weight``.
    While the current owner keeps requesting and has budget left, it keeps
    the grant; once the budget is spent (or the owner goes idle) the
    rotation advances to the next requester, which receives a fresh budget.
    Bandwidth shares approach the weight ratio under saturation, yet no
    requester ever waits more than the sum of the other masters' weights —
    the policy is starvation-free for any positive weights.
    """

    def __init__(self,
                 weights: Union[Sequence[int], Dict[int, int], None] = None,
                 default_weight: int = 1) -> None:
        if default_weight < 1:
            raise ValueError("default weight must be >= 1")
        if weights is None:
            resolved: Dict[int, int] = {}
        elif isinstance(weights, dict):
            resolved = dict(weights)
        else:
            resolved = dict(enumerate(weights))
        for master, weight in resolved.items():
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"weight of master {master} must be a positive integer, "
                    f"got {weight!r}"
                )
        self._weights = resolved
        self._default_weight = default_weight
        self._current: Optional[int] = None
        self._budget = 0
        self.grant_counts: Dict[int, int] = {}

    def weight_of(self, master_id: int) -> int:
        """Grant budget of ``master_id`` (``default_weight`` if unlisted)."""
        return self._weights.get(master_id, self._default_weight)

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        if not requesters:
            return None
        if (self._current is not None and self._budget > 0
                and self._current in requesters):
            winner = self._current
        else:
            ordered = sorted(requesters)
            if self._current is None:
                winner = ordered[0]
            else:
                after = [m for m in ordered if m > self._current]
                winner = after[0] if after else ordered[0]
            self._current = winner
            self._budget = self.weight_of(winner)
        self._budget -= 1
        self.grant_counts[winner] = self.grant_counts.get(winner, 0) + 1
        return winner

    def reset(self) -> None:
        self._current = None
        self._budget = 0
        self.grant_counts.clear()


class TdmaArbiter(ArbitrationPolicy):
    """Time-division arbitration over a fixed slot schedule.

    The schedule is a list of master ids; each call to :meth:`grant` advances
    to the next slot.  If the slot owner is not requesting, the policy falls
    back to round-robin among the requesters (work-conserving TDMA).
    """

    def __init__(self, schedule: Sequence[int]) -> None:
        if not schedule:
            raise ValueError("TDMA schedule must contain at least one slot")
        self._schedule = list(schedule)
        self._slot = 0
        self._fallback = RoundRobinArbiter()
        self.grant_counts: Dict[int, int] = {}
        self.slot_misses = 0

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        if not requesters:
            # The slot still elapses even when nobody is requesting.
            self._slot = (self._slot + 1) % len(self._schedule)
            return None
        owner = self._schedule[self._slot]
        self._slot = (self._slot + 1) % len(self._schedule)
        if owner in requesters:
            winner = owner
        else:
            self.slot_misses += 1
            winner = self._fallback.grant(requesters)
        self.grant_counts[winner] = self.grant_counts.get(winner, 0) + 1
        return winner

    def reset(self) -> None:
        self._slot = 0
        self._fallback.reset()
        self.grant_counts.clear()
        self.slot_misses = 0


#: The policy kinds: the one spelling of each, for every config layer.
POLICY_KINDS = ("round_robin", "fixed_priority", "weighted_round_robin",
                "tdma")


def check_kind(kind: object) -> None:
    """Raise ``ValueError`` unless ``kind`` is one of :data:`POLICY_KINDS`."""
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown arbitration policy {kind!r}; use one of "
                         f"{list(POLICY_KINDS)}")


@dataclass(frozen=True)
class ArbitrationSpec:
    """Picklable description of an arbitration policy family.

    A fabric may need many policy instances (one per crossbar channel, one
    per mesh slave); the spec is the single source they are all
    created from, so every arbitration point applies the same rules.
    """

    #: Policy kind: one of :data:`POLICY_KINDS`.
    kind: str = "round_robin"
    #: Fixed-priority order, most important first (``None`` = by master id).
    priority_order: Optional[Tuple[int, ...]] = None
    #: Weighted-RR budgets indexed by master id (``None`` = all ones).
    weights: Optional[Tuple[int, ...]] = None
    #: TDMA slot schedule (required for ``kind="tdma"``).
    schedule: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        check_kind(self.kind)
        for name in ("priority_order", "weights", "schedule"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))

    def create(self) -> ArbitrationPolicy:
        """A fresh policy instance implementing this spec."""
        if self.kind == "round_robin":
            return RoundRobinArbiter()
        if self.kind == "fixed_priority":
            return FixedPriorityArbiter(self.priority_order)
        if self.kind == "weighted_round_robin":
            return WeightedRoundRobinArbiter(self.weights)
        assert self.kind == "tdma"
        if not self.schedule:
            raise ValueError("TDMA arbitration needs a slot schedule")
        return TdmaArbiter(self.schedule)

    @classmethod
    def coerce(cls, value: Union["ArbitrationSpec", str, None]
               ) -> "ArbitrationSpec":
        """Normalize ``None`` / a kind string / a spec into a spec."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"arbitration must be an ArbitrationSpec, a policy kind string "
            f"or None, got {type(value).__name__}"
        )
