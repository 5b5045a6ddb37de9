"""Live sweep telemetry: structured worker events, JSONL log, progress.

A sharded sweep used to be a black box until it returned; this module makes
the fleet observable.  Workers (and the runner itself) emit
:class:`SweepEvent` records — ``scheduled`` / ``started`` / ``heartbeat`` /
``cache_hit`` / ``finished`` / ``failed`` / ``timeout`` — which a
:class:`SweepMonitor` folds into:

* a **JSONL event log** written next to the result store (one event per
  line, append-only, corrupt lines skipped on read), the durable record a
  dashboard or a post-mortem reads;
* a **live progress line** (``\\r``-rewritten on TTYs) showing done /
  cached / failed / running counts and elapsed host time;
* an **end-of-sweep summary** naming the stragglers (slowest scenarios)
  and every failure.

Every scenario appears in the log exactly once per terminal state: one
``scheduled`` plus exactly one of ``cache_hit`` / ``finished`` / ``failed``
/ ``timeout``; ``started`` and ``heartbeat`` events in between carry the
liveness signal for long runs.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO

#: Terminal states: exactly one of these per scenario per sweep.
TERMINAL_KINDS = ("cache_hit", "finished", "failed", "timeout")

#: Every event kind the log may contain.
EVENT_KINDS = ("sweep_begin", "scheduled", "started", "heartbeat",
               *TERMINAL_KINDS, "sweep_end")


@dataclass(frozen=True)
class SweepEvent:
    """One structured telemetry record of a sweep."""

    #: Event kind (one of :data:`EVENT_KINDS`).
    kind: str
    #: Scenario name the event concerns ("" for sweep-level events).
    scenario: str = ""
    #: Position of the scenario in the experiment list (-1 for sweep-level).
    index: int = -1
    #: Wall-clock timestamp (``time.time()``) at emission.
    wall_time: float = 0.0
    #: Host seconds attributable to the event (run duration, heartbeat age).
    host_seconds: float = 0.0
    #: Small key counters (simulated cycles, total scenarios, ...).
    counters: Dict[str, object] = field(default_factory=dict)
    #: Free-text detail (error message, timeout description).
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown sweep event kind {self.kind!r}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "index": self.index,
            "wall_time": self.wall_time,
            "host_seconds": self.host_seconds,
            "counters": dict(self.counters),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepEvent":
        return cls(
            kind=str(payload.get("kind", "")),
            scenario=str(payload.get("scenario", "")),
            index=int(payload.get("index", -1)),
            wall_time=float(payload.get("wall_time", 0.0)),
            host_seconds=float(payload.get("host_seconds", 0.0)),
            counters=dict(payload.get("counters") or {}),
            detail=str(payload.get("detail", "")),
        )

    @classmethod
    def now(cls, kind: str, scenario: str = "", index: int = -1, *,
            host_seconds: float = 0.0,
            counters: Optional[Dict[str, object]] = None,
            detail: str = "") -> "SweepEvent":
        """Build an event stamped with the current wall clock."""
        return cls(kind=kind, scenario=scenario, index=index,
                   wall_time=time.time(), host_seconds=host_seconds,
                   counters=dict(counters or {}), detail=detail)


def read_events(path: str) -> List[SweepEvent]:
    """Parse a JSONL event log; unreadable lines are skipped, not fatal."""
    events: List[SweepEvent] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    events.append(SweepEvent.from_dict(payload))
                except (ValueError, TypeError):
                    continue
    except OSError:
        return []
    return events


def sweep_progress(events: List[SweepEvent]) -> dict:
    """Fold an event stream into one progress snapshot.

    Returns total / per-state counts, the currently running scenarios with
    the age of their last liveness signal, the slowest finished scenarios
    (``stragglers``) and every failure — the payload behind the monitor's
    progress line and the dashboard's ``/api/progress``.
    """
    total: Optional[int] = None
    state: Dict[str, str] = {}
    last_signal: Dict[str, float] = {}
    host_seconds: Dict[str, float] = {}
    failures: List[dict] = []
    ended = False
    for event in events:
        if event.kind == "sweep_begin":
            counted = event.counters.get("total")
            total = int(counted) if isinstance(counted, (int, float)) else None
            continue
        if event.kind == "sweep_end":
            ended = True
            continue
        name = event.scenario
        if event.kind == "scheduled":
            state.setdefault(name, "scheduled")
        elif event.kind == "started":
            state[name] = "running"
            last_signal[name] = event.wall_time
        elif event.kind == "heartbeat":
            last_signal[name] = event.wall_time
            host_seconds[name] = event.host_seconds
        elif event.kind in TERMINAL_KINDS:
            state[name] = event.kind
            host_seconds[name] = event.host_seconds
            if event.kind in ("failed", "timeout"):
                failures.append({"scenario": name, "kind": event.kind,
                                 "detail": event.detail})
    counts = {kind: 0 for kind in ("scheduled", "running", *TERMINAL_KINDS)}
    for value in state.values():
        counts[value] = counts.get(value, 0) + 1
    now = time.time()
    running = [{"scenario": name,
                "last_signal_age_s": round(max(0.0, now - stamp), 3)}
               for name, stamp in sorted(last_signal.items())
               if state.get(name) == "running"]
    done = counts["finished"] + counts["failed"] + counts["timeout"]
    stragglers = sorted(
        ({"scenario": name, "host_seconds": seconds}
         for name, seconds in host_seconds.items()
         if state.get(name) in ("finished", "failed", "timeout")),
        key=lambda row: -row["host_seconds"])
    return {
        "total": total if total is not None else len(state),
        "counts": counts,
        "done": done + counts["cache_hit"],
        "ended": ended,
        "running": running,
        "stragglers": stragglers[:5],
        "failures": failures,
    }


class SweepMonitor:
    """Receives sweep events: logs them, renders live progress, summarizes.

    ``log_path`` appends every event as one JSON line (the durable record);
    ``stream`` receives the live progress line, rewritten in place when the
    stream is a TTY (or when ``live=True`` forces it) and silent otherwise,
    so batch logs are not flooded with carriage returns.
    """

    def __init__(self, *, log_path: Optional[str] = None,
                 stream: Optional[TextIO] = None,
                 live: Optional[bool] = None) -> None:
        self.log_path = log_path
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            live = bool(getattr(self.stream, "isatty", lambda: False)())
        self.live = live
        self.events: List[SweepEvent] = []
        self._log_handle = open(log_path, "a") if log_path else None
        self._started_monotonic = time.monotonic()

    # -- event intake --------------------------------------------------------
    def emit(self, event: SweepEvent) -> SweepEvent:
        """Record one event (log line + progress refresh); returns it."""
        self.events.append(event)
        if self._log_handle is not None:
            json.dump(event.as_dict(), self._log_handle,
                      separators=(",", ":"))
            self._log_handle.write("\n")
            self._log_handle.flush()
        if self.live:
            self.stream.write("\r" + self.progress_line())
            if event.kind == "sweep_end":
                self.stream.write("\n")
            self.stream.flush()
        return event

    def begin(self, total: int) -> None:
        self.emit(SweepEvent.now("sweep_begin", counters={"total": total}))

    def end(self) -> None:
        self.emit(SweepEvent.now("sweep_end",
                                 counters=dict(self.progress()["counts"])))

    def close(self) -> None:
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None

    def __enter__(self) -> "SweepMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- views ---------------------------------------------------------------
    def progress(self) -> dict:
        """Current progress snapshot (see :func:`sweep_progress`)."""
        return sweep_progress(self.events)

    def progress_line(self) -> str:
        """One-line live progress summary."""
        snapshot = self.progress()
        counts = snapshot["counts"]
        elapsed = time.monotonic() - self._started_monotonic
        return (f"sweep {snapshot['done']}/{snapshot['total']} done "
                f"({counts['cache_hit']} cached, {counts['failed']} failed, "
                f"{counts['timeout']} timed out) · "
                f"{counts['running']} running · {elapsed:.1f}s")

    def summary(self) -> dict:
        """End-of-sweep digest: counts, stragglers, failures."""
        return self.progress()
