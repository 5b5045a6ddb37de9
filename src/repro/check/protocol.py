"""Cheap protocol checkers riding the sanitizer suite's probe subscriptions.

Unlike the happens-before analysis these are simple state machines:

* **lock-leak** — an allocation's reservation bit still held when the
  simulation ends (the embedded analog of a mutex destroyed while
  locked);
* **reserve-reentry** — a master RESERVEs an allocation it already
  holds (the wrapper serialises the two, but the software pattern is a
  self-deadlock on a real semaphore);
* **port-lifecycle** — a master port issues a transfer while one is
  outstanding, or completes one that was never issued (a corrupted
  issue/complete pairing would silently skew every latency statistic);
* **register-misuse** — writes to documented read-only registers and
  sub-word accesses to register windows (both silently ignored or
  NACKed by the hardware model, so software bugs of this class are
  invisible without a checker);
* **coherence** (:class:`CoherenceChecker`) — two L1 caches must never
  hold dirty copies of overlapping bytes of one allocation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .report import AccessSite, ReportSink, SanitizerReport


class ProtocolChecker:
    """Lock, port-lifecycle and register-misuse state machines."""

    def __init__(self, sink: ReportSink) -> None:
        self.sink = sink
        #: (mem_index, alloc uid) -> (holder label, vptr, acquire site).
        self.held: Dict[Tuple[int, int], Tuple[str, int, AccessSite]] = {}
        #: id(port) -> (label, outstanding issue count, last issue time).
        self._ports: Dict[int, Tuple[str, int, int]] = {}
        self.lock_leaks = 0
        self.reentries = 0
        self.lifecycle_violations = 0
        self.register_misuses = 0

    # -- reservations ------------------------------------------------------------
    def reserved(self, key: Tuple[int, int], label: str, vptr: int,
                 site: AccessSite) -> None:
        holder = self.held.get(key)
        if holder is not None and holder[0] == label:
            self.reentries += 1
            self.sink.emit(SanitizerReport(
                checker="reserve-reentry",
                message=(f"{label} RESERVEs smem{key[0]} vptr={vptr:#x} "
                         f"while already holding it (self-deadlock on a "
                         f"real semaphore)"),
                time=site.time,
                sites=[holder[2], site],
            ))
            return
        self.held[key] = (label, vptr, site)

    def released(self, key: Tuple[int, int]) -> None:
        self.held.pop(key, None)

    def freed(self, key: Tuple[int, int]) -> None:
        """FREE of a reserved allocation implicitly drops the bit."""
        self.held.pop(key, None)

    # -- master-port lifecycle -----------------------------------------------------
    def port_issued(self, port: object, label: str, time: int,
                    site: Optional[AccessSite] = None) -> None:
        name, outstanding, _ = self._ports.get(id(port), (label, 0, 0))
        if outstanding:
            self.lifecycle_violations += 1
            self.sink.emit(SanitizerReport(
                checker="port-lifecycle",
                message=(f"{name} issues a transfer with {outstanding} "
                         f"still outstanding (master ports are single-"
                         f"outstanding by contract)"),
                time=time,
                sites=[site] if site is not None else [],
            ))
        self._ports[id(port)] = (label, outstanding + 1, time)

    def port_completed(self, port: object, label: str, time: int) -> None:
        name, outstanding, issue_time = self._ports.get(id(port),
                                                        (label, 0, 0))
        if outstanding <= 0:
            self.lifecycle_violations += 1
            self.sink.emit(SanitizerReport(
                checker="port-lifecycle",
                message=(f"{name} completes a transfer that was never "
                         f"issued"),
                time=time,
                sites=[],
            ))
            return
        self._ports[id(port)] = (name, outstanding - 1, issue_time)

    # -- register misuse -----------------------------------------------------------
    def register_misuse(self, message: str, site: AccessSite) -> None:
        self.register_misuses += 1
        self.sink.emit(SanitizerReport(
            checker="register-misuse",
            message=message,
            time=site.time,
            sites=[site],
        ))

    # -- end of simulation -----------------------------------------------------------
    def finish(self, now: int) -> None:
        for (mem_index, _uid), (label, vptr, site) in sorted(
                self.held.items(), key=lambda item: item[0]):
            self.lock_leaks += 1
            self.sink.emit(SanitizerReport(
                checker="lock-leak",
                message=(f"smem{mem_index} vptr={vptr:#x} is still "
                         f"RESERVEd by {label} at the end of the "
                         f"simulation (missing release)"),
                time=now,
                sites=[site],
            ))


class CoherenceChecker:
    """Invariant: never two dirty L1 copies of overlapping bytes."""

    def __init__(self, sink: ReportSink, caches: List[object]) -> None:
        self.sink = sink
        self.caches = list(caches)
        self.violations = 0
        self._reported: set = set()

    def scan(self, now: int) -> int:
        """Check every pair of caches; returns violations found this scan."""
        found = 0
        for index, cache in enumerate(self.caches):
            for line in cache.lines:
                if not line.has_dirty():
                    continue
                for other_cache in self.caches[index + 1:]:
                    for other in other_cache.lines.overlapping(
                            line.mem_index, line.lo_byte, line.hi_byte):
                        if not other.has_dirty():
                            continue
                        key = (cache.master_id, other_cache.master_id,
                               line.mem_index, line.alloc.uid, line.line_no)
                        if key in self._reported:
                            continue
                        self._reported.add(key)
                        self.violations += 1
                        found += 1
                        self.sink.emit(SanitizerReport(
                            checker="coherence",
                            message=(f"dirty-dirty: caches of master "
                                     f"{cache.master_id} and master "
                                     f"{other_cache.master_id} both hold "
                                     f"dirty bytes of smem{line.mem_index} "
                                     f"vptr={line.alloc.vptr:#x} "
                                     f"[{line.lo_byte:#x}, "
                                     f"{line.hi_byte:#x})"),
                            time=now,
                            sites=[
                                AccessSite(
                                    master=f"master{cache.master_id}",
                                    op="dirty line",
                                    time=now, mem_index=line.mem_index,
                                    vptr=line.alloc.vptr),
                                AccessSite(
                                    master=f"master{other_cache.master_id}",
                                    op="dirty line",
                                    time=now, mem_index=other.mem_index,
                                    vptr=other.alloc.vptr),
                            ],
                        ))
        return found
