"""Sanitizer findings: access sites and formatted reports.

Every runtime checker reports through these two dataclasses so the
platform report (:attr:`SimulationReport.sanitizer_reports`) carries one
uniform, JSON-ready shape and the CLI/tests can format any finding the
same way — always with *both* sites of a two-site finding (TSan style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: One workload stack frame: (filename, line, function).
Frame = Tuple[str, int, str]

#: An access as the checkers keep it until a finding names it: the
#: :class:`AccessSite` fields but the element (the reported word's own);
#: :func:`site_of` builds the site on emission.
Access = Tuple[str, str, int, int, int, List[Frame]]


@dataclass
class AccessSite:
    """One side of a finding: who touched what, when, and from where."""

    #: Actor label ("pe0", "dma0", "timer0"...).
    master: str
    #: What the actor did ("write", "read", "reserve", "irq raise"...).
    op: str
    #: Simulated time of the access.
    time: int
    #: Shared memory index (-1 when not memory-related).
    mem_index: int = -1
    #: Virtual pointer of the accessed allocation (0 when not applicable).
    vptr: int = 0
    #: Element index inside the allocation (-1 when not applicable).
    element: int = -1
    #: Workload traceback, innermost frame last (empty when stack capture
    #: is disabled or the actor has no generator chain).
    traceback: List[Frame] = field(default_factory=list)

    def location(self) -> str:
        if not self.traceback:
            return "<no workload frames>"
        filename, line, function = self.traceback[-1]
        return f"{filename}:{line} in {function}"

    def describe(self) -> str:
        where = ""
        if self.mem_index >= 0:
            where = f" smem{self.mem_index} vptr={self.vptr:#x}"
            if self.element >= 0:
                where += f"[{self.element}]"
        return (f"{self.master}: {self.op}{where} at t={self.time} "
                f"({self.location()})")

    def as_dict(self) -> dict:
        return {
            "master": self.master,
            "op": self.op,
            "time": self.time,
            "mem_index": self.mem_index,
            "vptr": self.vptr,
            "element": self.element,
            "traceback": [list(frame) for frame in self.traceback],
        }


def site_of(access: Access, element: int = -1) -> AccessSite:
    """The :class:`AccessSite` of ``access`` at ``element``."""
    master, op, time, mem_index, vptr, traceback = access
    return AccessSite(master, op, time, mem_index, vptr, element, traceback)


@dataclass
class SanitizerReport:
    """One finding of one checker, with every involved access site."""

    #: Which checker fired ("data-race", "lock-leak", "reserve-reentry",
    #: "port-lifecycle", "register-misuse", "coherence").
    checker: str
    #: One-line human summary of the finding.
    message: str
    #: Simulated time the finding was detected.
    time: int
    #: The involved access sites — two for a race (previous + current),
    #: one for protocol findings, one per dirty copy for coherence.
    sites: List[AccessSite] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"[{self.checker}] {self.message} (detected at t={self.time})"]
        lines.extend(f"  #{index} {site.describe()}"
                     for index, site in enumerate(self.sites))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "checker": self.checker,
            "message": self.message,
            "time": self.time,
            "sites": [site.as_dict() for site in self.sites],
        }


class ReportSink:
    """Bounded collector shared by every checker of one suite."""

    def __init__(self, max_reports: int) -> None:
        self.max_reports = max_reports
        self.reports: List[SanitizerReport] = []
        #: Findings seen, including those dropped past the cap.
        self.total = 0

    def emit(self, report: SanitizerReport) -> None:
        self.total += 1
        if len(self.reports) < self.max_reports:
            self.reports.append(report)

    @property
    def dropped(self) -> int:
        return self.total - len(self.reports)

    def by_checker(self, checker: str) -> List[SanitizerReport]:
        return [r for r in self.reports if r.checker == checker]

    def format(self) -> str:
        if not self.reports:
            return "sanitizers: no findings"
        parts = [report.format() for report in self.reports]
        if self.dropped:
            parts.append(f"... and {self.dropped} more finding(s) dropped "
                         f"(max_reports={self.max_reports})")
        return "\n".join(parts)

    def as_dicts(self) -> List[dict]:
        dicts = [report.as_dict() for report in self.reports]
        if self.dropped:
            dicts.append({
                "checker": "meta",
                "message": f"{self.dropped} finding(s) dropped past "
                           f"max_reports={self.max_reports}",
                "time": -1,
                "sites": [],
            })
        return dicts
