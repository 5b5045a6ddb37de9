"""repro.check: simulation sanitizers and a static lint for task code.

Two heads:

* **Runtime sanitizers** (:class:`SanitizerSuite`, armed by a
  :class:`CheckConfig` on ``PlatformConfig.check`` / the builder's
  ``.sanitize()``): a happens-before data-race detector over fabric
  transactions plus cheap protocol checkers (lock leaks, reserve
  re-entry, port lifecycle, register misuse, L1 dirty-dirty coherence).
  Findings land in ``SimulationReport.sanitizer_reports``.
* **Static lint** (:mod:`repro.check.lint`, ``python -m
  repro.check.lint``): an AST rule registry that flags un-consumed
  generator-API calls (missing ``yield from``), nondeterminism
  (``time.sleep``, unseeded ``random``) and ``reserve`` without
  ``release`` in workload/task code.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ["CheckConfig"],
    ".race": ["RaceDetector"],
    ".report": ["AccessSite", "ReportSink", "SanitizerReport"],
    ".protocol": ["CoherenceChecker", "ProtocolChecker"],
    ".suite": ["SanitizerSuite", "workload_frames"],
    ".vclock": ["VectorClock"],
})

__all__ = [
    "AccessSite",
    "CheckConfig",
    "CoherenceChecker",
    "ProtocolChecker",
    "RaceDetector",
    "ReportSink",
    "SanitizerReport",
    "SanitizerSuite",
    "VectorClock",
    "workload_frames",
]
