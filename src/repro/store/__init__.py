"""repro.store — the persistent sweep observatory substrate.

Three pieces that turn :class:`~repro.api.runner.ExperimentRunner` sweeps
from fire-and-forget scripts into an incremental, observable service:

* :mod:`repro.store.hashing` — stable content keys for scenarios
  (:func:`scenario_key`): canonicalized config + workload name + params +
  seed, salted with a code version;
* :mod:`repro.store.store` — :class:`ResultStore`, the SQLite-backed,
  schema-versioned, corruption-tolerant result cache (``get``/``put``/
  ``invalidate``); re-running an unchanged scenario is a cache hit, a
  killed sweep resumes from what it already completed;
* :mod:`repro.store.telemetry` — :class:`SweepEvent` structured worker
  events, the JSONL event log, and :class:`SweepMonitor`'s live progress
  line + straggler/failure summary.

The query front door over all of it is ``python -m repro.analysis.serve``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".hashing": ["UncacheableScenarioError", "canonical_scenario",
                 "canonical_value", "default_code_version", "scenario_key"],
    ".store": ["DEFAULT_FILENAME", "SCHEMA_VERSION", "ResultStore"],
    ".telemetry": ["EVENT_KINDS", "TERMINAL_KINDS", "SweepEvent",
                   "SweepMonitor", "read_events", "sweep_progress"],
})

__all__ = [
    "DEFAULT_FILENAME",
    "EVENT_KINDS",
    "ResultStore",
    "SCHEMA_VERSION",
    "SweepEvent",
    "SweepMonitor",
    "TERMINAL_KINDS",
    "UncacheableScenarioError",
    "canonical_scenario",
    "canonical_value",
    "default_code_version",
    "read_events",
    "scenario_key",
    "sweep_progress",
]
