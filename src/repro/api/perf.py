"""The bench ledger: what each evaluation bench *simulated*, in ``BENCH_kernel.json``.

Every run says two things: how fast it was on this host, and what it
simulated.  Host time is noisy and belongs to ``perfbench/`` (repeated
runs, median and IQR); this module persists only the exact half:

* :class:`BenchResult` — one ``bench/scenario`` row: the scenario's
  parameters, its simulated time and cycles and the four kernel scheduler
  counters, taken from a :class:`~repro.soc.stats.SimulationReport` or a
  :class:`~repro.api.scenario.ScenarioResult`;
* :class:`PerfRecorder` — a keyed, merge-on-write collector, so the
  benches (and partial runs) compose into one file;
* :func:`load_bench_entries` — the one reader of that file.

Every field is deterministic for fixed-seed scenarios, so regenerating
the file on any host gives the same bytes and a diff of it means simulated
behaviour moved; :mod:`repro.analysis.bench_compare` is the exact
comparator CI gates on.  The file lives at the repository root by default;
override with the ``REPRO_BENCH_JSON`` environment variable or the ``path``
argument.  :class:`PerfTimer` is the stopwatch the benches use for the
host-time tables they print themselves.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..kernel.simulator import SimulationStats
from ..store.store import plain_value

SCHEMA = "repro.api.perf/v2"

#: Environment variable overriding the default output path.
ENV_PATH = "REPRO_BENCH_JSON"
DEFAULT_PATH = "BENCH_kernel.json"

#: The deterministic fields of a row beside its key and ``params``.
LEDGER_FIELDS = ("simulated_time", "simulated_cycles") + SimulationStats.COUNTERS


class BenchFileError(ValueError):
    """A bench file exists but is not a ledger this version can read."""


def bench_json_path(path: Optional[str] = None) -> str:
    """Resolve the output path: argument > ``REPRO_BENCH_JSON`` > default."""
    return path or os.environ.get(ENV_PATH) or DEFAULT_PATH


class PerfTimer:
    """Context-manager stopwatch: ``with PerfTimer() as t: ...; t.seconds``."""

    __slots__ = ("start", "seconds")

    def __init__(self) -> None:
        self.start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "PerfTimer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.start


@dataclass
class BenchResult:
    """One ledger row: what a bench scenario simulated."""

    #: Bench the record belongs to (e.g. ``"e4_scaling"``).
    bench: str
    #: Scenario label, unique within the bench.
    scenario: str
    #: Parameters / grid overrides of the scenario.
    params: Dict[str, object] = field(default_factory=dict)
    #: Simulated time units covered (0 for kernel-less micro benches).
    simulated_time: int = 0
    #: Simulated cycles covered.
    simulated_cycles: int = 0
    #: Kernel scheduler counters (0 for kernel-less micro benches).
    delta_cycles: int = 0
    timed_steps: int = 0
    process_activations: int = 0
    events_fired: int = 0

    @property
    def key(self) -> str:
        """Merge key of the record inside the JSON file."""
        return f"{self.bench}/{self.scenario}"

    def as_dict(self) -> dict:
        """JSON-ready view."""
        row = {
            "bench": self.bench,
            "scenario": self.scenario,
            "params": {key: plain_value(value)
                       for key, value in self.params.items()},
        }
        row.update((name, getattr(self, name)) for name in LEDGER_FIELDS)
        return row

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_report(cls, bench: str, scenario: str, report,
                    params: Optional[Dict[str, object]] = None) -> "BenchResult":
        """Build a record from a :class:`~repro.soc.stats.SimulationReport`."""
        return cls(
            bench=bench,
            scenario=scenario,
            params=dict(params or {}),
            simulated_time=report.simulated_time,
            simulated_cycles=report.simulated_cycles,
            **{counter: int(count) for counter, count in report.cost().items()},
        )

    @classmethod
    def from_scenario_result(cls, bench: str, result) -> "BenchResult":
        """Build a record from a passed :class:`ScenarioResult`."""
        return cls.from_report(bench, result.scenario, result.report,
                               params=dict(result.overrides, **result.params))


class PerfRecorder:
    """Collects :class:`BenchResult` records and merges them into the JSON file.

    Records are keyed by ``bench/scenario``: re-running a bench (or one
    bench out of eleven) updates only its own entries, so the file
    accumulates a complete picture across partial runs.
    """

    def __init__(self, bench: str, path: Optional[str] = None) -> None:
        self.bench = bench
        self.path = bench_json_path(path)
        self.records: list = []

    # -- recording -----------------------------------------------------------
    def record(self, result: BenchResult) -> BenchResult:
        """Add one record (without writing; call :meth:`flush`)."""
        self.records.append(result)
        return result

    def record_results(self, results: Iterable) -> None:
        """Record every passed scenario result of an experiment run."""
        for result in results:
            if result.report is not None:
                self.record(BenchResult.from_scenario_result(self.bench, result))

    def record_cycles(self, scenario: str, simulated_cycles: int,
                      params: Optional[Dict[str, object]] = None) -> BenchResult:
        """Record a cycle-only row (micro benches that drive no kernel)."""
        return self.record(BenchResult(
            self.bench, scenario, params=dict(params or {}),
            simulated_cycles=simulated_cycles))

    # -- persistence ---------------------------------------------------------
    def flush(self) -> str:
        """Merge the collected records into the JSON file; returns the path.

        Crash-safe and concurrent-safe: the read-merge-write cycle runs
        under an exclusive lock file (so two bench processes flushing the
        same file cannot drop each other's rows) and the new content lands
        via a uniquely named temp file + atomic ``os.replace`` (so a crash
        mid-write never leaves a truncated ``BENCH_kernel.json`` behind).
        A file that exists but is not a ledger raises
        :class:`BenchFileError` and is left as found.
        """
        with _flush_lock(self.path):
            entries = load_bench_entries(self.path)
            for record in self.records:
                entries[record.key] = record.as_dict()
            payload = {"schema": SCHEMA, "count": len(entries),
                       "entries": entries}
            directory = os.path.dirname(os.path.abspath(self.path))
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=os.path.basename(self.path) + ".",
                suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, indent=1, sort_keys=True)
                    handle.write("\n")
                os.replace(tmp_path, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
                raise
        return self.path


#: Seconds a flush waits for a competing process's lock before failing.
_LOCK_TIMEOUT_S = 30.0
#: A lock file older than this is presumed abandoned (crashed holder).
_LOCK_STALE_S = 60.0


@contextlib.contextmanager
def _flush_lock(path: str):
    """Exclusive cross-process lock guarding one bench file's flush cycle.

    Portable stdlib locking: ``O_CREAT | O_EXCL`` on a ``<path>.lock``
    sidecar — the creation either succeeds atomically or raises.  Waiters
    back off briefly and retry; a lock whose mtime is older than
    ``_LOCK_STALE_S`` is treated as abandoned by a crashed holder and
    broken.  The break itself is an atomic rename to a per-process name,
    so when several waiters observe the same stale lock exactly one of
    them removes it — a slow waiter can never unlink the *fresh* lock a
    faster waiter just created.  Raises ``TimeoutError`` after
    ``_LOCK_TIMEOUT_S`` so a stuck lock is a loud failure, not a silent
    hang.
    """
    lock_path = f"{path}.lock"
    deadline = time.monotonic() + _LOCK_TIMEOUT_S
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if _break_stale_lock(lock_path):
                continue
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"could not acquire {lock_path} within "
                    f"{_LOCK_TIMEOUT_S:.0f}s; remove it if its owner died"
                ) from None
            time.sleep(0.01)  # noqa: RC002 - host-side lock backoff
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{os.getpid()}\n")
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)


def _break_stale_lock(lock_path: str) -> bool:
    """Atomically remove ``lock_path`` if abandoned; True when broken.

    The removal renames the lock to a unique per-process name — rename is
    atomic, so of any number of waiters racing on the same stale lock at
    most one succeeds and the rest see ``FileNotFoundError``.  After the
    rename the captured file's identity is compared against the pre-check
    stat: if a fresh lock replaced the stale one between stat and rename
    (the lost-update window of a naive unlink) the live lock is restored
    via ``os.link`` — which fails instead of clobbering if yet another
    lock appeared meanwhile — and the break is not claimed.
    """
    try:
        stat = os.stat(lock_path)
    except OSError:
        return True  # gone already: retry acquisition
    if time.time() - stat.st_mtime <= _LOCK_STALE_S:
        return False
    grabbed = f"{lock_path}.break.{os.getpid()}"
    try:
        os.rename(lock_path, grabbed)
    except OSError:
        return False  # another waiter won the break (or the holder left)
    try:
        taken = os.stat(grabbed)
        if (taken.st_ino, taken.st_mtime) == (stat.st_ino, stat.st_mtime):
            return True  # we removed exactly the stale lock we measured
        # We grabbed a *fresh* lock created inside the stat->rename
        # window: hand it back without clobbering any newer one.
        with contextlib.suppress(OSError):
            os.link(grabbed, lock_path)
        return False
    finally:
        with contextlib.suppress(OSError):
            os.unlink(grabbed)


def load_bench_entries(path: Optional[str] = None) -> Dict[str, dict]:
    """The ``bench/scenario`` rows of a ledger file (empty if absent).

    A file that is there but does not parse, is not a JSON object, carries
    another schema or has no ``entries`` map raises :class:`BenchFileError`
    naming the path and what was found.
    """
    resolved = bench_json_path(path)
    if not os.path.exists(resolved):
        return {}
    try:
        with open(resolved) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchFileError(f"{resolved}: unreadable ({error})") from error
    if not isinstance(payload, dict):
        found = f"a JSON {type(payload).__name__}, not an object"
    elif payload.get("schema") != SCHEMA:
        found = f"schema {payload.get('schema')!r}"
    elif not isinstance(payload.get("entries"), dict):
        found = "no 'entries' map"
    else:
        return payload["entries"]
    raise BenchFileError(
        f"{resolved}: not a {SCHEMA} ledger ({found}); regenerate it with "
        f"`python -m pytest -q benchmarks/bench_e*.py --quick`")
