"""Experiment execution: serial or process-sharded scenario runs.

:class:`ExperimentRunner` executes a list of :class:`~repro.api.scenario.Scenario`
objects and returns one :class:`~repro.api.scenario.ScenarioResult` per
scenario, in scenario order, regardless of how the runs were scheduled:

* **serial** (the default): every scenario runs in this process — the right
  mode for speed measurements, where concurrent runs would steal host
  cycles from each other, and the only mode that can hand back the live
  ``Platform`` objects (``keep_platforms=True``);
* **sharded** (``shards > 1`` or ``timeout_s`` set): each scenario runs in
  its own child process, at most ``shards`` at a time, with an optional
  per-run wall-clock timeout enforced by terminating the child.  Results
  travel back as pickled reports, so sharded scenarios should reference
  their workloads by registry name (plain data pickles; closures only
  survive on fork-based platforms).  The scheduler blocks in
  :func:`multiprocessing.connection.wait` on the worker pipes — no polling
  loop burns host CPU while workers simulate.

Two optional collaborators turn a run into an *observable, incremental*
sweep (see :mod:`repro.store`):

* ``store=`` — a :class:`~repro.store.store.ResultStore` (or a path to
  one): every scenario is content-hashed (config + workload name + params
  + seed + code-version salt) and looked up first; hits return the cached
  result without simulating, misses run and are persisted as they
  complete, so re-runs are incremental and a sweep killed mid-grid
  resumes from what it already finished;
* ``monitor=`` — a :class:`~repro.store.telemetry.SweepMonitor` (or
  ``True`` for a default one): the runner and its workers stream
  structured events (``scheduled`` / ``started`` / ``heartbeat`` /
  ``cache_hit`` / ``finished`` / ``failed`` / ``timeout``) that drive a
  live progress line, a JSONL event log next to the store, and an
  end-of-sweep straggler/failure summary.

Runs are reproducible: each scenario's ``seed`` is applied to ``random``
immediately before its workload is instantiated, and the simulation itself
is deterministic, so a serial run, a 2-shard run and a cached re-run of the
same grid produce identical simulated results.

Importing this module loads the scenario and store layers, not the
simulator: :func:`run_scenario` and :func:`run_tasks` import
:class:`~repro.soc.platform.Platform` when they build one, so a sweep
replayed from the store never pays for it.  A sharded run forks one
process per scenario, and a child that had to import the simulator itself
would do so once per scenario; ``_run_sharded`` therefore loads, in the
parent and before the first fork, what its scenarios need
(:func:`~repro.soc.platform.load_layers`), and the workers inherit it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from multiprocessing import connection as _mp_connection
from typing import Dict, List, Optional, Sequence, Union

from ..store.hashing import UncacheableScenarioError
from ..store.store import ResultStore
from ..store.telemetry import SweepEvent, SweepMonitor
from .scenario import Scenario, ScenarioResult

#: Default seconds between worker heartbeat events on monitored runs.
_HEARTBEAT_S = 2.0


def run_scenario(scenario: Scenario, *, index: int = 0,
                 keep_platform: bool = False,
                 capture_errors: bool = True) -> ScenarioResult:
    """Run one scenario in this process and return its result.

    With ``capture_errors=False`` exceptions from the workload factory or
    the simulation propagate to the caller instead of being recorded in
    ``result.error`` (fail-fast mode).
    """
    start = time.perf_counter()
    result = ScenarioResult(
        scenario=scenario.name,
        params=dict(scenario.params),
        overrides=dict(scenario.overrides),
        index=index,
    )
    platform = None
    try:
        bundle = _build_seeded_workload(scenario)
        if scenario.config.partitions > 1:
            # Partitioned (PDES) execution: the coordinator builds one
            # platform shard per partition itself (each worker rebuilds
            # the seeded workload), so no platform exists in this process.
            from ..pdes.coordinator import run_partitioned

            report = run_partitioned(scenario)
        else:
            from ..soc.platform import Platform

            platform = Platform(scenario.config)
            platform.add_tasks(bundle.tasks)
            report = platform.run(max_time=scenario.max_time)
        result.report = report
        if scenario.expect_finished and not report.all_pes_finished:
            unfinished = sorted(name for name, done in report.finished.items()
                                if not done)
            result.failures.append(
                f"unfinished PEs: {', '.join(unfinished) or 'unknown'}"
            )
        for check in list(bundle.checks) + list(scenario.checks):
            result.failures.extend(_run_check(check, report))
        result.passed = not result.failures
    except Exception as exc:
        if not capture_errors:
            raise
        result.error = f"{type(exc).__name__}: {exc}"
        result.passed = False
    finally:
        result.host_seconds = time.perf_counter() - start
        if keep_platform:
            result.platform = platform
    return result


def _build_seeded_workload(scenario: Scenario):
    """Instantiate the workload under the scenario's seed, if any.

    The global ``random`` state is restored afterwards so a serial run
    inside a larger process (e.g. a test session) does not leak
    deterministic RNG state to unrelated code.
    """
    if scenario.seed is None:
        return scenario.build_workload()
    state = random.getstate()
    try:
        random.seed(scenario.seed)
        return scenario.build_workload()
    finally:
        random.setstate(state)


def _run_check(check, report) -> List[str]:
    """Run one result check; returns failure messages (empty = passed)."""
    label = getattr(check, "__name__", None) or "check"
    try:
        verdict = check(report)
    except AssertionError as exc:
        return [f"{label}: {exc or 'assertion failed'}"]
    except Exception as exc:
        # A crashing check (e.g. indexing the None result of an unfinished
        # PE) is a failed check, not a failed run: containing it here keeps
        # the other checks' verdicts and the unfinished-PE message visible.
        return [f"{label}: raised {type(exc).__name__}: {exc}"]
    if verdict is None or verdict is True:
        return []
    if verdict is False:
        return [f"{label}: failed"]
    return [str(verdict)]


def _preload(scenario: Scenario) -> None:
    """Import here, in the process about to fork, everything a worker
    running ``scenario`` would otherwise import on its own."""
    partitioned = scenario.config.partitions > 1
    if partitioned:
        # A daemon worker cannot fork again: it runs the partitions itself.
        from ..pdes import coordinator  # noqa: F401
    from ..soc.platform import load_layers

    load_layers(scenario.config, scenario.workload, partitioned)


def _cacheable_report(report) -> bool:
    """Whether a report may enter the result store.

    Partitioned runs share the sequential scenario key (the partition
    count is execution strategy, not simulated hardware), which is only
    sound when the run was bit-identical to sequential — i.e. no message
    ever paid the boundary-cut latency.  Cross-partition traffic makes
    the timing a function of the tiling, so those runs are never cached.
    """
    pdes = getattr(report, "pdes", None)
    return pdes is None or pdes.get("boundary_messages") == 0


def _scenario_worker(connection, scenario: Scenario, index: int,
                     heartbeat_s: Optional[float] = None) -> None:
    """Child-process entry: run one scenario, stream telemetry, ship the
    result back.

    The pipe carries tagged messages: ``("event", dict)`` telemetry frames
    (a ``started`` event at entry, then ``heartbeat`` frames every
    ``heartbeat_s`` while the simulation runs) and one final
    ``("result", ScenarioResult)``.  A lock serialises the heartbeat
    thread's sends against the main thread's.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message) -> None:
        with send_lock:
            try:
                connection.send(message)
            except (OSError, ValueError):  # parent went away mid-send
                stop.set()

    started = time.perf_counter()
    send(("event", SweepEvent.now("started", scenario.name, index).as_dict()))
    heartbeat_thread = None
    if heartbeat_s is not None and heartbeat_s > 0:
        def _beat() -> None:
            while not stop.wait(heartbeat_s):
                send(("event", SweepEvent.now(
                    "heartbeat", scenario.name, index,
                    host_seconds=time.perf_counter() - started).as_dict()))

        heartbeat_thread = threading.Thread(target=_beat, daemon=True)
        heartbeat_thread.start()
    try:
        result = run_scenario(scenario, index=index)
        stop.set()
        send(("result", result))
    except Exception as exc:  # pragma: no cover - transport-level failure
        stop.set()
        send(("result", ScenarioResult(
            scenario=scenario.name, params=dict(scenario.params),
            overrides=dict(scenario.overrides), index=index,
            error=f"worker failed: {type(exc).__name__}: {exc}",
        )))
    finally:
        stop.set()
        if heartbeat_thread is not None:
            heartbeat_thread.join()
        with send_lock:
            connection.close()


class ExperimentRunner:
    """Executes a scenario list serially or sharded across processes."""

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        *,
        shards: int = 1,
        timeout_s: Optional[float] = None,
        keep_platforms: bool = False,
        start_method: Optional[str] = None,
        recorder=None,
        store: Union[ResultStore, str, os.PathLike, None] = None,
        monitor: Union[SweepMonitor, bool, None] = None,
        heartbeat_s: float = _HEARTBEAT_S,
        code_version: Optional[str] = None,
    ) -> None:
        self.scenarios: List[Scenario] = list(scenarios)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        self.shards = shards
        self.timeout_s = timeout_s
        self.keep_platforms = keep_platforms
        self.start_method = start_method
        #: Optional :class:`repro.api.perf.PerfRecorder`: every completed
        #: run's report is recorded and flushed to ``BENCH_kernel.json``.
        self.recorder = recorder
        if isinstance(store, (str, os.PathLike)):
            store = ResultStore(os.fspath(store))
        self.store = store
        if monitor is True:
            log_path = None
            if store is not None:
                log_path = os.path.join(
                    os.path.dirname(os.path.abspath(store.path)),
                    "sweep.events.jsonl")
            monitor = SweepMonitor(log_path=log_path)
        self.monitor: Optional[SweepMonitor] = monitor or None
        self.heartbeat_s = heartbeat_s
        self.code_version = code_version
        if keep_platforms and (shards > 1 or timeout_s is not None):
            raise ValueError(
                "keep_platforms requires a serial in-process run "
                "(shards=1 and no timeout)"
            )

    # -- execution ----------------------------------------------------------------------
    def run(self) -> List[ScenarioResult]:
        """Run every scenario; results come back in scenario order.

        With a result store attached, scenarios whose content key is
        already present return their cached result without simulating;
        only the misses run (serially or in worker processes), and each
        completed simulation is persisted the moment it finishes.
        """
        if not self.scenarios:
            return []
        results: List[Optional[ScenarioResult]] = [None] * len(self.scenarios)
        keys = [self._cache_key(scenario) for scenario in self.scenarios]
        self._emit(SweepEvent.now("sweep_begin",
                                  counters={"total": len(self.scenarios)}))
        for index, scenario in enumerate(self.scenarios):
            self._emit(SweepEvent.now("scheduled", scenario.name, index))
        # One batched lookup; keep_platforms runs need a live platform.
        looked_up = [] if self.keep_platforms else [
            index for index, key in enumerate(keys) if key is not None]
        found = dict(zip(looked_up, self.store.get_many(
            [keys[index] for index in looked_up]))) if looked_up else {}
        pending: List[int] = []
        for index, scenario in enumerate(self.scenarios):
            cached = found.get(index)
            if cached is not None:
                cached.index = index
                cached.cached = True
                cached.cache_key = keys[index]
                results[index] = cached
                self._emit(SweepEvent.now(
                    "cache_hit", scenario.name, index,
                    host_seconds=cached.host_seconds,
                    counters=self._result_counters(cached)))
            else:
                pending.append(index)
        if pending:
            if self.shards == 1 and self.timeout_s is None:
                self._run_serial(pending, keys, results)
            else:
                self._run_sharded(pending, keys, results)
        self._emit(SweepEvent.now("sweep_end"))
        if self.recorder is not None:
            self.recorder.record_results(results)
            self.recorder.flush()
        return list(results)  # type: ignore[arg-type]

    def _run_serial(self, pending: List[int], keys: List[Optional[str]],
                    results: List[Optional[ScenarioResult]]) -> None:
        for index in pending:
            scenario = self.scenarios[index]
            self._emit(SweepEvent.now("started", scenario.name, index))
            result = run_scenario(scenario, index=index,
                                  keep_platform=self.keep_platforms)
            self._complete(index, keys[index], result, results)

    def _run_sharded(self, pending: List[int], keys: List[Optional[str]],
                     results: List[Optional[ScenarioResult]]) -> None:
        context = multiprocessing.get_context(self.start_method)
        for index in pending:
            _preload(self.scenarios[index])
        position = 0
        #: index -> (process, parent connection, start timestamp)
        active: Dict[int, tuple] = {}
        heartbeat_s = self.heartbeat_s if self.monitor is not None else None
        try:
            while position < len(pending) or active:
                while position < len(pending) and len(active) < self.shards:
                    index = pending[position]
                    position += 1
                    parent_conn, child_conn = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_scenario_worker,
                        args=(child_conn, self.scenarios[index], index,
                              heartbeat_s),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    active[index] = (process, parent_conn, time.monotonic())
                # Block on the worker pipes: a message, a worker death
                # (EOF) and the nearest per-run deadline all wake us —
                # no polling interval, no idle host burn.
                by_conn = {conn: index
                           for index, (_, conn, _) in active.items()}
                ready = _mp_connection.wait(list(by_conn),
                                            self._wait_timeout(active))
                finished = []
                for conn in ready:
                    index = by_conn[conn]
                    process = active[index][0]
                    if self._drain_worker(index, conn, process, keys, results):
                        finished.append(index)
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for index, (process, _conn, started) in active.items():
                        if index in finished or results[index] is not None:
                            continue
                        if now - started > self.timeout_s:
                            process.terminate()
                            process.join()
                            scenario = self.scenarios[index]
                            result = self._failure(
                                scenario, index,
                                f"timed out after {self.timeout_s:.3g}s")
                            result.timed_out = True
                            result.host_seconds = now - started
                            self._complete(index, keys[index], result, results)
                            finished.append(index)
                for index in finished:
                    process, conn, _ = active.pop(index)
                    conn.close()
        finally:
            for process, conn, _ in active.values():
                process.terminate()
                process.join()
                conn.close()

    def _drain_worker(self, index: int, conn, process, keys, results) -> bool:
        """Consume every available message of one ready worker pipe.

        Returns True when the worker is done — its result arrived or the
        pipe hit EOF (worker death).  ``multiprocessing.connection.wait``
        guarantees the first ``recv`` will not block.
        """
        scenario = self.scenarios[index]
        first = True
        while first or conn.poll(0):
            first = False
            try:
                message = conn.recv()
            except EOFError:
                process.join()
                if results[index] is None:
                    result = self._failure(
                        scenario, index,
                        f"worker process died "
                        f"(exit code {process.exitcode})")
                    self._complete(index, keys[index], result, results)
                return True
            kind, payload = message
            if kind == "event":
                self._emit(SweepEvent.from_dict(payload))
            elif kind == "result":
                process.join()
                self._complete(index, keys[index], payload, results)
                return True
        return False

    def _wait_timeout(self, active: Dict[int, tuple]) -> Optional[float]:
        """Seconds until the nearest per-run deadline (None = no timeout)."""
        if self.timeout_s is None or not active:
            return None
        now = time.monotonic()
        nearest = min(started for _, _, started in active.values())
        return max(0.0, nearest + self.timeout_s - now)

    # -- store & telemetry --------------------------------------------------------------
    def _cache_key(self, scenario: Scenario) -> Optional[str]:
        """Content key of a scenario, or None when it cannot be cached."""
        if self.store is None:
            return None
        try:
            return scenario.cache_key(self.code_version)
        except UncacheableScenarioError:
            return None

    def _complete(self, index: int, key: Optional[str],
                  result: ScenarioResult,
                  results: List[Optional[ScenarioResult]]) -> None:
        """Record one freshly simulated result: store row + terminal event."""
        result.cache_key = key
        results[index] = result
        if (self.store is not None and key is not None
                and result.report is not None and result.error is None
                and not result.timed_out
                and _cacheable_report(result.report)):
            self.store.put(key, result,
                           workload=self.scenarios[index].workload_name)
        if result.timed_out:
            kind, detail = "timeout", result.error or "timed out"
        elif result.error is not None:
            kind, detail = "failed", result.error
        else:
            kind, detail = "finished", "; ".join(result.failures)
        self._emit(SweepEvent.now(
            kind, result.scenario, index,
            host_seconds=result.host_seconds,
            counters=self._result_counters(result), detail=detail))

    def _emit(self, event: SweepEvent) -> None:
        if self.monitor is not None:
            self.monitor.emit(event)

    @staticmethod
    def _result_counters(result: ScenarioResult) -> Dict[str, object]:
        counters: Dict[str, object] = {"passed": result.passed}
        if result.report is not None:
            counters["simulated_cycles"] = result.report.simulated_cycles
            counters["events_fired"] = result.report.cost()["events_fired"]
        return counters

    @staticmethod
    def _failure(scenario: Scenario, index: int, message: str) -> ScenarioResult:
        return ScenarioResult(
            scenario=scenario.name, params=dict(scenario.params),
            overrides=dict(scenario.overrides), index=index, error=message,
        )


def run_tasks(config, tasks, max_time: Optional[int] = None, host=None):
    """Build a platform for ``config``, place ``tasks`` and run it.

    The programmatic one-shot entry point; returns the
    :class:`SimulationReport`.
    """
    from ..soc.platform import Platform

    platform = Platform(config, host=host)
    platform.add_tasks(list(tasks))
    return platform.run(max_time=max_time)
