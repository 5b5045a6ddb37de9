"""perfbench measuring process: one workload in one fresh interpreter.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at
``src``.  It drives the simulator only through public entry points, times
its *own* calls into them (spans), reads per-layer work from the returned
``SimulationReport`` s, and prints one JSON document on its last stdout
line: raw samples, simulated-statistics signatures and, in ``trace`` mode,
the per-layer values.  Summarising and judging are ``run.py``'s job.

Modes: ``setup`` stops right before the first run (one ``setup_s``
sample); ``measure`` adds an untimed warm-up rep and the timed window;
``trace`` halves the window and adds the traced rep, the twin reps and (on
``stencil_mesh_flat``) the layer ladder.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: The four scheduler counters of the golden signature.
KERNEL_COUNTERS = ("process_activations", "delta_cycles", "timed_steps",
                   "events_fired")
#: ``src/repro`` packages whose folded profile time is reported.
PROFILED_LAYERS = ("kernel", "soc", "sw", "fabric", "interconnect", "noc",
                   "cache", "wrapper", "memory", "check", "obs")
SELF_FRAC_LAYERS = ("kernel", "soc", "noc", "cache", "wrapper")
#: Floor on timed reps (2 in smoke mode), whatever ``--seconds`` says.
MIN_REPS = 3
#: Twin reps: up to this many, stopping early once the budget is spent.
TWIN_REPS = 3
TWIN_BUDGET_S = 4.0
#: Host seconds of :func:`calibrate` on the reference container (2 vCPUs,
#: CPython 3.11) while nothing else contends for the core.
CAL_NOMINAL_S = 0.032


class Spans:
    """In-memory span log: name, start, end, parent, run_id."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._open: List[int] = []
        #: Shared by every span of one rep (``setup``, ``timed-3``, ``trace``).
        self.run_id = "setup"

    @contextmanager
    def __call__(self, name: str):
        row = {"name": name, "run_id": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str, run_id: str) -> float:
        """Total duration of the closed spans ``name`` of one rep."""
        return sum(row["end"] - row["start"] for row in self.rows
                   if row["name"] == name and row["run_id"] == run_id
                   and row["end"] is not None)

    def write_chrome(self, path: str, other_data: dict) -> None:
        """Chrome trace-event JSON (loadable in Perfetto)."""
        origin = self.rows[0]["start"] if self.rows else 0.0
        events = [{
            "name": row["name"], "cat": row["run_id"], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": (row["start"] - origin) * 1e6,
            "dur": (row["end"] - row["start"]) * 1e6,
            "args": {"run_id": row["run_id"], "span": index,
                     "parent": row["parent"]},
        } for index, row in enumerate(self.rows) if row["end"] is not None]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other_data}, handle)


def calibrate() -> float:
    """Host seconds of a fixed pure-Python kernel: an event queue of
    generators (heap, ``next``, dict updates — the simulator's instruction
    mix and none of its code, so no change under ``src/`` can move it).

    Other tenants of a shared host slow a rep and the calibration runs on
    either side of it alike; dividing one by the other takes that out.
    """
    def process(index: int):
        hits: Dict[int, int] = {}
        step = index
        while True:
            step += 1
            hits[step & 63] = hits.get(step & 63, 0) + 1
            yield (step * 7) & 15

    processes = [process(index) for index in range(16)]
    queue = [(index, index) for index in range(16)]
    start = time.perf_counter()
    for _ in range(100_000):
        when, index = heapq.heappop(queue)
        heapq.heappush(queue, (when + next(processes[index]) + 1, index))
    return time.perf_counter() - start


def host_slowdown(processes: int) -> float:
    """:func:`calibrate` over its nominal time, run on ``processes`` cores
    at once (forked helpers) and averaged: a workload that keeps two
    processes busy is slowed by contention on either core."""
    pipes = []
    for _ in range(processes - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_end, struct.pack("d", calibrate()))
            os._exit(0)
        os.close(write_end)
        pipes.append((pid, read_end))
    seconds = [calibrate()]
    for pid, read_end in pipes:
        seconds.append(struct.unpack("d", os.read(read_end, 8))[0])
        os.close(read_end)
        os.waitpid(pid, 0)
    return statistics.mean(seconds) / CAL_NOMINAL_S


@dataclass
class Rep:
    """One repetition, digested: its reports are read once and dropped (a
    sweep pass returns 24 of them; keeping every rep's would be the
    benchmark's own memory leak)."""

    wall_s: float
    #: Host seconds ``sim_cycles_per_s`` divides by.
    speed_seconds: float
    error: Optional[str] = None
    #: Per-rep samples of derived per-layer metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Digest of the reports: see :func:`signature`, :func:`layer_counts`.
    signature: Optional[dict] = None
    counts: Dict[str, float] = field(default_factory=dict)
    #: Sum of ``report.wallclock_seconds`` (host seconds in ``Platform.run``).
    run_s: float = 0.0
    scenarios: int = 0
    #: This host's slowdown around the rep: mean of the two neighbouring
    #: :func:`host_slowdown` readings (timed reps only).
    slowdown: float = 1.0

    @classmethod
    def of(cls, wall_s: float, reports: list, speed_seconds: float,
           error: Optional[str] = None, **extra: float) -> "Rep":
        return cls(wall_s, speed_seconds, error, extra,
                   signature(reports), layer_counts(reports),
                   sum(r.wallclock_seconds for r in reports), len(reports))

    @property
    def speed(self) -> float:
        return self.signature["simulated_cycles"] / self.speed_seconds


# -- reading reports -----------------------------------------------------------------

def signature(reports: list) -> dict:
    """The simulated statistics a speed-up must leave identical."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(sorted(report.results.items())).encode())
    return {
        "simulated_cycles": sum(r.simulated_cycles for r in reports),
        "transactions": sum(r.total_transactions() for r in reports),
        "results_sha256": digest.hexdigest(),
        "kernel": {name: sum(int(r.kernel_stats[name]) for r in reports)
                   for name in KERNEL_COUNTERS},
    }


def layer_counts(reports: list) -> Dict[str, float]:
    """Exact per-layer work counts, summed over ``reports``."""
    counts: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    lookups = useful = 0
    for report in reports:
        for name in KERNEL_COUNTERS:
            add(f"kernel.{name}", int(report.kernel_stats[name]))
        add("sw.api_calls", report.total_api_calls())
        fabric = report.interconnect_stats
        add("fabric.transactions", fabric.get("transactions", 0))
        add("fabric.busy_cycles", fabric.get("busy_cycles", 0))
        add("fabric.wait_cycles", sum(
            master["wait_cycles"]
            for master in fabric.get("per_master", {}).values()))
        noc = fabric.get("noc") or {}
        add("noc.packets", noc.get("packets", 0))
        add("noc.flits", noc.get("flits", 0))
        add("noc.blocked_cycles", sum(
            link["blocked_cycles"] for link in noc.get("links", {}).values()))
        for cache in report.cache_reports:
            hits = cache["hits"] + cache["array_hits"]
            misses = cache["misses"] + cache["array_misses"]
            add("cache.hits", hits)
            add("cache.misses", misses)
            add("cache.fills", cache["fills"])
            add("cache.writebacks", cache["writebacks"])
            add("cache.invalidations_received",
                cache["invalidations_received"])
            useful += hits
            lookups += hits + misses
        for memory in report.memory_reports:
            ops = memory.get("op_counts", {})
            add("wrapper.allocs", ops.get("ALLOC", 0))
            add("wrapper.frees", ops.get("FREE", 0))
            add("wrapper.array_ops",
                ops.get("READ_ARRAY", 0) + ops.get("WRITE_ARRAY", 0))
            add("wrapper.fsm_cycles", memory.get("fsm_cycles", 0))
            host = memory.get("host_stats", {})
            add("memory.native_reads", host.get("native_reads", 0))
            add("memory.native_writes", host.get("native_writes", 0))
        trace = (report.obs_summary or {}).get("trace") or {}
        add("obs.trace_events", trace.get("events", 0))
        add("obs.dropped", trace.get("dropped", 0))
        add("check.findings", len(report.sanitizer_reports))
        pdes = report.pdes or {}
        add("pdes.rounds", pdes.get("rounds", 0))
        add("pdes.boundary_messages", pdes.get("boundary_messages", 0))
    counts["cache.hit_rate"] = useful / lookups if lookups else 0
    return counts


def failed_checks(bundle, report) -> List[str]:
    """The workload's own reference checks, as ``run_scenario`` applies them."""
    failures = [] if report.all_pes_finished else ["unfinished PEs"]
    for check in bundle.checks:
        try:
            verdict = check(report)
        except Exception as exc:  # a crashing check is a failed check
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if verdict is not None and verdict is not True:
            failures.append(str(verdict))
    return failures


def fold_profile(profile: cProfile.Profile) -> Dict[str, float]:
    """``tottime`` folded by the ``repro/<pkg>/`` path segment."""
    totals: Dict[str, float] = {}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        _, found, rest = filename.replace(os.sep, "/").rpartition("/repro/")
        layer = rest.split("/", 1)[0] if found and "/" in rest else "other"
        totals[layer] = totals.get(layer, 0.0) + row[2]
    return totals


# -- the two kinds of workload -------------------------------------------------------

class SingleScenario:
    """One ``Scenario`` per rep: fresh build + run + checks."""

    def __init__(self, name: str, args, spans: Spans) -> None:
        import workloads
        self.name, self.args, self.spans = name, args, spans
        self.spec = workloads.SPECS[name]
        self.config = None
        self.first_rep: Optional[Rep] = None

    @property
    def busy_processes(self) -> int:
        """Processes a rep keeps busy at once (the partition workers)."""
        return max(1, self.config.partitions)

    def scenario(self, label: str = "", config: object = None):
        return self.spec.scenario(
            self.name + label, self.args.seed, self.args.smoke,
            self.config if config is None else config)

    def first(self, before_run: Callable[[], None]) -> Rep:
        """Set-up plus the untimed warm-up rep, every step a span."""
        with self.spans("build_config"):
            self.config = self.spec.config(self.args.smoke)
        return self.stepwise(before_run)

    def stepwise(self, before_run: Callable[[], None] = lambda: None,
                 profile: Optional[cProfile.Profile] = None) -> Rep:
        """One rep as the harness's own calls (what ``run_scenario`` does)."""
        from repro.api import run_scenario
        from repro.soc import Platform

        spans, scenario = self.spans, self.scenario()
        start = time.perf_counter()
        random.seed(scenario.seed)
        with spans("build_workload"):
            bundle = scenario.build_workload()
        if scenario.config.partitions > 1:
            # No platform exists in this process: the coordinator builds
            # one shard per partition worker.
            before_run()
            with spans("run"):
                result = run_scenario(scenario)
            return self._rep(result)
        with spans("platform_init"):
            platform = Platform(scenario.config)
            platform.add_tasks(bundle.tasks)
        before_run()
        with spans("run"):
            if profile is not None:
                profile.enable()
            try:
                report = platform.run(max_time=scenario.max_time)
            finally:
                if profile is not None:
                    profile.disable()
        with spans("checks"):
            failures = failed_checks(bundle, report)
            failures += filter(None, [self._invariant(report)])
        with spans("report_as_dict"):
            report.as_dict()
        return Rep.of(time.perf_counter() - start, [report],
                      report.wallclock_seconds, "; ".join(failures) or None)

    def timed(self, label: str = "", config: object = None) -> Rep:
        """One rep through ``run_scenario`` (a twin/rung with ``config``)."""
        from repro.api import run_scenario

        with self.spans("rep" + label):
            result = run_scenario(self.scenario(label, config))
        return self._rep(result, main=config is None)

    def _invariant(self, report) -> Optional[str]:
        return self.spec.invariant(report) if self.spec.invariant else None

    def _rep(self, result, main: bool = True) -> Rep:
        report = result.report
        if report is None:
            return Rep(result.host_seconds, 1.0, result.error or "no report")
        error = None if result.passed else (
            result.error or "; ".join(result.failures) or "did not pass")
        if main and error is None:
            error = self._invariant(report)
        rep = Rep.of(result.host_seconds, [report], report.wallclock_seconds,
                     error)
        if report.pdes:
            slowest = max(part["wallclock_seconds"]
                          for part in report.pdes["per_partition"])
            rep.extra["pdes.sync_overhead_frac"] = (
                1 - slowest / report.wallclock_seconds)
            rep.extra["pdes.rounds_per_s"] = (
                report.pdes["rounds"] / report.wallclock_seconds)
        return rep


class Sweep:
    """The 24-point grid through ``ExperimentRunner(shards=2, store=...)``.

    ``sweep_store`` times the cold pass into a fresh store (all misses,
    forked workers, ``put`` s) and replays it once to check the hits;
    ``sweep_store_warm`` fills one store during the warm-up rep and times
    the replays (all hits).
    """

    def __init__(self, name: str, args, spans: Spans) -> None:
        import workloads
        self.warm = workloads.SWEEPS[name]
        self.shards = workloads.SWEEP_SHARDS
        #: A warm pass forks no worker; a cold one keeps every shard busy.
        self.busy_processes = 1 if self.warm else self.shards
        self.args, self.spans = args, spans
        self.scenarios: list = []
        #: ``sweep_store_warm``: the store every timed pass replays.
        self.filled: Optional[str] = None
        #: The latest cold pass: results and their ``as_dict()`` views.
        self.cold_results: list = []
        self.cold_dicts: list = []
        self.first_rep: Optional[Rep] = None

    def first(self, before_run: Callable[[], None]) -> Rep:
        import workloads
        from repro.api import ResultStore

        with self.spans("build_config"):
            base = workloads.sweep_base_config(self.args.smoke)
        with self.spans("grid"):
            self.scenarios = workloads.sweep_grid(
                self.args.seed, self.args.smoke, base)
        path = self._fresh_path()
        with self.spans("store.open"):
            store = ResultStore(path)
        before_run()
        rep = self._cold(path, store)
        if self.warm:
            self.filled = path
        else:
            shutil.rmtree(os.path.dirname(path))
        return rep

    def timed(self) -> Rep:
        if self.warm:
            return self._warm(self.filled)
        path = self._fresh_path()
        try:
            return self._cold(path)
        finally:
            shutil.rmtree(os.path.dirname(path))

    def _fresh_path(self) -> str:
        return os.path.join(tempfile.mkdtemp(dir=self.args.tmp), "sweep.sqlite")

    def _pass(self, store, span: str):
        """One ``ExperimentRunner`` pass, timed as a user would wait for it
        (store open included when ``store`` is a path)."""
        from repro.api import ExperimentRunner

        with self.spans(span):
            start = time.perf_counter()
            runner = ExperimentRunner(self.scenarios, shards=self.shards,
                                      store=store)
            results = runner.run()
            wall = time.perf_counter() - start
        stats = dict(runner.store.stats)
        runner.store.close()
        return wall, results, stats

    def _cold(self, path: str, store=None) -> Rep:
        """All misses; then one replay to hold the hits to the relation."""
        wall, results, stats = self._pass(store or path, "sweep.cold")
        if any(r.report is None for r in results):
            return Rep(wall, 1.0, "a sweep worker returned no report")
        busy = sum(r.host_seconds for r in results)
        rep = Rep.of(wall, [r.report for r in results], wall, **{
            "cold_wall_s": wall, "store.misses": stats["misses"],
            "api.runner_overhead_frac": 1 - busy / (self.shards * wall)})
        bad = [r.scenario for r in results if not r.passed]
        if bad:
            rep.error = f"{len(bad)} scenario(s) failed, first {bad[0]}"
        elif any(r.cached for r in results):
            rep.error = "a cold result was served from the store"
        self.cold_results = results
        self.cold_dicts = [r.as_dict() for r in results]
        replay = self._warm(path)
        rep.error = rep.error or replay.error
        rep.extra["warm_wall_s"] = replay.wall_s
        rep.extra["store.hits"] = replay.extra["store.hits"]
        return rep

    def _warm(self, path: str) -> Rep:
        """All hits, each serialising exactly as its cold counterpart."""
        wall, results, stats = self._pass(path, "sweep.warm")
        rep = Rep.of(wall, [r.report for r in results], wall, **{
            "warm_wall_s": wall, "store.hits": stats["hits"]})
        with self.spans("report_as_dict"):
            replayed = [r.as_dict() for r in results]
        if not all(r.cached is True for r in results):
            rep.error = "a warm result was not served from the store"
        elif replayed != self.cold_dicts:
            rep.error = "a warm result differs from its cold counterpart"
        return rep

    def store_latencies(self) -> Dict[str, List[float]]:
        """Direct ``cache_key`` / ``ResultStore.put`` / ``get`` on the cold
        pass's results, one sample per scenario."""
        from repro.api import ResultStore

        spans, path, keys = self.spans, self._fresh_path(), []
        samples: Dict[str, List[float]] = {
            "store.key_us": [], "store.put_ms": [], "store.get_ms": []}
        for scenario in self.scenarios:
            with spans("cache_key") as span:
                keys.append(scenario.cache_key())
            samples["store.key_us"].append((span["end"] - span["start"]) * 1e6)
        with ResultStore(path) as store:
            for key, result in zip(keys, self.cold_results):
                with spans("store.put") as span:
                    store.put(key, result, workload="fir")
                samples["store.put_ms"].append(
                    (span["end"] - span["start"]) * 1e3)
            for key in keys:
                with spans("store.get") as span:
                    store.get(key)
                samples["store.get_ms"].append(
                    (span["end"] - span["start"]) * 1e3)
        samples["store.bytes_per_result"] = [os.path.getsize(path) / len(keys)]
        shutil.rmtree(os.path.dirname(path))
        return samples


# -- the run ---------------------------------------------------------------------------

def timed_window(work, spans: Spans, seconds: float, min_reps: int) -> List[Rep]:
    """Timed reps, a calibration run on either side of each."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    before = host_slowdown(work.busy_processes)
    while len(reps) < min_reps or time.perf_counter() < deadline:
        gc.collect()
        spans.run_id = f"timed-{len(reps)}"
        rep = work.timed()
        after = host_slowdown(work.busy_processes)
        rep.slowdown = (before + after) / 2
        before = after
        reps.append(rep)
    return reps


def traced_pass(name: str, work, args, spans: Spans, good: List[Rep],
                names: List[str]) -> dict:
    """The per-layer values: counts, harness spans, profile fold, twins,
    ladder.  Every name of BENCHMARK.json's ``per_layer`` gets a sample
    list; a metric the workload does not exercise reads 0."""
    values: Dict[str, List[float]] = {metric: [0] for metric in names}

    def put(metric: str, samples) -> None:
        if metric not in values:
            raise KeyError(f"{metric} is not a per_layer name of BENCHMARK.json")
        values[metric] = list(samples) if isinstance(samples, list) else [samples]

    def extra(key: str) -> List[float]:
        """Per-rep samples; the warm-up rep's when only it has one (the one
        cold pass of ``sweep_store_warm``)."""
        samples = [rep.extra[key] for rep in good if key in rep.extra]
        if not samples and key in work.first_rep.extra:
            samples = [work.first_rep.extra[key]]
        return samples

    single = isinstance(work, SingleScenario)
    reference = good[0]
    for metric, count in reference.counts.items():
        put(metric, count)
    run_s = [rep.run_s for rep in good]
    put("soc.run_s", run_s)
    put("kernel.host_us_per_activation",
        [seconds / values["kernel.process_activations"][0] * 1e6
         for seconds in run_s])
    put("fabric.host_us_per_txn",
        [seconds / values["fabric.transactions"][0] * 1e6
         for seconds in run_s])
    for metric in ("pdes.sync_overhead_frac", "pdes.rounds_per_s",
                   "api.runner_overhead_frac", "store.hits", "store.misses"):
        samples = extra(metric)
        if samples:
            put(metric, samples)
    for metric, key in (("cold_scenarios_per_s", "cold_wall_s"),
                        ("warm_scenarios_per_s", "warm_wall_s")):
        put(metric, [reference.scenarios / wall for wall in extra(key)] or 0)

    # The traced rep: spans around every harness call, cProfile inside `run`.
    spans.run_id = "trace"
    gc.collect()
    fold: Dict[str, float] = {}
    if single:
        profile = None if work.config.partitions > 1 else cProfile.Profile()
        traced = work.stepwise(profile=profile)
        if profile is not None:
            fold = fold_profile(profile)
        traced_s, untraced_s = spans.seconds("run", "trace"), run_s
        put("sw.build_workload_s", spans.seconds("build_workload", "trace"))
        put("soc.platform_init_s", spans.seconds("platform_init", "trace"))
    else:
        traced = work.timed()
        traced_s, untraced_s = traced.wall_s, [rep.wall_s for rep in good]
        for metric, samples in work.store_latencies().items():
            put(metric, samples)
    put("trace.overhead_ratio", traced_s / statistics.median(untraced_s))
    put("soc.report_as_dict_s", spans.seconds("report_as_dict", "trace"))
    put("api.import_s", spans.seconds("import", "setup"))
    put("api.build_config_s", spans.seconds("build_config", "setup"))
    total = sum(fold.values())
    for layer in PROFILED_LAYERS:
        put(f"{layer}.self_s", fold.get(layer, 0.0))
    for layer in SELF_FRAC_LAYERS:
        put(f"{layer}.self_frac", fold.get(layer, 0.0) / total if total else 0)
    problems = [f"traced rep: {traced.error}"] if traced.error else []
    if traced.signature != reference.signature:
        problems.append("traced rep: simulated statistics differ from the "
                        "timed reps")

    # Twin reps: one ratio metric, one bit-identity relation.
    twin_signature = None
    twin = work.spec.twin if single else None
    if twin is not None:
        config = twin.config(args.smoke)
        twin_reps: List[Rep] = []
        budget_end = time.perf_counter() + TWIN_BUDGET_S
        while len(twin_reps) < (1 if args.smoke else TWIN_REPS) and (
                not twin_reps or time.perf_counter() < budget_end):
            gc.collect()
            twin_reps.append(work.timed("." + twin.label, config))
        errors = [rep.error for rep in twin_reps if rep.error]
        if errors:
            problems.append(f"twin {twin.label}: {errors[0]}")
        else:
            def medians(some: List[Rep]) -> dict:
                return {"wall_s": statistics.median(r.wall_s for r in some),
                        "speed": statistics.median(r.speed for r in some)}
            put(twin.ratio_name, twin.ratio(medians(good), medians(twin_reps)))
            twin_signature = twin_reps[0].signature
            problems += [f"twin {twin.label}: {key} differs from the main run"
                         for key in twin.same
                         if twin_signature[key] != reference.signature[key]]

    if single and work.spec.ladder is not None:
        for rung, config in work.spec.ladder(args.smoke).items():
            gc.collect()
            rep = work.timed(".ladder." + rung, config)
            if rep.error:
                problems.append(f"ladder {rung}: {rep.error}")
                continue
            put(f"ladder.{rung}.host_us_per_api_call",
                rep.run_s / rep.counts["sw.api_calls"] * 1e6)

    spans.write_chrome(
        os.path.join(HERE, "out", f"trace-{name}.json"),
        {"workload": name, "seed": args.seed, "smoke": args.smoke,
         "layer_self_s": fold,
         # The `run` span's own self time: what the fold does not cover.
         "run_span_self_s": traced_s - total if fold else None})
    return {"per_layer": values, "problems": problems,
            "twin_signature": twin_signature}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spans = Spans()
    with spans("import"):
        import repro.api  # noqa: F401  (timed: users pay it on every start)
        import workloads
    name = args.workload
    work = (Sweep if name in workloads.SWEEPS else SingleScenario)(
        name, args, spans)
    setup_s: List[float] = []

    def before_run() -> None:
        setup_s.append(time.time() - args.t0)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s[0]}))
            sys.exit(0)

    work.first_rep = work.first(before_run)
    trace = args.mode == "trace"
    reps = timed_window(work, spans,
                        0 if args.smoke else args.seconds / (2 if trace else 1),
                        2 if args.smoke else MIN_REPS)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems = []
    if work.first_rep.error:
        problems.append(f"warm-up rep: {work.first_rep.error}")
    good = [rep for rep in reps if rep.error is None]
    failed = 0
    for index, rep in enumerate(reps):
        if rep.error is not None:
            failed += 1
            problems.append(f"rep {index}: {rep.error}")
        elif (rep.signature, rep.counts) != (good[0].signature, good[0].counts):
            failed += 1
            problems.append(f"rep {index}: simulated statistics differ "
                            f"from the first good rep's")
    document = {
        "setup_s": setup_s[0],
        # Host-time samples, scaled to the reference host's speed.
        "samples": {
            "wall_s": [rep.wall_s / rep.slowdown for rep in good],
            "sim_cycles_per_s": [rep.speed * rep.slowdown for rep in good]},
        "raw_wall_s": [rep.wall_s for rep in good],
        "host_slowdown": [rep.slowdown for rep in good],
        "peak_rss_mb": usage / 1024,
        "attempted": len(reps), "failed": failed, "problems": problems,
        "signature": good[0].signature if good else None,
        "twin_signature": None, "per_layer": None,
    }
    if trace and good:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            names = [metric["name"] for metric in json.load(f)["per_layer"]]
        extra = traced_pass(name, work, args, spans, good, names)
        document["per_layer"] = extra["per_layer"]
        document["twin_signature"] = extra["twin_signature"]
        document["problems"] += extra["problems"]
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
