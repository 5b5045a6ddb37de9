"""Tests for the bench ledger: PerfTimer, BenchResult, PerfRecorder."""

import json
import os
import time

import pytest

from repro.api import (
    BenchResult,
    ExperimentRunner,
    PerfRecorder,
    PerfTimer,
    PlatformBuilder,
    Scenario,
    bench_json_path,
    load_bench_entries,
)
from repro.api.perf import ENV_PATH, LEDGER_FIELDS, SCHEMA, BenchFileError


def _flush_many(path, rank):
    """Spawn-process body: many small racing flushes into one file."""
    for step in range(10):
        recorder = PerfRecorder(f"bench_{rank}", path=path)
        recorder.record_cycles(f"s{step}", step)
        recorder.flush()


def _raise_mid_replace(*_args, **_kwargs):
    raise RuntimeError("simulated crash")


class TestPerfTimer:
    def test_measures_elapsed_time(self):
        with PerfTimer() as timer:
            sum(range(1000))
        assert timer.seconds > 0


class TestBenchResult:
    def test_as_dict_holds_only_deterministic_fields(self):
        record = BenchResult(bench="b", scenario="s", params={"n": 4},
                             simulated_cycles=100, events_fired=50)
        assert record.key == "b/s"
        payload = record.as_dict()
        assert set(payload) == {"bench", "scenario", "params", *LEDGER_FIELDS}
        assert payload["params"] == {"n": 4}
        assert payload["simulated_cycles"] == 100
        assert payload["events_fired"] == 50

    def test_from_report_copies_kernel_stats(self):
        scenario = Scenario(
            name="one",
            config=PlatformBuilder().pes(1).wrapper_memories(1).build(),
            workload="fir", params={"num_samples": 8, "seed": 1}, seed=1,
        )
        result = ExperimentRunner([scenario]).run()[0]
        result.raise_for_status()
        record = BenchResult.from_scenario_result("bench", result)
        assert record.delta_cycles == result.report.kernel_stats["delta_cycles"]
        assert record.process_activations == \
            result.report.kernel_stats["process_activations"]
        assert record.simulated_time == result.report.simulated_time
        assert record.events_fired == result.report.kernel_stats["events_fired"]


class TestPerfRecorder:
    def test_merge_on_write_accumulates_benches(self, tmp_path):
        path = str(tmp_path / "BENCH_kernel.json")
        first = PerfRecorder("bench_a", path=path)
        first.record_cycles("s1", 5)
        first.flush()
        second = PerfRecorder("bench_b", path=path)
        second.record_cycles("s2", 25)
        second.flush()
        entries = load_bench_entries(path)
        assert set(entries) == {"bench_a/s1", "bench_b/s2"}
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == SCHEMA
        assert payload["count"] == 2

    def test_rerecording_updates_in_place(self, tmp_path):
        path = str(tmp_path / "bench.json")
        recorder = PerfRecorder("bench", path=path)
        recorder.record_cycles("s", 1)
        recorder.flush()
        again = PerfRecorder("bench", path=path)
        again.record_cycles("s", 2)
        again.flush()
        entries = load_bench_entries(path)
        assert len(entries) == 1
        assert entries["bench/s"]["simulated_cycles"] == 2

    @pytest.mark.parametrize("content, found", [
        ('{"schema": "%s", "entries": {"a/b": {"simulated_cy' % SCHEMA,
         "unreadable"),
        ("[]", "a JSON list"),
        ('{"schema": "other.tool/v3", "entries": {}}', "other.tool/v3"),
        ('{"schema": "repro.api.perf/v1", "count": 0, "entries": {}}',
         "--quick"),
        ('{"schema": "%s", "count": 0}' % SCHEMA, "no 'entries' map"),
    ], ids=["truncated", "list", "foreign-schema", "v1", "no-entries"])
    def test_damaged_ledger_raises_and_is_left_as_found(self, tmp_path,
                                                        content, found):
        """A flush must never replace a file it could not read with only
        the current bench's rows."""
        path = tmp_path / "bench.json"
        path.write_text(content)
        with pytest.raises(BenchFileError, match=found) as raised:
            load_bench_entries(str(path))
        assert str(path) in str(raised.value)
        recorder = PerfRecorder("bench", path=str(path))
        recorder.record_cycles("s", 1)
        with pytest.raises(BenchFileError, match=found):
            recorder.flush()
        assert path.read_text() == content
        assert os.listdir(str(tmp_path)) == ["bench.json"]  # no lock, no tmp

    def test_env_var_overrides_default_path(self, tmp_path, monkeypatch):
        target = str(tmp_path / "custom.json")
        monkeypatch.setenv(ENV_PATH, target)
        assert bench_json_path() == target
        recorder = PerfRecorder("bench")
        assert recorder.path == target

    def test_experiment_runner_records_and_flushes(self, tmp_path):
        path = str(tmp_path / "bench.json")
        scenario = Scenario(
            name="one",
            config=PlatformBuilder().pes(1).wrapper_memories(1).build(),
            workload="fir", params={"num_samples": 8, "seed": 1}, seed=1,
        )
        recorder = PerfRecorder("runner_bench", path=path)
        results = ExperimentRunner([scenario], recorder=recorder).run()
        results[0].raise_for_status()
        entries = load_bench_entries(path)
        assert set(entries) == {"runner_bench/one"}
        entry = entries["runner_bench/one"]
        assert entry["delta_cycles"] == \
            results[0].report.kernel_stats["delta_cycles"]
        assert set(entry) == {"bench", "scenario", "params", *LEDGER_FIELDS}

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_bench_entries(str(tmp_path / "absent.json")) == {}

    def test_concurrent_flushes_lose_no_entries(self, tmp_path):
        """Parallel CI shards flush into one bench file; the lock + atomic
        replace must keep every process's rows."""
        import multiprocessing

        path = str(tmp_path / "bench.json")
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_flush_many, args=(path, rank))
                   for rank in range(4)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        entries = load_bench_entries(path)
        assert len(entries) == 4 * 10
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name != "bench.json"]
        assert leftovers == []  # no .tmp or .lock debris

    def test_stale_lock_is_broken_exactly_once(self, tmp_path):
        from repro.api.perf import _LOCK_STALE_S, _break_stale_lock

        lock = str(tmp_path / "bench.json.lock")
        with open(lock, "w") as handle:
            handle.write("dead\n")
        old = time.time() - _LOCK_STALE_S - 10
        os.utime(lock, (old, old))
        assert _break_stale_lock(lock) is True
        assert not os.path.exists(lock)
        # Second waiter racing on the same (now gone) lock: the break is
        # claimed once; the retry path simply re-attempts acquisition.
        assert _break_stale_lock(lock) is True  # ENOENT => retry acquire
        assert os.listdir(str(tmp_path)) == []  # no .break debris

    def test_fresh_lock_is_not_broken(self, tmp_path):
        from repro.api.perf import _break_stale_lock

        lock = str(tmp_path / "bench.json.lock")
        with open(lock, "w") as handle:
            handle.write("alive\n")
        assert _break_stale_lock(lock) is False
        assert os.path.exists(lock)

    def test_flush_proceeds_past_abandoned_lock(self, tmp_path):
        from repro.api.perf import _LOCK_STALE_S

        path = str(tmp_path / "bench.json")
        lock = path + ".lock"
        with open(lock, "w") as handle:
            handle.write("crashed holder\n")
        old = time.time() - _LOCK_STALE_S - 10
        os.utime(lock, (old, old))
        recorder = PerfRecorder("bench", path=path)
        recorder.record_cycles("s", 1)
        recorder.flush()
        assert set(load_bench_entries(path)) == {"bench/s"}
        assert not os.path.exists(lock)

    def test_interrupted_flush_leaves_old_file_intact(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "bench.json")
        recorder = PerfRecorder("bench", path=path)
        recorder.record_cycles("s", 1)
        recorder.flush()

        crashing = PerfRecorder("bench", path=path)
        crashing.record_cycles("other", 2)
        monkeypatch.setattr(os, "replace",
                            _raise_mid_replace)
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashing.flush()
        monkeypatch.undo()
        entries = load_bench_entries(path)
        assert set(entries) == {"bench/s"}  # old contents survived
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name != "bench.json"]
        assert leftovers == []


def test_committed_ledger_holds_only_deterministic_fields():
    """``BENCH_kernel.json`` at the repository root: current schema, sorted,
    and no host time beside the counters in any row."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, "BENCH_kernel.json")
    entries = load_bench_entries(path)
    assert entries and list(entries) == sorted(entries)
    for key, row in entries.items():
        assert set(row) == {"bench", "scenario", "params", *LEDGER_FIELDS}, key
        assert key == f"{row['bench']}/{row['scenario']}"
        assert all(isinstance(row[name], int) for name in LEDGER_FIELDS), key
    with open(path) as handle:
        assert json.load(handle)["count"] == len(entries)
