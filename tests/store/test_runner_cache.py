"""Store-backed ExperimentRunner: incremental sweeps, resume, telemetry."""

import json
import os
import subprocess
import sys
import textwrap
import time
from collections import Counter

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    Scenario,
    scenario_grid,
)
from repro.store import ResultStore, SweepMonitor, read_events

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _base_config():
    return PlatformBuilder().pes(1).wrapper_memories(1).build()


def _grid(points=4):
    samples = [8, 12, 16, 20][:points]
    return scenario_grid("fir", _base_config(), "fir",
                         param_grid={"num_samples": samples},
                         params={"seed": 3}, seed=7)


def _terminal_counts(events):
    return Counter(e.kind for e in events
                   if e.kind in ("cache_hit", "finished", "failed", "timeout"))


class TestCachedRuns:
    def test_warm_rerun_is_all_hits_and_byte_identical(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        cold = ExperimentRunner(_grid(), store=store).run()
        assert [r.cached for r in cold] == [False] * 4
        assert store.stats["puts"] == 4
        warm = ExperimentRunner(_grid(), store=store).run()
        assert [r.cached for r in warm] == [True] * 4
        # Zero simulation work: the second pass only read the store.
        assert store.stats["puts"] == 4
        cold_json = json.dumps([r.as_dict() for r in cold], default=str)
        warm_json = json.dumps([r.as_dict() for r in warm], default=str)
        assert cold_json == warm_json

    def test_serial_cold_vs_sharded_warm_equivalence(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        serial = ExperimentRunner(_grid(), store=store).run()
        sharded = ExperimentRunner(_grid(), shards=2, store=store).run()
        assert [r.cached for r in sharded] == [True] * 4
        for a, b in zip(serial, sharded):
            assert a.report.as_dict() == b.report.as_dict()

    def test_sharded_cold_matches_serial_cold(self, tmp_path):
        serial = ExperimentRunner(
            _grid(), store=str(tmp_path / "a.sqlite")).run()
        sharded = ExperimentRunner(
            _grid(), shards=2, store=str(tmp_path / "b.sqlite")).run()
        for a, b in zip(serial, sharded):
            assert a.report.observables() == b.report.observables()
            assert a.report.cost() == b.report.cost()
            assert a.cache_key == b.cache_key

    def test_partial_store_runs_only_missing(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        grid = _grid()
        ExperimentRunner(grid[:2], store=store).run()
        monitor = SweepMonitor(live=False)
        results = ExperimentRunner(grid, store=store, monitor=monitor).run()
        assert [r.cached for r in results] == [True, True, False, False]
        assert all(r.passed for r in results)
        counts = _terminal_counts(monitor.events)
        assert counts == {"cache_hit": 2, "finished": 2}

    def test_config_change_invalidates(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        ExperimentRunner(_grid(), store=store).run()
        changed = scenario_grid(
            "fir", PlatformBuilder().pes(2).wrapper_memories(1).build(),
            "fir", param_grid={"num_samples": [8, 12, 16, 20]},
            params={"seed": 3}, seed=7)
        results = ExperimentRunner(changed, store=store).run()
        assert [r.cached for r in results] == [False] * 4

    def test_inline_workload_is_never_cached(self, tmp_path):
        def factory(config, **params):
            def task(ctx):
                yield from ctx.compute(10)
            return [task]

        scenario = Scenario(name="inline", config=_base_config(),
                            workload=factory)
        store = ResultStore(str(tmp_path / "s.sqlite"))
        first = ExperimentRunner([scenario], store=store).run()[0]
        second = ExperimentRunner([scenario], store=store).run()[0]
        assert first.cache_key is None and second.cache_key is None
        assert not first.cached and not second.cached
        assert len(store) == 0

    def test_keep_platforms_bypasses_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        grid = _grid(1)
        ExperimentRunner(grid, store=store).run()
        [result] = ExperimentRunner(grid, store=store,
                                    keep_platforms=True).run()
        assert not result.cached
        assert result.platform is not None

    def test_errors_are_not_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        scenario = Scenario(name="broken", config=_base_config(),
                            workload="fir",
                            params={"no_such_param": True})
        first = ExperimentRunner([scenario], store=store).run()[0]
        assert first.error is not None
        assert len(store) == 0
        second = ExperimentRunner([scenario], store=store).run()[0]
        assert not second.cached  # retried, not replayed

    def test_check_failures_are_cached(self, tmp_path):
        def failing_check(report):
            return "always unhappy"

        store = ResultStore(str(tmp_path / "s.sqlite"))
        scenario = Scenario(name="checked", config=_base_config(),
                            workload="fir", params={"num_samples": 8},
                            checks=(failing_check,))
        first = ExperimentRunner([scenario], store=store).run()[0]
        assert not first.passed and first.error is None
        assert len(store) == 1
        second = ExperimentRunner([scenario], store=store).run()[0]
        assert second.cached
        assert second.failures == first.failures


def _statements(store):
    """Every SQL statement ``store`` runs from here on, as SQLite traces it."""
    statements = []
    store._conn.set_trace_callback(statements.append)
    return statements


class TestOneWritePerReplay:
    def test_warm_pass_commits_once(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        ExperimentRunner(_grid(4), store=store).run()
        statements = _statements(store)
        warm = ExperimentRunner(_grid(4), store=store).run()
        assert [r.cached for r in warm] == [True] * 4
        assert statements.count("COMMIT") == 1
        assert [r["hits"] for r in store.rows()] == [1] * 4

    def test_all_miss_lookup_writes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        statements = _statements(store)
        keys = [scenario.cache_key() for scenario in _grid(4)]
        assert store.get_many(keys) == [None] * 4
        assert statements and all(s.startswith("SELECT") for s in statements)
        assert store.stats["misses"] == 4

    def test_corrupt_row_is_dropped_in_the_lookup_transaction(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        grid = _grid(4)
        ExperimentRunner(grid, store=store).run()
        store._conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                            (b"not a pickle", grid[1].cache_key()))
        store._conn.commit()
        statements = _statements(store)
        results = ExperimentRunner(grid, store=store).run()
        assert [r.cached for r in results] == [True, False, True, True]
        assert all(r.passed for r in results)
        assert store.stats["corrupt"] == 1
        # The lookup's one transaction: the delete, then the three hits.
        writes = [s.split()[0] for s in statements
                  if not s.startswith("SELECT")]
        assert writes[:6] == ["BEGIN", "DELETE", "UPDATE", "UPDATE",
                              "UPDATE", "COMMIT"]
        # Then only the re-simulated scenario's put commits.
        assert writes[6:] == ["BEGIN", "INSERT", "COMMIT"]

    def test_duplicate_scenario_replays_twice(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        [point] = _grid(1)
        ExperimentRunner([point], store=store).run()
        before = store.rows()[0]["hits"]
        results = ExperimentRunner([point, point], store=store).run()
        assert [r.cached for r in results] == [True, True]
        assert results[0] is not results[1]
        assert [r.index for r in results] == [0, 1]
        assert store.rows()[0]["hits"] == before + 2


class TestResumeAfterKill:
    def test_killed_sweep_resumes_missing_scenarios_only(self, tmp_path):
        """A sweep hard-killed mid-grid resumes: cached scenarios replay,
        only the missing ones simulate, and the resume pass's event log
        accounts for every scenario exactly once."""
        store_path = str(tmp_path / "s.sqlite")
        script = textwrap.dedent(f"""
            import os
            from repro.api import ExperimentRunner, PlatformBuilder, scenario_grid
            from repro.store import ResultStore, SweepMonitor

            class KillAfterTwo(SweepMonitor):
                def emit(self, event):
                    super().emit(event)
                    done = sum(1 for e in self.events if e.kind == "finished")
                    if done >= 2:
                        os._exit(137)  # hard kill, no store shutdown

            config = PlatformBuilder().pes(1).wrapper_memories(1).build()
            grid = scenario_grid("fir", config, "fir",
                                 param_grid={{"num_samples": [8, 12, 16, 20]}},
                                 params={{"seed": 3}}, seed=7)
            store = ResultStore({store_path!r})
            ExperimentRunner(grid, store=store,
                             monitor=KillAfterTwo(live=False)).run()
            raise SystemExit("sweep was supposed to die mid-grid")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        completed = subprocess.run([sys.executable, "-c", script],
                                   capture_output=True, text=True,
                                   timeout=120, env=env)
        assert completed.returncode == 137, completed.stderr
        # The puts were never checkpointed or fsynced: they live in the
        # write-ahead log the killed process left behind.
        assert os.path.exists(store_path + "-wal")
        with ResultStore(store_path) as peek:
            assert len(peek) == 2  # incremental puts survived the kill
            keys = [scenario.cache_key() for scenario in _grid()]
            assert sum(r is not None for r in peek.get_many(keys)) == 2

        log_path = str(tmp_path / "resume.events.jsonl")
        monitor = SweepMonitor(log_path=log_path, live=False)
        results = ExperimentRunner(_grid(), store=store_path,
                                   monitor=monitor).run()
        monitor.close()
        assert [r.cached for r in results] == [True, True, False, False]
        assert all(r.passed for r in results)
        events = read_events(log_path)
        scheduled = Counter(e.scenario for e in events
                            if e.kind == "scheduled")
        terminal = Counter(e.scenario for e in events
                           if e.kind in ("cache_hit", "finished",
                                         "failed", "timeout"))
        names = [s.name for s in _grid()]
        assert scheduled == Counter(names)  # each exactly once
        assert terminal == Counter(names)   # each exactly once
        assert _terminal_counts(events) == {"cache_hit": 2, "finished": 2}


class TestShardedScheduler:
    def test_no_busy_poll_interval_remains(self):
        import repro.api.runner as runner_module

        assert not hasattr(runner_module, "_POLL_INTERVAL_S")

    def test_timeout_still_enforced_with_wait(self):
        def spin(config, **params):
            def task(ctx):
                while True:
                    yield from ctx.compute(1000)
            return [task]

        scenarios = [
            Scenario(name="stuck", config=_base_config(), workload=spin),
            _grid(1)[0],
        ]
        start = time.monotonic()
        results = ExperimentRunner(scenarios, shards=2, timeout_s=1.5).run()
        elapsed = time.monotonic() - start
        assert results[0].timed_out
        assert results[1].passed
        # connection.wait sleeps until the deadline instead of polling, and
        # the deadline still fires promptly.
        assert elapsed < 15

    def test_sharded_workers_stream_started_events(self, tmp_path):
        monitor = SweepMonitor(live=False)
        results = ExperimentRunner(_grid(), shards=2,
                                   monitor=monitor).run()
        assert all(r.passed for r in results)
        kinds = Counter(e.kind for e in monitor.events)
        assert kinds["scheduled"] == 4
        assert kinds["started"] == 4
        assert kinds["finished"] == 4
        assert kinds["sweep_begin"] == 1 and kinds["sweep_end"] == 1

    def test_heartbeats_flow_during_long_runs(self):
        monitor = SweepMonitor(live=False)
        scenarios = scenario_grid(
            "gsm", _base_config(), "gsm_encode",
            params={"frames": 8, "seed": 1}, seed=1)
        results = ExperimentRunner(scenarios, shards=1, timeout_s=120,
                                   monitor=monitor, heartbeat_s=0.005).run()
        assert all(r.passed for r in results)
        beats = [e for e in monitor.events if e.kind == "heartbeat"]
        assert beats, "expected at least one heartbeat from the worker"
        assert all(e.host_seconds > 0 for e in beats)

    def test_worker_death_is_reported(self, tmp_path):
        def die(config, **params):
            os._exit(3)

        scenario = Scenario(name="dies", config=_base_config(), workload=die)
        [result] = ExperimentRunner([scenario], shards=1,
                                    timeout_s=60).run()
        assert not result.passed
        assert "died" in result.error
        assert "exit code 3" in result.error


class TestMonitorConvenience:
    def test_monitor_true_logs_next_to_store(self, tmp_path):
        store_path = str(tmp_path / "s.sqlite")
        runner = ExperimentRunner(_grid(1), store=store_path, monitor=True)
        runner.monitor.live = False
        runner.run()
        runner.monitor.close()
        log_path = str(tmp_path / "sweep.events.jsonl")
        assert os.path.exists(log_path)
        events = read_events(log_path)
        assert _terminal_counts(events) == {"finished": 1}

    def test_invalid_heartbeat_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ExperimentRunner([], heartbeat_s=0)
