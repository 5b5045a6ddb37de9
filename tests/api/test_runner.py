"""Tests for scenario grids, the experiment runner and result writers."""

import csv
import json
import multiprocessing
import os

import pytest

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    Scenario,
    expand_grid,
    results_table,
    run_scenario,
    scenario_grid,
    write_csv,
    write_json,
)
from repro.store import SweepMonitor


def _base_config():
    return PlatformBuilder().pes(1).wrapper_memories(1).build()


def _fir_grid():
    return scenario_grid(
        "fir", _base_config(), "fir",
        config_grid={"num_memories": [1, 2]},
        param_grid={"num_samples": [8, 12]},
        params={"seed": 3},
    )


def _spin_forever(config, **params):
    """Module-level factory so sharded runs can resolve it in any child."""

    def task(ctx):
        while True:
            yield from ctx.compute(1000)

    return [task]


def _raise_on_build(config, **params):
    raise RuntimeError("deliberately broken workload")


def _die(config, **params):
    os._exit(3)


def _report_pid(report):
    """A check whose message is the pid of the process running it."""
    return str(os.getpid())


class TestGridExpansion:
    def test_expand_grid(self):
        grid = expand_grid({"a": [1, 2], "b": ["x"]})
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert expand_grid({}) == [{}]

    def test_scenario_grid_cartesian_product(self):
        scenarios = _fir_grid()
        assert len(scenarios) == 4
        assert [s.name for s in scenarios] == [
            "fir[num_memories=1,num_samples=8]",
            "fir[num_memories=1,num_samples=12]",
            "fir[num_memories=2,num_samples=8]",
            "fir[num_memories=2,num_samples=12]",
        ]
        # Config overrides land in the config, params merge with the base.
        assert scenarios[2].config.num_memories == 2
        assert scenarios[1].params == {"seed": 3, "num_samples": 12}
        assert scenarios[3].overrides == {"num_memories": 2, "num_samples": 12}

    def test_empty_grids_yield_single_scenario(self):
        scenarios = scenario_grid("solo", _base_config(), "fir")
        assert len(scenarios) == 1
        assert scenarios[0].name == "solo"


class TestSerialRunner:
    def test_results_in_order_and_passing(self):
        scenarios = _fir_grid()
        results = ExperimentRunner(scenarios).run()
        assert [r.scenario for r in results] == [s.name for s in scenarios]
        assert all(r.passed for r in results)
        assert all(r.report is not None for r in results)

    def test_keep_platforms(self):
        results = ExperimentRunner(_fir_grid()[:1], keep_platforms=True).run()
        assert results[0].platform is not None
        assert results[0].platform.config.num_memories == 1

    def test_workload_error_is_captured(self):
        scenario = Scenario(name="broken", config=_base_config(),
                            workload=_raise_on_build)
        [result] = ExperimentRunner([scenario]).run()
        assert not result.passed
        assert "deliberately broken" in result.error
        with pytest.raises(RuntimeError, match="broken"):
            result.raise_for_status()

    def test_max_time_surfaces_unfinished(self):
        config = _base_config()
        scenario = Scenario(name="stuck", config=config,
                            workload=_spin_forever,
                            max_time=10_000 * config.clock_period)
        [result] = ExperimentRunner([scenario]).run()
        assert not result.passed
        assert result.report is not None
        assert result.report.finished == {"pe0": False}
        assert any("unfinished" in failure for failure in result.failures)

    def test_crashing_check_is_contained_as_failure(self):
        config = _base_config()

        def crashing_check(report):
            return [list(f) for f in report.results["pe0"]]  # None on timeout

        def with_check(cfg, **params):
            from repro.sw import Workload
            built = _spin_forever(cfg)
            return Workload(tasks=built, checks=[crashing_check])

        scenario = Scenario(name="crashcheck", config=config,
                            workload=with_check,
                            max_time=10_000 * config.clock_period)
        [result] = ExperimentRunner([scenario]).run()
        assert result.error is None  # the run itself completed
        assert any("unfinished" in failure for failure in result.failures)
        assert any("crashing_check: raised TypeError" in failure
                   for failure in result.failures)

    def test_empty_runner(self):
        assert ExperimentRunner([]).run() == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExperimentRunner([], shards=0)
        with pytest.raises(ValueError):
            ExperimentRunner([], timeout_s=0)
        with pytest.raises(ValueError):
            ExperimentRunner([], shards=2, keep_platforms=True)


class TestShardedRunner:
    def test_two_shards_match_serial(self):
        scenarios = _fir_grid()
        serial = ExperimentRunner(scenarios).run()
        sharded = ExperimentRunner(scenarios, shards=2).run()
        assert [r.scenario for r in sharded] == [r.scenario for r in serial]
        for a, b in zip(serial, sharded):
            assert b.passed, (b.failures, b.error)
            assert a.report.results == b.report.results
            assert a.report.simulated_time == b.report.simulated_time
            assert a.report.finished == b.report.finished
            assert a.report.total_api_calls() == b.report.total_api_calls()

    def test_more_shards_than_scenarios(self):
        scenarios = _fir_grid()[:2]
        results = ExperimentRunner(scenarios, shards=8).run()
        assert all(r.passed for r in results)

    def test_per_run_timeout_terminates_worker(self):
        """With one worker (``shards=1``) the stuck scenario times out
        alone and a fresh worker runs the rest."""
        config = _base_config()
        scenarios = [
            Scenario(name="stuck", config=config, workload=_spin_forever),
            *_fir_grid()[:2],
        ]
        results = ExperimentRunner(scenarios, shards=1, timeout_s=1.0).run()
        assert results[0].timed_out
        assert not results[0].passed
        assert "timed out" in results[0].error
        # The healthy scenarios still complete normally.
        for result in results[1:]:
            assert result.passed, (result.failures, result.error)
            assert not result.timed_out
        assert multiprocessing.active_children() == []


class TestWorkerPool:
    """The sharded runner's long-lived workers, with ``shards=1`` (and a
    ``timeout_s``, so the sharded path runs) wherever one worker must be
    replaced."""

    @staticmethod
    def _fir(name):
        return Scenario(name=name, config=_base_config(), workload="fir",
                        params={"num_samples": 8})

    def test_death_fails_only_its_scenario(self):
        scenarios = [self._fir("a"),
                     Scenario(name="dies", config=_base_config(),
                              workload=_die),
                     self._fir("b"), self._fir("c")]
        results = ExperimentRunner(scenarios, shards=1, timeout_s=60).run()
        assert "exit code 3" in results[1].error
        assert not results[1].passed and not results[1].timed_out
        for result in results[:1] + results[2:]:
            assert result.passed, (result.failures, result.error)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_run_or_its_abort(self):
        class Explodes(Exception):
            pass

        class ExplodingMonitor(SweepMonitor):
            def emit(self, event):
                if event.kind == "started":
                    raise Explodes(event.scenario)

        ExperimentRunner([self._fir("a"), self._fir("b")], shards=1,
                         timeout_s=60).run()
        assert multiprocessing.active_children() == []
        with pytest.raises(Explodes):
            ExperimentRunner([self._fir("a"), self._fir("b")], shards=2,
                             monitor=ExplodingMonitor(live=False)).run()
        assert multiprocessing.active_children() == []

    def test_no_state_leaks_between_scenarios_of_one_worker(self):
        bus_fir = Scenario(name="bus-fir", config=_base_config(),
                           workload="fir", params={"num_samples": 16})
        mesh = (PlatformBuilder().pes(2).wrapper_memories(2).mesh(2, 2)
                .l1_cache(sets=8, ways=2, line_bytes=16, policy="write_back")
                .sanitize().build())
        mesh_stencil = Scenario(name="mesh-stencil", config=mesh,
                                workload="stencil", params={"size": 16})

        def fingerprint(result):
            result.raise_for_status()
            return result.report.observables_sha256(), result.report.cost()

        serial = {result.scenario: fingerprint(result) for result in
                  ExperimentRunner([bus_fir, mesh_stencil]).run()}
        for order in ([bus_fir, mesh_stencil], [mesh_stencil, bus_fir]):
            pooled = ExperimentRunner(order, shards=1, timeout_s=60).run()
            assert {r.scenario: fingerprint(r) for r in pooled} == serial

    def test_workers_outlive_one_scenario(self):
        scenarios = [Scenario(name=f"fir{n}", config=_base_config(),
                              workload="fir", params={"num_samples": n},
                              checks=(_report_pid,))
                     for n in (8, 9, 10, 11, 12, 13)]
        results = ExperimentRunner(scenarios, shards=2).run()
        pids = set()
        for result in results:
            assert result.error is None, result.error
            [message] = result.failures  # the check's message is the only one
            pids.add(int(message))
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2


class TestWriters:
    @pytest.fixture()
    def results(self):
        return ExperimentRunner(_fir_grid()).run()

    def test_results_table(self, results):
        table = results_table(results)
        assert "fir[num_memories=1,num_samples=8]" in table
        assert "simulated_cycles" in table

    def test_write_json_round_trip(self, results, tmp_path):
        path = write_json(results, str(tmp_path / "results.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == "repro.api.results/v1"
        assert payload["count"] == 4 and payload["passed"] == 4
        first = payload["results"][0]
        assert first["scenario"] == results[0].scenario
        assert first["report"]["simulated_cycles"] > 0
        assert first["report"]["finished"] == {"pe0": True}

    def test_write_csv_round_trip(self, results, tmp_path):
        path = write_csv(results, str(tmp_path / "results.csv"))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["scenario"] == results[0].scenario
        assert all(row["status"] == "ok" for row in rows)


class TestSeededReproducibility:
    def test_seed_is_applied_before_workload_build(self):
        import random

        def random_workload(config, **params):
            value = random.randrange(1 << 30)

            def task(ctx):
                yield from ctx.compute(1)
                return value

            return [task]

        scenario = Scenario(name="seeded", config=_base_config(),
                            workload=random_workload, seed=1234)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.report.results == second.report.results

    def test_seeding_does_not_leak_global_rng_state(self):
        import random

        scenario = Scenario(name="seeded", config=_base_config(),
                            workload="fir", params={"num_samples": 8},
                            seed=42)
        random.seed(999)
        expected_next = random.random()
        random.seed(999)
        run_scenario(scenario)
        assert random.random() == expected_next

    def test_capture_errors_false_raises_original(self):
        scenario = Scenario(name="broken", config=_base_config(),
                            workload=_raise_on_build)
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_scenario(scenario, capture_errors=False)
