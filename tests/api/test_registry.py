"""Tests for the workload registry and the built-in catalog."""

import pytest

from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.sw import Workload, WorkloadError, WorkloadRegistry, as_workload, workload


def _config(pes=1, memories=1):
    return PlatformBuilder().pes(pes).wrapper_memories(memories).build()


class TestRegistryMechanics:
    def test_register_and_create(self):
        registry = WorkloadRegistry()

        @registry.register("probe")
        def _probe(config, *, value=1):
            def task(ctx):
                yield from ctx.compute(1)
                return value

            return [task for _ in range(config.num_pes)]

        built = registry.create("probe", _config(pes=2), value=7)
        assert isinstance(built, Workload)
        assert len(built.tasks) == 2
        assert "probe" in registry
        assert registry.names() == ["probe"]

    def test_duplicate_name_rejected(self):
        registry = WorkloadRegistry()
        registry.register("dup", lambda config: [])
        with pytest.raises(WorkloadError, match="already registered"):
            registry.register("dup", lambda config: [])

    def test_unknown_name_lists_known(self):
        registry = WorkloadRegistry()
        registry.register("known", lambda config: [])
        with pytest.raises(WorkloadError, match="unknown workload 'nope'.*known"):
            registry.get("nope")

    def test_bad_name_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadRegistry().register("")

    def test_as_workload_normalisation(self):
        def task(ctx):
            yield from ctx.compute(1)

        assert as_workload(task).tasks == [task]
        assert as_workload([task, task]).tasks == [task, task]
        wl = Workload(tasks=[task])
        assert as_workload(wl) is wl
        with pytest.raises(WorkloadError):
            as_workload(42)


class TestBuiltinCatalog:
    def test_builtins_registered(self):
        for name in ("fir", "matmul", "producer_consumer", "gsm_encode",
                     "alloc_churn"):
            assert name in workload, name

    @pytest.mark.parametrize("name,pes,params", [
        ("fir", 2, {"num_samples": 12, "seed": 5}),
        ("matmul", 3, {"rows": 4, "inner": 2, "cols": 2, "seed": 1}),
        ("producer_consumer", 2, {"num_items": 6, "fifo_depth": 2}),
        ("alloc_churn", 1, {"iterations": 6, "gsm_frames": 1}),
    ])
    def test_builtin_runs_and_passes_checks(self, name, pes, params):
        scenario = Scenario(name=f"{name}-smoke", config=_config(pes=pes),
                            workload=name, params=params)
        result = run_scenario(scenario)
        assert result.passed, (result.failures, result.error)

    def test_matmul_needs_two_pes(self):
        with pytest.raises(WorkloadError, match="at least 2 PEs"):
            workload.create("matmul", _config(pes=1))

    def test_producer_consumer_needs_even_pes(self):
        with pytest.raises(WorkloadError, match="even number"):
            workload.create("producer_consumer", _config(pes=3))

    def test_checks_catch_wrong_results(self):
        # A workload whose check must fail: compare against a wrong answer.
        built = workload.create("fir", _config(), num_samples=8, seed=2)
        class FakeReport:
            results = {"pe0": [1, 2, 3]}
        messages = [check(FakeReport()) for check in built.checks]
        assert any(isinstance(msg, str) for msg in messages)

    @pytest.mark.parametrize("name,function,params", [
        ("fir", "fir_reference", {"num_samples": 8}),
        ("stencil", "stencil_reference", {"size": 8}),
    ])
    def test_reference_outputs_wait_for_the_check(self, monkeypatch, name,
                                                  function, params):
        """A built workload that is never checked (each PDES partition
        worker builds one) has not computed its reference; the check
        computes it once, however often it runs."""
        import repro.sw.catalog as catalog

        calls = []
        real = getattr(catalog, function)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(catalog, function, counting)
        built = workload.create(name, _config(pes=2), **params)
        assert calls == []
        result = run_scenario(Scenario(
            name="lazy", config=_config(pes=2),
            workload=lambda config: built))
        assert result.passed, (result.failures, result.error)
        assert len(calls) == 2  # one per PE
        for check in built.checks:
            assert check(result.report) is True
        assert len(calls) == 2
