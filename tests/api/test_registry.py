"""Tests for the workload registry and the built-in workloads."""

import importlib
import os
import subprocess
import sys

import pytest

import repro
from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.sw import Workload, WorkloadError, WorkloadRegistry, as_workload, workload
from repro.sw.registry import BUILTIN_MODULES

SRC = os.path.dirname(os.path.dirname(repro.__file__))


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
        assert set(BUILTIN_MODULES) <= set(workload.names())
        assert len(workload) >= len(BUILTIN_MODULES)

    def test_builtins_are_known_before_they_are_loaded(self):
        """``names()``/``in``/``len`` answer from the table; ``get`` imports
        the one module that registers the name (fresh interpreter: this
        one has loaded most workloads already)."""
        script = (
            "import sys\n"
            "from repro.sw import workload\n"
            "from repro.sw.registry import BUILTIN_MODULES\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith("
            "('repro.sw.workloads.', 'repro.sw.gsm.')))\n"
            "assert 'gsm_encode' in workload and 'nope' not in workload\n"
            "assert workload.names() == sorted(BUILTIN_MODULES)\n"
            "assert len(workload) == len(BUILTIN_MODULES)\n"
            "assert loaded() == []\n"
            "workload.get('stencil')\n"
            "assert loaded() == ['repro.sw.workloads.stencil'], loaded()\n"
            "workload.get('stress_irq_handoff')\n"
            "assert 'repro.sw.workloads.stress' in loaded()\n"
            "assert len(workload) == len(BUILTIN_MODULES)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_a_builtin_name_cannot_be_shadowed_before_it_loads(self):
        registry = WorkloadRegistry({"fir": "repro.sw.workloads.fir"})
        with pytest.raises(WorkloadError, match="already registered"):
            registry.register("fir", lambda config: [])
        assert registry.names() == ["fir"]
        with pytest.raises(WorkloadError, match="unknown workload 'fri'.*fir"):
            registry.get("fri")
        registry.unregister("fir")
        assert "fir" not in registry and len(registry) == 0
        registry.register("fir", lambda config: [])  # the name is free again

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
        # The factory lives beside its reference, in the workload's module.
        module = importlib.import_module(BUILTIN_MODULES[name])

        calls = []
        real = getattr(module, function)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, function, counting)
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
