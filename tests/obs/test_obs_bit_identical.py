"""Observability must be timing- and schedule-transparent.

The acceptance bar of ``repro.obs`` (same shape as the sanitizers'
``tests/check/test_bit_identical.py``): an observed run reaches exactly
the same simulated time, ``cost()`` and results as the unobserved
run of the same scenario — on every topology, with devices and caches —
and the default ``obs=None`` platform subscribes nothing to the probe bus.
"""

from collections import Counter

import pytest

from repro.api import PlatformBuilder
from repro.kernel.probes import POINTS
from repro.soc.platform import Platform
from repro.sw.registry import workload

def _builder(kind):
    builder = PlatformBuilder().pes(2).wrapper_memories(1)
    if kind == "crossbar":
        builder = builder.crossbar()
    elif kind == "mesh":
        builder = builder.mesh()
    return builder


def _run(builder, name, observe, **params):
    if observe:
        builder = builder.trace().metrics(interval_cycles=128)
    config = builder.build()
    inst = workload.create(name, config, **params)
    platform = Platform(config)
    platform.add_tasks(inst.tasks)
    return platform.run(), platform


@pytest.mark.parametrize("kind", ["shared_bus", "crossbar", "mesh"])
def test_obs_does_not_perturb_simulated_time(kind):
    off, _ = _run(_builder(kind), "producer_consumer", False,
                  num_items=8, seed=3)
    on, platform = _run(_builder(kind), "producer_consumer", True,
                        num_items=8, seed=3)
    assert on.simulated_time == off.simulated_time
    assert on.cost() == off.cost()
    assert on.results == off.results
    # ... while actually having observed something.
    assert len(platform.obs.trace) > 0
    assert len(on.timeseries) > 0


def test_obs_transparent_with_devices_and_caches():
    def builder():
        return (PlatformBuilder().pes(2).wrapper_memories(2).dma(2)
                .l1_cache(sets=8, ways=2, line_bytes=16))

    off, _ = _run(builder(), "stress_dma_copy", False, words=32, seed=5)
    on, platform = _run(builder(), "stress_dma_copy", True, words=32, seed=5)
    assert on.simulated_time == off.simulated_time
    assert on.cost() == off.cost()
    assert on.results == off.results
    trace = platform.obs.trace
    assert trace.by_category("dma"), "DMA transfer spans expected"
    assert trace.by_category("irq"), "IRQ instants expected"
    assert trace.by_category("cache"), "cache fill/writeback spans expected"


def test_obs_transparent_alongside_sanitizers():
    """Both suites subscribe to the one probe bus; neither displaces the
    other: each sees every ``port_complete`` and every ``irq_raise``."""
    def builder():
        return PlatformBuilder().pes(2).wrapper_memories(2).dma(2)

    base, _ = _run(builder(), "stress_dma_copy", False, words=32, seed=5)

    config = builder().sanitize().trace().metrics(interval_cycles=128).build()
    inst = workload.create("stress_dma_copy", config, words=32, seed=5)
    platform = Platform(config)
    platform.add_tasks(inst.tasks)
    seen = Counter()

    def counting(key, callback):
        def probe(*args):
            seen[key] += 1
            callback(*args)
        return probe

    # attach() subscribes whatever these names resolve to at prepare_run.
    for label, suite in (("check", platform.check_suite),
                         ("obs", platform.obs)):
        suite.on_port_complete = counting((label, "port_complete"),
                                          suite.on_port_complete)
        suite.irq_raised = counting((label, "irq_raise"), suite.irq_raised)
    both = platform.run()

    assert both.simulated_time == base.simulated_time
    assert both.cost() == base.cost()
    assert both.results == base.results
    assert both.sanitizer_reports == []
    transactions = platform.interconnect.stats.transactions
    raises = platform.irq_controller.raises
    assert transactions > 0 and raises > 0
    for label in ("check", "obs"):
        assert seen[label, "port_complete"] == transactions
        assert seen[label, "irq_raise"] == raises
    assert len(platform.obs.trace) > 0


def test_obs_disabled_installs_zero_hooks():
    config = _builder("shared_bus").dma(2).build()
    assert config.obs is None and config.check is None
    inst = workload.create("stress_dma_copy", config, words=16, seed=1)
    platform = Platform(config)
    platform.add_tasks(inst.tasks)
    assert platform.obs is None and platform.check_suite is None
    platform.run()
    for point in POINTS:
        assert getattr(platform.probes, point) is None, point
    # Every emitter was handed the platform's one bus.
    emitters = [platform.simulator, platform.interconnect,
                platform.irq_controller, *platform.dma_engines,
                *(p.context for p in platform.processors)]
    assert all(emitter.probes is platform.probes for emitter in emitters)


def test_obs_subscribes_its_points_and_only_those():
    config = (_builder("shared_bus").dma(2)
              .trace().metrics(interval_cycles=64).build())
    inst = workload.create("stress_dma_copy", config, words=16, seed=1)
    platform = Platform(config)
    platform.add_tasks(inst.tasks)
    for point in POINTS:  # nothing is wired before prepare_run
        assert getattr(platform.probes, point) is None, point
    platform.prepare_run()
    obs = platform.obs
    expected = {"port_issue": obs.on_port_issue,
                "port_complete": obs.on_port_complete,
                "irq_raise": obs.irq_raised, "irq_wait": obs.irq_wait_begin,
                "irq_claim": obs.irq_claimed, "dma_begin": obs.dma_begin,
                "dma_end": obs.dma_end, "task_span": obs.task_span}
    for point in POINTS:
        # A single subscriber is called directly: the bound method itself.
        assert getattr(platform.probes, point) == expected.get(point), point
