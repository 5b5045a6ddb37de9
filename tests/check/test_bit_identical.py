"""Sanitizers must be timing- and schedule-transparent.

The acceptance bar of ``repro.check``: a sanitized run reaches exactly
the same simulated time and the same ``cost()`` (scheduler counters) as
the unsanitized run of the same scenario (only host wall-clock may differ) — and the default
``check=None`` platform stays bit-identical to the pre-sanitizer model
(the golden scheduler-counter gate in ``tests/perf`` covers that side).
"""

import pytest

from repro.api import PlatformBuilder, run_tasks
from repro.sw.registry import workload

def _builder(kind):
    builder = PlatformBuilder().pes(2).wrapper_memories(1)
    if kind == "crossbar":
        builder = builder.crossbar()
    elif kind == "mesh":
        builder = builder.mesh()
    return builder


def _run(builder, name, sanitize, **params):
    if sanitize:
        builder = builder.sanitize()
    config = builder.build()
    inst = workload.create(name, config, **params)
    return run_tasks(config, inst.tasks)


@pytest.mark.parametrize("kind", ["shared_bus", "crossbar", "mesh"])
def test_sanitizers_do_not_perturb_simulated_time(kind):
    off = _run(_builder(kind), "producer_consumer", False,
               num_items=8, seed=3)
    on = _run(_builder(kind), "producer_consumer", True,
              num_items=8, seed=3)
    assert on.simulated_time == off.simulated_time
    assert on.cost() == off.cost()
    assert on.results == off.results


def test_sanitizers_transparent_with_devices_and_caches():
    def builder():
        return (PlatformBuilder().pes(2).wrapper_memories(2).dma(2)
                .l1_cache(sets=8, ways=2, line_bytes=16))

    off = _run(builder(), "stress_dma_copy", False, words=32, seed=5)
    on = _run(builder(), "stress_dma_copy", True, words=32, seed=5)
    assert on.simulated_time == off.simulated_time
    assert on.cost() == off.cost()
    assert on.results == off.results
    assert on.sanitizer_reports == []  # the clean variant stays clean
