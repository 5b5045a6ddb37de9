"""``partitions=1`` must be the ordinary sequential simulation, free.

The PDES dispatch is a single integer comparison in ``run_scenario``:
an unpartitioned config must never touch the coordinator, must produce a
report byte-identical to one from a config without the field, and must
not pay measurable wall-clock overhead.
"""

import dataclasses
import time

from repro.api import PlatformBuilder, Scenario, run_scenario

#: Generous ceiling for the A/B smoke: both arms run the identical code
#: path, so even a loaded host stays far under this.
MAX_OVERHEAD_RATIO = 1.5


def _scenario(config):
    return Scenario(name="seq", config=config, workload="fir",
                    params={"num_samples": 48}, seed=6)


def _mesh_config():
    return (PlatformBuilder().pes(4).wrapper_memories(2)
            .mesh(4, 4).build())


def test_partitions_1_report_is_identical_to_unpartitioned():
    base = _mesh_config()
    explicit = dataclasses.replace(base, partitions=1,
                                   pdes_epoch_cycles=None)
    plain = run_scenario(_scenario(base))
    tagged = run_scenario(_scenario(explicit))
    assert plain.error is None and tagged.error is None
    assert tagged.report.pdes is None
    assert "pdes" not in tagged.report.as_dict()
    assert plain.report.observables() == tagged.report.observables()
    assert plain.report.cost() == tagged.report.cost()
    assert base.describe() == explicit.describe()


def test_sequential_dispatch_never_touches_the_coordinator(monkeypatch):
    import repro.pdes.coordinator as coordinator

    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("run_partitioned called for partitions=1")

    monkeypatch.setattr(coordinator, "run_partitioned", explode)
    result = run_scenario(_scenario(_mesh_config()))
    assert result.error is None
    assert result.report.pdes is None


def test_sequential_wallclock_smoke():
    """A/B timing: the dispatch branch costs nothing measurable."""
    base = _mesh_config()
    explicit = dataclasses.replace(base, partitions=1)
    # Warm-up both arms, then measure the faster of five runs each.  The
    # arms alternate, and swap which goes first every round, so a burst of
    # load on a shared host lands on both, and the min strips the rest.
    run_scenario(_scenario(base))
    run_scenario(_scenario(explicit))

    best = {"plain": float("inf"), "tagged": float("inf")}
    arms = [("plain", base), ("tagged", explicit)]
    for _ in range(5):
        for arm, config in arms:
            start = time.perf_counter()
            run_scenario(_scenario(config))
            best[arm] = min(best[arm], time.perf_counter() - start)
        arms.reverse()

    plain, tagged = best["plain"], best["tagged"]
    assert tagged <= plain * MAX_OVERHEAD_RATIO, (
        f"partitions=1 run took {tagged:.4f}s vs {plain:.4f}s unpartitioned"
    )
