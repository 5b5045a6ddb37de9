"""Host-time attribution: buckets per process, reported not traced."""

from repro.api import PlatformBuilder, Scenario
from repro.api.runner import run_scenario


def test_host_profile_buckets_land_in_obs_summary():
    config = (PlatformBuilder().pes(2).wrapper_memories(1)
              .trace(host_profile=True).build())
    scenario = Scenario(name="hp", config=config, workload="producer_consumer",
                        params={"num_items": 8, "seed": 3}, seed=3)
    result = run_scenario(scenario, keep_platform=True, capture_errors=False)
    result.raise_for_status()
    profile = result.obs_summary["host_profile"]
    assert profile, "expected at least one host-time bucket"
    assert all(seconds >= 0 for seconds in profile.values())
    # Attribution keys are process names (or the kernel bucket).
    assert any(".program" in name or name == "kernel" for name in profile)
    # Host time is wall-clock and thus non-deterministic: it must stay
    # out of the deterministic trace event stream.
    assert all(event.cat != "hostprof"
               for event in result.platform.obs.trace.events)


def test_host_profiled_runs_compare_equal_by_observables():
    def run(host_profile):
        config = (PlatformBuilder().pes(2).wrapper_memories(1)
                  .trace(host_profile=host_profile).build())
        result = run_scenario(Scenario(
            name="hp", config=config, workload="producer_consumer",
            params={"num_items": 8, "seed": 3}, seed=3))
        return result.raise_for_status().report

    first, second, off = run(True), run(True), run(False)
    assert first.obs_summary["host_profile"]
    assert "host_profile" not in first.observables()["obs_summary"]
    assert first.observables() == second.observables()
    assert first.observables_sha256() == second.observables_sha256()
    # Profiling the host costs no scheduler work and changes nothing
    # simulated: only the configuration's name tells the runs apart.
    assert first.cost() == second.cost() == off.cost()
    views = [first.observables(), off.observables()]
    for view in views:
        del view["description"], view["obs_summary"]["config"]
    assert views[0] == views[1]
