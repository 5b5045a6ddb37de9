"""Regression tests for report serialization edge cases.

``simulation_speed`` is ``float("inf")`` when the wall clock rounded the
run's duration to zero (very fast quick runs); ``as_dict()`` used to pass
it straight to the JSON writers, producing the non-standard ``Infinity``
token.  It must serialise as ``None`` instead.
"""

import json

from repro.soc import SimulationReport


def make_report(wall):
    return SimulationReport(
        description="test",
        simulated_time=10_000,
        clock_period=10,
        wallclock_seconds=wall,
        kernel_stats={},
        pe_reports=[{"name": "pe0", "finished": True}],
    )


class TestSimulationSpeedClamping:
    def test_zero_wallclock_speed_is_inf_but_serialises_none(self):
        report = make_report(0.0)
        assert report.simulation_speed == float("inf")
        assert report.simulation_speed_or_none is None
        data = report.as_dict()
        assert data["simulation_speed"] is None
        # Standard JSON round trip must work (allow_nan=False would raise
        # on Infinity — this is exactly the bug being regression-tested).
        encoded = json.dumps(data, allow_nan=False)
        assert json.loads(encoded)["simulation_speed"] is None

    def test_normal_wallclock_is_untouched(self):
        report = make_report(0.5)
        assert report.simulation_speed == 2000.0
        assert report.simulation_speed_or_none == 2000.0
        assert report.as_dict()["simulation_speed"] == 2000.0

    def test_scenario_result_row_clamps_too(self):
        from repro.api.scenario import ScenarioResult

        result = ScenarioResult(scenario="s", params={}, overrides={})
        result.report = make_report(0.0)
        result.passed = True
        assert result.row()["simulation_speed"] is None
        json.dumps(result.row(), allow_nan=False)

    def test_as_dict_includes_cache_reports_key(self):
        assert make_report(1.0).as_dict()["cache_reports"] == []
