"""Tests for the analysis metrics and the sweep-point helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    best_point,
    degradation,
    expand_grid,
    geometric_mean,
    harmonic_mean,
    overhead,
    percent,
    speedup,
    summarize,
    sweep_table,
)
from repro.api import ExperimentRunner, scenario_grid
from repro.soc import PlatformConfig, SweepPoint


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 5.0) == pytest.approx(2.0)
        assert speedup(10.0, 0.0) == float("inf")

    def test_degradation_matches_paper_convention(self):
        assert degradation(1000.0, 800.0) == pytest.approx(0.20)
        assert degradation(0.0, 10.0) == 0.0

    def test_overhead(self):
        assert overhead(1.0, 1.2) == pytest.approx(0.2)
        assert overhead(0.0, 5.0) == 0.0

    def test_means(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert harmonic_mean([2.0, 2.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert harmonic_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ValueError):
            harmonic_mean([0.0])

    def test_summarize(self):
        summary = summarize([3, 1, 2])
        assert summary["count"] == 3
        assert summary["min"] == 1 and summary["max"] == 3
        assert summary["median"] == 2
        assert summarize([])["count"] == 0
        assert summarize([1, 2, 3, 4])["median"] == pytest.approx(2.5)

    def test_percent(self):
        assert percent(0.196) == "19.6%"
        assert percent(0.5, digits=0) == "50%"

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20))
    def test_mean_ordering_property(self, values):
        geo = geometric_mean(values)
        harm = harmonic_mean(values)
        arith = sum(values) / len(values)
        assert harm <= geo + 1e-6
        assert geo <= arith + 1e-6


class TestSweep:
    def test_expand_grid(self):
        grid = expand_grid({"a": [1, 2], "b": ["x"]})
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert expand_grid({}) == [{}]

    def test_sweep_points_over_memory_counts(self):
        base = PlatformConfig(num_pes=1, num_memories=1)
        scenarios = scenario_grid("fir", base, "fir",
                                  config_grid={"num_memories": [1, 2]},
                                  params={"num_samples": 16,
                                          "taps": (1, 2, 1)})
        results = ExperimentRunner(scenarios).run()
        points = [SweepPoint(label=result.scenario,
                             parameters=dict(result.overrides),
                             report=result.report) for result in results]
        assert len(points) == 2
        assert all(point.report.all_pes_finished for point in points)
        table = sweep_table(points)
        assert "num_memories=1" in table and "num_memories=2" in table
        best = best_point(points)
        assert best in points

    def test_best_point_empty(self):
        with pytest.raises(ValueError):
            best_point([])
