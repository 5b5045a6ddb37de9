"""Tests for simulation-time constants."""

from repro.kernel.simtime import NS, PS


class TestUnits:
    def test_unit_ratios(self):
        assert PS == 1
        assert NS == 1000 * PS
