"""Tests for platform configuration and the reporting/statistics helpers."""

import dataclasses
import re

import pytest

from repro.fabric import POLICY_KINDS
from repro.soc import (
    InterconnectKind,
    MemoryKind,
    PlatformConfig,
    SimulationReport,
    format_table,
    speed_degradation,
)


def make_report(cycles=1000, wall=0.5, period=10, finished=True):
    return SimulationReport(
        description="test",
        simulated_time=cycles * period,
        clock_period=period,
        wallclock_seconds=wall,
        kernel_stats={},
        pe_reports=[{"finished": finished, "api_calls": 7}],
        memory_reports=[],
        interconnect_stats={"transactions": 42},
    )


class TestPlatformConfig:
    def test_defaults_match_paper_platform(self):
        config = PlatformConfig()
        assert config.num_pes == 4
        assert config.num_memories == 1
        assert config.memory_kind is MemoryKind.WRAPPER
        assert config.interconnect is InterconnectKind.SHARED_BUS
        assert config.arbitration == "round_robin"

    def test_arbitration_is_a_policy_kind(self):
        for kind in POLICY_KINDS:
            assert PlatformConfig(arbitration=kind).arbitration_spec().kind \
                == kind

    @pytest.mark.parametrize("alias", ["rr", "priority", "weighted", "wrr"])
    def test_former_aliases_rejected_listing_the_kinds(self, alias):
        with pytest.raises(ValueError, match=re.escape(str(list(POLICY_KINDS)))):
            PlatformConfig(arbitration=alias)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(num_pes=0)
        with pytest.raises(ValueError):
            PlatformConfig(num_memories=0)
        with pytest.raises(ValueError):
            PlatformConfig(clock_period=0)
        with pytest.raises(ValueError):
            PlatformConfig(idle_tick_work=-1)

    @pytest.mark.parametrize("field, bad", [
        ("num_pes", 1.5), ("num_pes", True), ("memory_window_stride", 0),
        ("memory_base_address", -1), ("memory_capacity_bytes", -5),
        ("name", ""), ("arbitration_cycles", -3), ("wrapper_delays", "sdram"),
    ])
    def test_replace_checks_each_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PlatformConfig(), **{field: bad})

    def test_grid_points_are_checked(self):
        from repro.api import scenario_grid

        with pytest.raises(ValueError, match="num_pes"):
            scenario_grid("g", PlatformConfig(), "fir",
                          config_grid={"num_pes": [True]})

    def test_memory_base_addresses_are_disjoint_windows(self):
        config = PlatformConfig(num_memories=4)
        bases = [config.memory_base(i) for i in range(4)]
        assert len(set(bases)) == 4
        assert all(b2 - b1 >= 0x1000 for b1, b2 in zip(bases, bases[1:]))
        with pytest.raises(ValueError):
            config.memory_base(4)

    def test_describe_mentions_key_parameters(self):
        text = PlatformConfig(num_pes=2, num_memories=3).describe()
        assert "2 PE" in text and "3 x" in text


class TestSimulationReport:
    def test_speed_metric(self):
        report = make_report(cycles=2000, wall=2.0)
        assert report.simulated_cycles == 2000
        assert report.simulation_speed == pytest.approx(1000.0)

    def test_summary_and_dict(self):
        report = make_report()
        text = report.summary()
        assert "cycles/s" in text
        data = report.as_dict()
        assert data["simulated_cycles"] == 1000
        assert report.all_pes_finished
        assert report.total_api_calls() == 7
        assert report.total_transactions() == 42

    def test_unfinished_pe_detected(self):
        assert not make_report(finished=False).all_pes_finished

    def test_degradation_20_percent(self):
        fast = make_report(cycles=1000, wall=1.0)     # 1000 cycles/s
        slow = make_report(cycles=1000, wall=1.25)    # 800 cycles/s
        assert speed_degradation(fast, slow) == pytest.approx(0.20)

    def test_degradation_negative_when_faster(self):
        fast = make_report(cycles=1000, wall=1.0)
        faster = make_report(cycles=1000, wall=0.5)
        assert speed_degradation(fast, faster) < 0


class TestSweepAndTable:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yyy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
