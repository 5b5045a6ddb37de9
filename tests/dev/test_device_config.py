"""Device layout resolution and PlatformConfig integration."""

import pytest

from repro.api import BuilderError, PlatformBuilder
from repro.dev.config import (
    DeviceLayout,
    DmaConfig,
    IrqControllerConfig,
    TimerConfig,
    resolve_layout,
)


class TestResolveLayout:
    def test_empty_devices_resolve_to_none(self):
        assert resolve_layout((), num_pes=2, base_address=0x2000_0000,
                              stride=0x1_0000) is None

    def test_implicit_controller_occupies_window_zero(self):
        layout = resolve_layout((DmaConfig(),), num_pes=2,
                                base_address=0x2000_0000, stride=0x1_0000)
        assert isinstance(layout, DeviceLayout)
        assert layout.controller.base == 0x2000_0000
        assert layout.controller.kind == "irq"
        assert layout.dma(0).base == 0x2001_0000

    def test_irq_lines_explicit_then_lowest_free(self):
        layout = resolve_layout(
            (DmaConfig(irq_line=3), TimerConfig(), DmaConfig()),
            num_pes=2, base_address=0x2000_0000, stride=0x1_0000)
        assert layout.dma(0).irq_line == 3
        # Auto-assigned lines skip the claimed one, lowest first.
        assert layout.timer(0).irq_line == 0
        assert layout.dma(1).irq_line == 1

    def test_dma_master_ids_follow_the_pes(self):
        layout = resolve_layout((DmaConfig(), DmaConfig()), num_pes=4,
                                base_address=0x2000_0000, stride=0x1_0000)
        assert [slot.master_id for slot in layout.dmas] == [4, 5]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate device name"):
            resolve_layout((DmaConfig(name="x"), TimerConfig(name="x")),
                           num_pes=1, base_address=0x2000_0000,
                           stride=0x1_0000)

    def test_duplicate_irq_lines_rejected(self):
        with pytest.raises(ValueError, match="irq_line"):
            resolve_layout((DmaConfig(irq_line=2), TimerConfig(irq_line=2)),
                           num_pes=1, base_address=0x2000_0000,
                           stride=0x1_0000)

    def test_line_outside_controller_width_rejected(self):
        with pytest.raises(ValueError):
            resolve_layout((IrqControllerConfig(lines=4),
                            TimerConfig(irq_line=9)),
                           num_pes=1, base_address=0x2000_0000,
                           stride=0x1_0000)


class TestBuilderSurface:
    def test_builder_composes_devices(self):
        config = (PlatformBuilder().pes(2).wrapper_memories(1)
                  .irq_controller(lines=16).dma(2, burst_words=32)
                  .timer(compare_cycles=64, periodic=True).build())
        layout = config.device_layout()
        assert layout.controller.config.lines == 16
        assert len(layout.dmas) == 2
        assert layout.dmas[0].config.burst_words == 32
        assert len(layout.timers) == 1

    def test_duplicate_controller_rejected(self):
        with pytest.raises(BuilderError):
            PlatformBuilder().irq_controller().irq_controller().build()

    def test_no_devices_resets(self):
        config = (PlatformBuilder().pes(1).wrapper_memories(1)
                  .dma(1).no_devices().build())
        assert config.device_layout() is None

    def test_device_window_must_not_overlap_memories(self):
        with pytest.raises(ValueError):
            (PlatformBuilder().pes(1).wrapper_memories(1).dma(1)
             .replace(device_base_address=0x1000_0000).build())


class TestDescribe:
    def test_describe_mentions_devices(self):
        config = (PlatformBuilder().pes(2).wrapper_memories(1)
                  .dma(2).timer(compare_cycles=10).build())
        described = config.describe()
        assert "irqc(32)" in described
        assert "2 dma" in described
        assert "1 timer" in described

    def test_describe_without_devices_unchanged(self):
        config = PlatformBuilder().pes(2).wrapper_memories(1).build()
        assert "dma" not in config.describe()
        assert "irqc" not in config.describe()
