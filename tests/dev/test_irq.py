"""Interrupt controller semantics: edge/level, masking, doorbells, wakeups."""

import pytest

from repro.api import PlatformBuilder, run_tasks
from repro.dev.irq import (
    REG_ACK,
    REG_ENABLE_BASE,
    REG_PENDING,
    InterruptController,
    IrqClient,
    lines_to_mask,
)


class TestLinesToMask:
    def test_int_and_iterable(self):
        assert lines_to_mask(3) == 0b1000
        assert lines_to_mask([0, 2]) == 0b101

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lines_to_mask(32)
        with pytest.raises(ValueError):
            lines_to_mask(4, limit=4)


class TestControllerWires:
    """Direct (no-simulation) mask logic on the controller."""

    def make(self, num_pes=2, lines=8):
        return InterruptController("irqc", num_pes=num_pes, lines=lines)

    def test_edge_latches_until_ack(self):
        irqc = self.make()
        irqc.raise_irq(1)
        assert irqc.pending_mask == 0b10
        irqc.ack_mask(0b10)
        assert irqc.pending_mask == 0

    def test_level_follows_wire_through_ack(self):
        irqc = self.make()
        irqc.configure_level(2)
        irqc.set_level(2, True)
        assert irqc.pending_mask == 0b100
        irqc.ack_mask(0b100)          # still asserted: re-pends immediately
        assert irqc.pending_mask == 0b100
        irqc.set_level(2, False)
        assert irqc.pending_mask == 0

    def test_lines_above_width_rejected(self):
        irqc = self.make(lines=4)
        with pytest.raises(ValueError):
            irqc.raise_irq(4)

    def test_enable_is_per_pe(self):
        irqc = self.make()
        client0 = IrqClient(irqc, 0)
        client1 = IrqClient(irqc, 1)
        client0.enable([0, 1])
        client1.enable(1)
        irqc.raise_irq(0)
        assert client0.pending() == 0b1
        assert client1.pending() == 0
        client0.disable(0)
        assert client0.pending() == 0

    def test_register_map_mirrors_wires(self):
        from repro.fabric.transaction import BusOp, BusRequest

        def bus_write(dev, reg, value):
            dev.serve(BusRequest(0, BusOp.WRITE, 0, data=value), 4 * reg)

        def bus_read(dev, reg):
            response, _ = dev.serve(BusRequest(0, BusOp.READ, 0), 4 * reg)
            return response.data

        irqc = self.make()
        bus_write(irqc, REG_PENDING, 0b101)    # software doorbell (W1S)
        assert bus_read(irqc, REG_PENDING) == 0b101
        assert irqc.soft_raises == 1
        bus_write(irqc, REG_ACK, 0b001)        # W1C
        assert bus_read(irqc, REG_PENDING) == 0b100
        bus_write(irqc, REG_ENABLE_BASE + 1, 0b111)
        assert irqc.enable[1] == 0b111

    def test_wait_on_fully_masked_lines_is_an_error(self):
        irqc = self.make()
        client = IrqClient(irqc, 0)
        with pytest.raises(ValueError):
            next(client.wait(3))


class TestSimulatedDelivery:
    """IRQ delivery through real platform runs."""

    def run_pair(self, waiter, raiser, **kwargs):
        config = (PlatformBuilder().pes(2).wrapper_memories(1)
                  .irq_controller(lines=8).build())
        return run_tasks(config, [waiter, raiser], **kwargs)

    def test_cross_pe_doorbell(self):
        def waiter(ctx):
            ctx.enable_irq(5)
            mask = yield from ctx.wait_irq(5)
            return mask

        def raiser(ctx):
            yield from ctx.compute(20)
            yield from ctx.raise_irq(5)
            return "rang"

        report = self.run_pair(waiter, raiser)
        assert report.results["pe0"] == 1 << 5
        assert report.results["pe1"] == "rang"
        irqc = report.device_reports[0]
        assert irqc["kind"] == "irq_controller"
        assert irqc["soft_raises"] == 1
        assert irqc["wakeups"] >= 1

    def test_raise_before_wait_is_not_lost(self):
        """The latch delivers doorbells rung while the target is busy."""
        def waiter(ctx):
            ctx.enable_irq(2)
            yield from ctx.compute(500)        # doorbell rings in here
            mask = yield from ctx.wait_irq(2)  # must return without blocking
            return mask

        def raiser(ctx):
            yield from ctx.raise_irq(2)
            return "early"

        report = self.run_pair(waiter, raiser)
        assert report.results["pe0"] == 0b100

    def test_wait_any_returns_claimed_mask(self):
        def waiter(ctx):
            ctx.enable_irq([1, 3])
            mask = yield from ctx.wait_irq()
            return mask

        def raiser(ctx):
            yield from ctx.compute(10)
            yield from ctx.raise_irq([1, 3])
            return "rang"

        report = self.run_pair(waiter, raiser)
        assert report.results["pe0"] == 0b1010

    def test_wait_irq_without_devices_raises_task_error(self):
        from repro.kernel.errors import ProcessError

        config = PlatformBuilder().pes(1).wrapper_memories(1).build()

        def task(ctx):
            yield from ctx.wait_irq(0)

        with pytest.raises(ProcessError, match="no interrupt controller"):
            run_tasks(config, [task])
