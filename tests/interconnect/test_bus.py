"""Tests for the shared bus and crossbar using simple test slaves."""

import pytest

from repro.fabric import BusOp, BusRequest, BusResponse, BusSlave, ResponseStatus
from repro.interconnect import Crossbar, SharedBus
from repro.kernel import Module, Simulator


class ScratchSlave(BusSlave):
    """A tiny word-addressable RAM with configurable access latency."""

    def __init__(self, words=64, cycles=1):
        self.storage = [0] * words
        self.cycles = cycles
        self.accesses = 0

    def serve(self, request, offset):
        return self._access(request, offset), self.cycles

    def _access(self, request, offset):
        self.accesses += 1
        index = offset // 4
        if index >= len(self.storage):
            return BusResponse(status=ResponseStatus.SLAVE_ERROR)
        if request.op is BusOp.WRITE:
            if request.burst_data is not None:
                for i, word in enumerate(request.burst_data):
                    self.storage[index + i] = word
            else:
                self.storage[index] = request.data
            return BusResponse()
        if request.burst_length:
            return BusResponse(
                burst_data=self.storage[index:index + request.burst_length]
            )
        return BusResponse(data=self.storage[index])


class MasterHarness(Module):
    """Runs a scripted list of bus operations and records the responses."""

    def __init__(self, name, port, script, parent=None, start_delay=0):
        super().__init__(name, parent)
        self.port = port
        self.script = script
        self.responses = []
        self.finish_time = None
        self.start_delay = start_delay
        self.add_process(self._run, name="driver")

    def _run(self):
        if self.start_delay:
            yield self.start_delay
        for request in self.script:
            response = yield from self.port.transfer(request)
            self.responses.append(response)
        self.finish_time = self.port._interconnect.sim_now()


def run_platform(build):
    top = Module("top")
    artifacts = build(top)
    sim = Simulator(top)
    sim.run()
    return sim, artifacts


class TestSharedBus:
    def test_single_master_read_write(self):
        def build(top):
            bus = SharedBus("bus", period=10, parent=top)
            slave = ScratchSlave()
            bus.attach_slave("ram", 0x0, 0x100, slave)
            port = bus.master_port(0)
            script = [
                BusRequest(0, BusOp.WRITE, 0x10, data=0xDEAD),
                BusRequest(0, BusOp.READ, 0x10),
            ]
            harness = MasterHarness("m0", port, script, parent=top)
            return bus, slave, harness

        _, (bus, slave, harness) = run_platform(build)
        assert [r.ok for r in harness.responses] == [True, True]
        assert harness.responses[1].data == 0xDEAD
        assert slave.accesses == 2
        assert bus.stats.transactions == 2

    def test_decode_error(self):
        def build(top):
            bus = SharedBus("bus", period=10, parent=top)
            bus.attach_slave("ram", 0x0, 0x100, ScratchSlave())
            port = bus.master_port(0)
            harness = MasterHarness(
                "m0", port, [BusRequest(0, BusOp.READ, 0x9999)], parent=top
            )
            return bus, harness

        _, (bus, harness) = run_platform(build)
        assert harness.responses[0].status is ResponseStatus.DECODE_ERROR
        assert bus.stats.decode_errors == 1

    def test_latency_accounting(self):
        def build(top):
            bus = SharedBus("bus", period=10, arbitration_cycles=2, parent=top)
            slave = ScratchSlave(cycles=3)
            bus.attach_slave("ram", 0x0, 0x100, slave)
            port = bus.master_port(0)
            harness = MasterHarness(
                "m0", port, [BusRequest(0, BusOp.READ, 0x0)], parent=top
            )
            return bus, harness

        _, (bus, harness) = run_platform(build)
        response = harness.responses[0]
        assert response.slave_cycles == 3
        assert response.total_cycles == 5

    def test_two_masters_are_serialised(self):
        def build(top):
            bus = SharedBus("bus", period=10, arbitration_cycles=0, parent=top)
            slave = ScratchSlave(cycles=4)
            bus.attach_slave("ram", 0x0, 0x100, slave)
            scripts = [
                [BusRequest(i, BusOp.WRITE, 0x20 + 4 * i, data=i)] for i in range(2)
            ]
            harnesses = [
                MasterHarness(f"m{i}", bus.master_port(i), scripts[i], parent=top)
                for i in range(2)
            ]
            return bus, slave, harnesses

        sim, (bus, slave, harnesses) = run_platform(build)
        # Two 4-cycle transfers over a 10-unit period bus: at least 80 time units.
        assert sim.now >= 80
        assert slave.storage[8] == 0 and slave.storage[9] == 1
        assert bus.stats.per_master[0].transactions == 1
        assert bus.stats.per_master[1].transactions == 1

    def test_round_robin_fairness_under_contention(self):
        def build(top):
            bus = SharedBus("bus", period=10, arbitration_cycles=0, parent=top)
            slave = ScratchSlave(cycles=1)
            bus.attach_slave("ram", 0x0, 0x400, slave)
            harnesses = []
            for master in range(3):
                script = [
                    BusRequest(master, BusOp.WRITE, 4 * (master * 16 + i), data=i)
                    for i in range(10)
                ]
                harnesses.append(
                    MasterHarness(f"m{master}", bus.master_port(master), script,
                                  parent=top)
                )
            return bus, harnesses

        _, (bus, harnesses) = run_platform(build)
        counts = [bus.stats.per_master[i].transactions for i in range(3)]
        assert counts == [10, 10, 10]
        finish_times = [h.finish_time for h in harnesses]
        assert max(finish_times) - min(finish_times) <= 3 * 10 * 2

    def test_burst_transfer(self):
        def build(top):
            bus = SharedBus("bus", period=10, parent=top)
            slave = ScratchSlave()
            bus.attach_slave("ram", 0x0, 0x100, slave)
            port = bus.master_port(0)
            script = [
                BusRequest(0, BusOp.WRITE, 0x0, burst_data=[1, 2, 3, 4]),
                BusRequest(0, BusOp.READ, 0x0, burst_length=4),
            ]
            harness = MasterHarness("m0", port, script, parent=top)
            return slave, harness

        _, (slave, harness) = run_platform(build)
        assert slave.storage[:4] == [1, 2, 3, 4]
        assert harness.responses[1].burst_data == [1, 2, 3, 4]

    def test_duplicate_master_id_rejected(self):
        bus = SharedBus("bus", period=10)
        bus.master_port(0)
        with pytest.raises(ValueError):
            bus.master_port(0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SharedBus("bus", period=0)
        with pytest.raises(ValueError):
            SharedBus("bus", period=10, arbitration_cycles=-1)

    def test_utilization(self):
        def build(top):
            bus = SharedBus("bus", period=10, arbitration_cycles=0, parent=top)
            bus.attach_slave("ram", 0x0, 0x100, ScratchSlave(cycles=2))
            port = bus.master_port(0)
            script = [BusRequest(0, BusOp.READ, 0x0) for _ in range(5)]
            harness = MasterHarness("m0", port, script, parent=top)
            return bus, harness

        sim, (bus, _) = run_platform(build)
        util = bus.utilization(sim.now)
        assert 0.5 < util <= 1.0


class TestCrossbar:
    def test_parallel_channels_overlap(self):
        def build(top):
            xbar = Crossbar("xbar", period=10, arbitration_cycles=0, parent=top)
            slow_a = ScratchSlave(cycles=10)
            slow_b = ScratchSlave(cycles=10)
            xbar.attach_slave("a", 0x0000, 0x100, slow_a)
            xbar.attach_slave("b", 0x1000, 0x100, slow_b)
            harness_a = MasterHarness(
                "m0", xbar.master_port(0), [BusRequest(0, BusOp.READ, 0x0)], parent=top
            )
            harness_b = MasterHarness(
                "m1", xbar.master_port(1), [BusRequest(1, BusOp.READ, 0x1000)],
                parent=top,
            )
            return xbar, harness_a, harness_b

        sim, (xbar, *_rest) = run_platform(build)
        # Both 10-cycle transfers overlap → total time ~100, not ~200.
        assert sim.now <= 150
        assert xbar.stats.transactions == 2

    def test_same_slave_serialised(self):
        def build(top):
            xbar = Crossbar("xbar", period=10, arbitration_cycles=0, parent=top)
            slave = ScratchSlave(cycles=10)
            xbar.attach_slave("a", 0x0000, 0x100, slave)
            h0 = MasterHarness(
                "m0", xbar.master_port(0), [BusRequest(0, BusOp.READ, 0x0)], parent=top
            )
            h1 = MasterHarness(
                "m1", xbar.master_port(1), [BusRequest(1, BusOp.READ, 0x4)], parent=top
            )
            return xbar, h0, h1

        sim, _ = run_platform(build)
        assert sim.now >= 200

    def test_decode_error_completes(self):
        def build(top):
            xbar = Crossbar("xbar", period=10, parent=top)
            xbar.attach_slave("a", 0x0, 0x100, ScratchSlave())
            harness = MasterHarness(
                "m0", xbar.master_port(0), [BusRequest(0, BusOp.READ, 0xF000)],
                parent=top,
            )
            return xbar, harness

        _, (xbar, harness) = run_platform(build)
        assert harness.responses[0].status is ResponseStatus.DECODE_ERROR
        assert xbar.stats.decode_errors == 1

    def test_channel_stats(self):
        def build(top):
            xbar = Crossbar("xbar", period=10, parent=top)
            xbar.attach_slave("a", 0x0, 0x100, ScratchSlave())
            xbar.attach_slave("b", 0x1000, 0x100, ScratchSlave())
            harness = MasterHarness(
                "m0",
                xbar.master_port(0),
                [BusRequest(0, BusOp.READ, 0x0), BusRequest(0, BusOp.READ, 0x1000)],
                parent=top,
            )
            return xbar, harness

        _, (xbar, _) = run_platform(build)
        stats = xbar.channel_stats()
        assert stats["a"]["transactions"] == 1
        assert stats["b"]["transactions"] == 1


class TestBusRequestValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            BusRequest(0, BusOp.READ, 0x0, size=3)

    def test_negative_address(self):
        with pytest.raises(ValueError):
            BusRequest(0, BusOp.READ, -4)

    def test_word_count(self):
        assert BusRequest(0, BusOp.READ, 0).word_count == 1
        assert BusRequest(0, BusOp.READ, 0, burst_length=7).word_count == 7
        assert BusRequest(0, BusOp.WRITE, 0, burst_data=[1, 2]).word_count == 2

    def test_describe(self):
        text = BusRequest(1, BusOp.WRITE, 0x40, burst_data=[1, 2, 3]).describe()
        assert "burst" in text and "m1" in text
