"""Unit tests for the RegisterFilePeripheral base class."""

import pytest

from repro.dev.peripheral import RegisterFilePeripheral
from repro.fabric.transaction import BusOp, BusRequest, ResponseStatus


class Scratch(RegisterFilePeripheral):
    """Plain register file plus a doubling hook on register 3."""

    def __init__(self):
        super().__init__("scratch", num_regs=4)
        self.hook_writes = []

    def on_read(self, index, value):
        if index == 3:
            return value * 2
        return value

    def on_write(self, index, value):
        self.hook_writes.append((index, value))
        self._regs[index] = value


def serve(slave, request, offset):
    """The slave's response to one access (no interconnect)."""
    response, _cycles = slave.serve(request, offset)
    return response


class TestRegisterFile:
    def test_scalar_read_write_roundtrip(self):
        dev = Scratch()
        response = serve(dev, BusRequest(0, BusOp.WRITE, 0, data=0xABCD), 4)
        assert response.status is ResponseStatus.OK
        response = serve(dev, BusRequest(0, BusOp.READ, 0), 4)
        assert response.status is ResponseStatus.OK
        assert response.data == 0xABCD
        assert dev.reg_writes == 1 and dev.reg_reads == 1

    def test_hooks_see_every_word_of_a_burst(self):
        dev = Scratch()
        serve(dev, BusRequest(0, BusOp.WRITE, 0, burst_data=[1, 2, 3, 4]), 0)
        assert dev.hook_writes == [(0, 1), (1, 2), (2, 3), (3, 4)]
        response = serve(dev, BusRequest(0, BusOp.READ, 0, burst_length=4), 0)
        # Register 3 reads doubled through the on_read hook.
        assert response.burst_data == [1, 2, 3, 8]

    def test_direct_access_helpers(self):
        dev = Scratch()
        dev.write_reg(2, 99)
        assert dev.read_reg(2) == 99

    @pytest.mark.parametrize("request_, offset", [
        (BusRequest(0, BusOp.READ, 0), 17),                      # misaligned
        (BusRequest(0, BusOp.READ, 0), 16),                      # out of range
        (BusRequest(0, BusOp.READ, 0, burst_length=4), 8),       # burst overrun
        (BusRequest(0, BusOp.READ, 0, size=2), 0),               # sub-word
    ])
    def test_bad_accesses_are_slave_errors(self, request_, offset):
        dev = Scratch()
        response = serve(dev, request_, offset)
        assert response.status is ResponseStatus.SLAVE_ERROR
        assert dev.access_errors == 1

    def test_window_and_latency(self):
        dev = Scratch()
        assert dev.window_bytes() == 16
        _, cycles = dev.serve(BusRequest(0, BusOp.READ, 0), 0)
        assert cycles == 1
        _, cycles = dev.serve(BusRequest(0, BusOp.READ, 0, burst_length=4), 0)
        assert cycles == 4

    def test_report_shape(self):
        dev = Scratch()
        serve(dev, BusRequest(0, BusOp.WRITE, 0, data=1), 0)
        report = dev.report()
        assert report["name"] == "scratch"
        assert report["kind"] == "peripheral"
        assert report["reg_writes"] == 1
