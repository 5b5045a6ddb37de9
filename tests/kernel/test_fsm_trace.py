"""Tests for the tracing utilities."""

from repro.kernel import Module, Signal, Simulator
from repro.kernel.trace import SignalTracer, TransactionLog


class TestSignalTracer:
    def test_records_changes(self):
        top = Module("top")
        mod = Module("m", parent=top)
        sig = mod.add_signal(Signal(0, name="s"))

        def writer():
            for value in (1, 2, 3):
                yield 10
                sig.write(value)
                yield 0
                tracer.sample()

        mod.add_process(writer)
        sim = Simulator(top)
        tracer = SignalTracer(sim)
        tracer.watch(sig)
        sim.run()
        history = tracer.history("s")
        assert [v for _, v in history] == [0, 1, 2, 3]

    def test_vcd_output_contains_definitions(self):
        top = Module("top")
        mod = Module("m", parent=top)
        sig = mod.add_signal(Signal(False, name="flag"))
        sim = Simulator(top)
        tracer = SignalTracer(sim)
        tracer.watch(sig)
        text = tracer.to_vcd()
        assert "$enddefinitions" in text
        assert "flag" in text


class TestTransactionLog:
    def test_record_and_filter(self):
        log = TransactionLog()
        log.record(10, "bus", "read", addr=4)
        log.record(20, "bus", "write", addr=8)
        log.record(30, "mem", "read", addr=4)
        assert len(log) == 3
        assert len(log.filter(kind="read")) == 2
        assert len(log.filter(source="bus")) == 2
        assert len(log.filter(kind="read", source="mem")) == 1
        assert log.kinds() == ["read", "write"]

    def test_capacity_limit(self):
        log = TransactionLog(capacity=2)
        for i in range(5):
            log.record(i, "x", "k")
        assert len(log) == 2
        assert log.dropped == 3
