"""Unit behaviour of the trace collector, ObsConfig and ctx.span."""

import pytest

from repro.obs import ObsConfig, TraceCollector
from repro.sw.task import TaskContext


class TestTraceCollector:
    def test_bounded_buffer_keeps_first_and_counts_drops(self):
        collector = TraceCollector(max_events=3)
        for index in range(5):
            collector.instant(f"e{index}", "irq", index * 10, ("g", "l"))
        assert len(collector) == 3
        assert [event.name for event in collector.events] == ["e0", "e1", "e2"]
        assert collector.dropped == 2
        summary = collector.summary()
        assert summary["events"] == 3
        assert summary["dropped"] == 2

    def test_category_filter_rejects_at_emission(self):
        collector = TraceCollector(categories=("task",))
        assert collector.complete("a", "task", 0, 5, ("pes", "pe0"))
        assert not collector.instant("b", "irq", 1, ("devices", "irq"))
        assert len(collector) == 1
        assert collector.filtered == 1
        assert collector.dropped == 0

    def test_by_category_and_counter_events(self):
        collector = TraceCollector()
        collector.counter("m", "metrics", 100, ("metrics", "counters"),
                          {"x": 1.0})
        collector.complete("t", "task", 0, 10, ("pes", "pe0"), note="n")
        assert [e.name for e in collector.by_category("metrics")] == ["m"]
        event = collector.by_category("task")[0]
        assert event.ph == "X" and event.dur == 10 and event.args == {
            "note": "n"}

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceCollector(max_events=0)


class TestObsConfig:
    def test_defaults_trace_only(self):
        config = ObsConfig()
        assert config.trace and not config.metrics_interval_cycles
        assert config.describe() == "trace"

    def test_describe_composes(self):
        config = ObsConfig(trace=True, metrics_interval_cycles=64,
                           host_profile=True)
        assert config.describe() == "trace+metrics@64c+hostprof"

    def test_rejects_all_heads_off(self):
        with pytest.raises(ValueError):
            ObsConfig(trace=False)

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            ObsConfig(categories=("task", "nonsense"))

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            ObsConfig(metrics_interval_cycles=-1)


class _FakeFabric:
    """The one thing ``ctx.span`` reads off the port: a clock."""

    def __init__(self):
        self.clock = 0

    def sim_now(self):
        self.clock += 100
        return self.clock


class _FakePort:
    def __init__(self):
        self._interconnect = _FakeFabric()


class _FakeApi:
    port = None


def test_ctx_span_is_a_noop_without_obs():
    context = TaskContext(pe_id=0, apis=[_FakeApi()], clock_period=10)
    assert context.probes.task_span is None
    with context.span("phase"):
        pass  # must not raise and must not require a fabric


def test_ctx_span_records_through_a_recording_stub():
    spans = []
    context = TaskContext(pe_id=1, apis=[_FakeApi()], clock_period=10,
                          port=_FakePort())
    context.probes.subscribe(
        task_span=lambda ctx, name, began, ended: spans.append(
            (ctx.name, name, began, ended)))
    with context.span("lpc"):
        pass
    assert spans == [("pe1", "lpc", 100, 200)]
