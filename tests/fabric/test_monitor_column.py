"""The fabric's per-slave traffic column (``Fabric.monitor``).

A monitored slave's served transfers are counted where the fabric calls
the slave, per ``BusOp``, and reported as one block per slave with
nearest-rank latency percentiles (``repro.fabric.stats``).
"""

import json

import pytest

from repro.fabric import BusResponse, BusSlave
from repro.fabric.stats import _nearest_rank, monitor_block, percentile_summary
from repro.interconnect import Crossbar, SharedBus
from repro.kernel import Module, Simulator
from repro.noc import MeshNoc, NocConfig


class FixedLatencySlave(BusSlave):
    """Answers every request after a latency taken from a schedule."""

    def __init__(self, latencies):
        self.latencies = list(latencies)
        self.calls = 0

    def serve(self, request, offset):
        latency = self.latencies[self.calls % len(self.latencies)]
        self.calls += 1
        return BusResponse(data=offset), latency


def make_fabric(topology, top):
    if topology == "shared_bus":
        return SharedBus("bus", period=10, parent=top)
    if topology == "crossbar":
        return Crossbar("xbar", period=10, parent=top)
    return MeshNoc("noc", period=10, config=NocConfig(rows=2, cols=2),
                   parent=top)


def run(topology, ops, latencies, monitored=True):
    """Issue ``ops`` (``"r"`` / ``"w"``) at one slave; return the fabric."""
    top = Module("top")
    fabric = make_fabric(topology, top)
    slave = FixedLatencySlave(latencies)
    fabric.attach_slave("ram", 0x0, 0x100, slave)
    fabric.attach_slave("other", 0x1000, 0x100, FixedLatencySlave([7]))
    if monitored:
        fabric.monitor(slave, "ram.monitor")
    port = fabric.master_port(0)

    def master():
        for op in ops:
            if op == "r":
                yield from port.read(0x0)
            else:
                yield from port.write(0x0, 1)
        yield from port.read(0x1000)  # an unmonitored slave: not counted

    top.add_process(master)
    Simulator(top).run()
    return fabric


class TestNearestRank:
    def test_empty_sample(self):
        assert _nearest_rank([], 0.5) == 0

    def test_single_sample(self):
        assert _nearest_rank([7], 0.5) == 7
        assert _nearest_rank([7], 0.95) == 7

    def test_known_percentiles(self):
        ordered = list(range(1, 11))  # 1..10
        assert _nearest_rank(ordered, 0.50) == 5
        assert _nearest_rank(ordered, 0.95) == 10

    def test_empty_sample_summary_is_explicit_no_data(self):
        # Regression: an empty sample set used to report p50/p95/max of 0,
        # indistinguishable from observed zero-cycle latencies.
        assert percentile_summary([]) == {
            "count": 0, "p50": None, "p95": None, "max": None,
        }


class TestMonitorBlock:
    def test_per_op_split_and_key_order(self):
        block = monitor_block("probe", [3, 1, 2], [5])
        assert list(block) == ["name", "transactions", "reads", "writes",
                               "total_cycles", "latency_percentiles"]
        assert (block["transactions"], block["reads"], block["writes"],
                block["total_cycles"]) == (4, 3, 1, 11)
        percentiles = block["latency_percentiles"]
        assert list(percentiles) == ["all", "read", "write"]
        assert percentiles["read"] == {"count": 3, "p50": 2, "p95": 3,
                                       "max": 3}
        assert percentiles["all"]["max"] == 5

    def test_an_op_with_no_transfers_is_omitted(self):
        assert list(monitor_block("p", [2], [])["latency_percentiles"]) == [
            "all", "read"]
        assert monitor_block("p", [], [])["latency_percentiles"] == {}


@pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
class TestFabricColumn:
    def test_reads_and_writes_aggregate_separately(self, topology):
        fabric = run(topology, "rww", [2])
        (block,) = fabric.monitor_stats()
        assert block["name"] == "ram.monitor"
        assert (block["transactions"], block["reads"],
                block["writes"]) == (3, 1, 2)
        assert block["total_cycles"] == 6
        percentiles = block["latency_percentiles"]
        assert [percentiles[op]["count"] for op in ("all", "read", "write")
                ] == [3, 1, 2]

    def test_slave_cycles_are_recorded_per_transfer(self, topology):
        fabric = run(topology, "r" * 10, list(range(1, 11)))
        read = fabric.monitor_stats()[0]["latency_percentiles"]["read"]
        assert read == {"count": 10, "p50": 5, "p95": 10, "max": 10}

    def test_report_block(self, topology):
        block = run(topology, "rw", [3]).interconnect_stats(0)
        assert block["memory_transactions"] == 2
        assert [monitor["name"] for monitor in block["memory_monitors"]] == [
            "ram.monitor"]
        json.dumps(block["memory_monitors"])

    def test_unmonitored_fabric_omits_the_block(self, topology):
        fabric = run(topology, "rw", [3], monitored=False)
        assert fabric.monitor_stats() == []
        block = fabric.interconnect_stats(0)
        assert "memory_monitors" not in block
        assert "memory_transactions" not in block


class TestPlatformSurfacing:
    @staticmethod
    def run_platform(builder):
        from repro.memory import DataType
        from repro.soc import Platform

        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)
            yield from smem.write_array(vptr, list(range(8)))
            yield from smem.read_array(vptr, 8)
            yield from smem.free(vptr)
            return True

        platform = Platform(builder.build())
        platform.add_task(task)
        return platform.run().interconnect_stats

    def test_monitored_platform_reports_percentiles(self):
        from repro.api import PlatformBuilder

        stats = self.run_platform(
            PlatformBuilder().pes(1).wrapper_memories(2).monitored())
        monitors = stats["memory_monitors"]
        assert [monitor["name"] for monitor in monitors] == [
            "smem0.monitor", "smem1.monitor"]
        assert stats["memory_transactions"] == monitors[0]["transactions"] > 0
        assert monitors[1]["transactions"] == 0
        percentiles = monitors[0]["latency_percentiles"]
        assert "write" in percentiles and "all" in percentiles
        assert percentiles["all"]["p50"] >= 1
        assert percentiles["all"]["max"] >= percentiles["all"]["p95"] \
            >= percentiles["all"]["p50"]

    def test_unmonitored_platform_omits_the_block(self):
        from repro.api import PlatformBuilder

        stats = self.run_platform(PlatformBuilder().pes(1).wrapper_memories(1))
        assert "memory_monitors" not in stats
        assert "memory_transactions" not in stats
