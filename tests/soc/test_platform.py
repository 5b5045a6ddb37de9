"""Tests for the platform builder running real workloads end to end."""

import pytest

from repro.memory import DataType
from repro.api import run_tasks
from repro.soc import (
    InterconnectKind,
    MemoryKind,
    Platform,
    PlatformConfig,
)
from repro.sw.workloads import (
    fir_reference,
    make_consumer_task,
    make_fir_task,
    make_matmul_producer_task,
    make_matmul_worker_task,
    make_producer_task,
    matmul_reference,
)


class TestPlatformBuild:
    def test_builds_requested_topology(self):
        config = PlatformConfig(num_pes=3, num_memories=2)
        platform = Platform(config)
        assert len(platform.memories) == 2
        assert platform.interconnect.address_map.slaves() == platform.memories

    def test_crossbar_variant(self):
        config = PlatformConfig(num_pes=2, num_memories=2,
                                interconnect=InterconnectKind.CROSSBAR)
        platform = Platform(config)
        assert type(platform.interconnect).__name__ == "Crossbar"

    def test_modeled_memory_variant(self):
        config = PlatformConfig(memory_kind=MemoryKind.MODELED,
                                memory_capacity_bytes=1 << 16)
        platform = Platform(config)
        assert type(platform.memories[0]).__name__ == "ModeledDynamicMemory"

    def test_too_many_tasks_rejected(self):
        platform = Platform(PlatformConfig(num_pes=1))
        platform.add_task(make_fir_task([1, 2, 3], [1]))
        with pytest.raises(ValueError):
            platform.add_task(make_fir_task([1, 2, 3], [1]))

    def test_run_without_tasks_rejected(self):
        with pytest.raises(RuntimeError):
            Platform(PlatformConfig()).run()

    def test_wrappers_share_one_host_memory(self):
        platform = Platform(PlatformConfig(num_memories=3))
        hosts = {id(m.host) for m in platform.memories}
        assert len(hosts) == 1


class TestFirOnPlatform:
    def test_single_pe_fir_matches_reference(self):
        samples = [(i * 37) % 1000 for i in range(64)]
        taps = [3, -1, 2, 7]
        config = PlatformConfig(num_pes=1, num_memories=1)
        report = run_tasks(config, [make_fir_task(samples, taps)])
        assert report.all_pes_finished
        result = report.results["pe0"]
        assert result == fir_reference(samples, taps)
        assert report.simulated_cycles > 0
        assert report.total_transactions() > 0

    def test_fir_on_modeled_baseline_matches_too(self):
        samples = [(i * 13) % 500 for i in range(32)]
        taps = [1, 2, 1]
        config = PlatformConfig(num_pes=1, memory_kind=MemoryKind.MODELED,
                                memory_capacity_bytes=1 << 16)
        report = run_tasks(config, [make_fir_task(samples, taps)])
        assert report.results["pe0"] == fir_reference(samples, taps)

    def test_four_pes_in_parallel(self):
        taps = [1, 1, 1]
        blocks = [[(i * (pe + 3)) % 256 for i in range(32)] for pe in range(4)]
        config = PlatformConfig(num_pes=4, num_memories=1)
        report = run_tasks(
            config, [make_fir_task(block, taps) for block in blocks]
        )
        assert report.all_pes_finished
        for pe, block in enumerate(blocks):
            assert report.results[f"pe{pe}"] == fir_reference(block, taps)

    def test_memory_report_shows_balanced_cleanup(self):
        samples = list(range(16))
        config = PlatformConfig(num_pes=2, num_memories=2)
        platform = Platform(config)
        platform.add_task(make_fir_task(samples, [1, 2], memory_index=0))
        platform.add_task(make_fir_task(samples, [1, 2], memory_index=1))
        report = platform.run()
        for memory_report in report.memory_reports:
            assert memory_report["live_allocations"] == 0


class TestMatmulOnPlatform:
    def test_two_worker_matmul(self):
        a = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 1]]
        b = [[1, 0], [0, 1], [2, 2]]
        shared = {}
        config = PlatformConfig(num_pes=3, num_memories=1)
        platform = Platform(config)
        platform.add_task(make_matmul_producer_task(a, b, shared))
        platform.add_task(make_matmul_worker_task(shared, 0, 2))
        platform.add_task(make_matmul_worker_task(shared, 2, 4))
        report = platform.run()
        assert report.all_pes_finished
        expected = matmul_reference(a, b)
        assert report.results["pe1"] == expected[0:2]
        assert report.results["pe2"] == expected[2:4]


class TestProducerConsumerOnPlatform:
    def test_fifo_delivers_in_order(self):
        items = [i * 11 for i in range(25)]
        shared = {}
        config = PlatformConfig(num_pes=2, num_memories=1)
        platform = Platform(config)
        platform.add_task(make_producer_task(items, fifo_depth=4, shared=shared))
        platform.add_task(make_consumer_task(shared))
        report = platform.run()
        assert report.all_pes_finished
        assert report.results["pe0"] == len(items)
        assert report.results["pe1"] == items
        # All FIFO storage was freed by the consumer.
        assert report.memory_reports[0]["live_allocations"] == 0


class TestIdleTicker:
    def test_ticker_runs_and_platform_still_finishes(self):
        samples = list(range(16))
        config = PlatformConfig(num_pes=1, num_memories=2,
                                idle_tick_memories=True, idle_tick_work=1)
        platform = Platform(config)
        platform.add_task(make_fir_task(samples, [1, 2, 3]))
        report = platform.run()
        assert report.all_pes_finished
        assert platform.ticker is not None
        assert platform.ticker.ticks > 0
        # The wrapper FSM accumulated idle evaluations.
        assert platform.memories[1].idle_cycles > 0

    def test_max_time_with_early_finish_reports_the_finish_time(self):
        """run(duration) clamps to its deadline (sc_start semantics), but a
        platform whose tasks drain before max_time must report the actual
        finish time — not a 50k-cycle slice boundary."""
        def short_task(ctx):
            yield from ctx.compute(100)

        config = PlatformConfig(num_pes=1)
        platform = Platform(config)
        platform.add_task(short_task)
        report = platform.run(max_time=100_000 * config.clock_period)
        assert report.all_pes_finished
        # Well under one run() slice — nowhere near 50_000 cycles.
        assert report.simulated_cycles <= 1_000
        assert report.kernel_stats["end_time"] == report.simulated_time

    def test_max_time_bounds_a_stuck_platform(self):
        def never_ending(ctx):
            while True:
                yield from ctx.compute(1000)

        config = PlatformConfig(num_pes=1)
        platform = Platform(config)
        platform.add_task(never_ending)
        report = platform.run(max_time=100_000 * config.clock_period)
        assert not report.all_pes_finished
        assert report.simulated_time <= 101_000 * config.clock_period

    def test_max_time_surfaces_per_pe_finished_flags(self):
        def never_ending(ctx):
            while True:
                yield from ctx.compute(1000)

        def quick(ctx):
            yield from ctx.compute(10)
            return "done"

        config = PlatformConfig(num_pes=2)
        platform = Platform(config)
        platform.add_task(quick)
        platform.add_task(never_ending)
        report = platform.run(max_time=100_000 * config.clock_period)
        # The report distinguishes "finished with result None" from
        # "never finished": the stuck PE's result stays None *and* its
        # finished flag is False.
        assert report.finished == {"pe0": True, "pe1": False}
        assert report.results["pe1"] is None
        assert "finished" in report.as_dict()


class TestApiPlacement:
    def test_each_pe_sees_all_memories(self):
        captured = {}

        def probe(ctx):
            captured["memories"] = ctx.memory_count
            vptr = yield from ctx.smem(1).alloc(4, DataType.UINT32)
            yield from ctx.smem(1).write(vptr, 5)
            value = yield from ctx.smem(1).read(vptr)
            return value

        config = PlatformConfig(num_pes=1, num_memories=3)
        report = run_tasks(config, [probe])
        assert captured["memories"] == 3
        assert report.results["pe0"] == 5
        # Only the second memory saw allocations.
        assert report.memory_reports[1]["total_allocations"] == 1
        assert report.memory_reports[0]["total_allocations"] == 0
