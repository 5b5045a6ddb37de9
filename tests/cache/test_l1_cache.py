"""Behavioural unit tests of one PE's L1 cache (hits, fills, evictions,
canonical storage, array absorption, reporting)."""


from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform


def build_platform(tasks, policy="write_back", sets=8, ways=2, line_bytes=16,
                   pes=1, crossbar=False, cache=True):
    builder = (PlatformBuilder().pes(pes).wrapper_memories(1).monitored())
    if crossbar:
        builder = builder.crossbar()
    if cache:
        builder = builder.l1_cache(sets=sets, ways=ways,
                                   line_bytes=line_bytes, policy=policy)
    platform = Platform(builder.build())
    for task in tasks:
        platform.add_task(task)
    return platform, platform.run()


class TestScalarCaching:
    def test_repeated_reads_hit(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)  # calloc zeros
            total = 0
            for _ in range(4):
                for offset in range(8):
                    total += (yield from smem.read(vptr, offset=offset))
            yield from smem.free(vptr)
            return total

        platform, report = build_platform([task])
        assert report.results["pe0"] == 0
        cache = platform.caches[0]
        # 8 elements over 16-byte lines = 2 line fills on the cold pass;
        # the other 30 reads hit.
        assert cache.stats.misses == 2
        assert cache.stats.fills == 2
        assert cache.stats.hits == 30
        assert cache.stats.hit_rate > 0.9

    def test_absorbed_write_array_pre_warms_scalar_reads(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)
            yield from smem.write_array(vptr, list(range(8)))
            total = 0
            for offset in range(8):
                total += (yield from smem.read(vptr, offset=offset))
            return total

        platform, report = build_platform([task])
        assert report.results["pe0"] == sum(range(8))
        cache = platform.caches[0]
        # The absorbed array write installed the lines MODIFIED: every
        # scalar read hits without a single fill.
        assert cache.stats.array_absorbs == 1
        assert cache.stats.misses == 0
        assert cache.stats.hits == 8

    def test_cached_read_after_cached_write(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 123, offset=2)
            value = yield from smem.read(vptr, offset=2)
            return value

        platform, report = build_platform([task])
        assert report.results["pe0"] == 123
        cache = platform.caches[0]
        assert cache.stats.hits >= 1

    def test_write_back_defers_memory_writes(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            for offset in range(4):
                yield from smem.write(vptr, offset + 1, offset=offset)
            return True

        platform, report = build_platform([task])
        wrapper = platform.memories[0]
        from repro.memory.protocol import MemOpcode
        # The four scalar writes were absorbed: only the line fill for the
        # write-allocate reached the wrapper.
        assert wrapper.op_counts.get(MemOpcode.WRITE, 0) == 0

    def test_write_through_forwards_every_write(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            for offset in range(4):
                yield from smem.write(vptr, offset + 1, offset=offset)
            return True

        platform, report = build_platform([task], policy="write_through")
        from repro.memory.protocol import MemOpcode
        assert platform.memories[0].op_counts.get(MemOpcode.WRITE, 0) == 4
        assert platform.caches[0].stats.write_throughs == 4

    def test_canonical_sign_extension_matches_wrapper(self):
        """Cached INT16 reads must be bit-identical with wrapper reads."""

        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.INT16)
            yield from smem.write(vptr, 0x8000, offset=1)
            first = yield from smem.read(vptr, offset=1)   # cached (M line)
            second = yield from smem.read(vptr, offset=1)  # cache hit
            return first, second

        _platform, cached = build_platform([task])
        _none, flat = build_platform([task], cache=False)
        assert cached.results["pe0"] == flat.results["pe0"]
        # The wrapper sign-extends INT16 on its way out: 0x8000 -> 0xFFFF8000.
        assert cached.results["pe0"] == (0xFFFF8000, 0xFFFF8000)


class TestEvictions:
    def test_lru_eviction_and_dirty_writeback(self):
        def task(ctx):
            smem = ctx.smem(0)
            # Working set of 8 lines in a 2-line cache.
            vptr = yield from smem.alloc(32, DataType.UINT32)
            for offset in range(32):
                yield from smem.write(vptr, offset, offset=offset)
            values = []
            for offset in range(32):
                values.append((yield from smem.read(vptr, offset=offset)))
            return values

        platform, report = build_platform([task], sets=2, ways=1)
        assert report.results["pe0"] == list(range(32))
        cache = platform.caches[0]
        assert cache.stats.evictions > 0
        assert cache.stats.writebacks > 0

    def test_resident_lines_bounded_by_geometry(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(64, DataType.UINT32)
            for offset in range(64):
                yield from smem.read(vptr, offset=offset)
            return True

        platform, _report = build_platform([task], sets=2, ways=2)
        assert len(platform.caches[0].lines) <= 4


class TestArrayTransfers:
    def test_write_back_absorbs_array_round_trip(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(16, DataType.UINT32)
            yield from smem.write_array(vptr, list(range(16)))
            values = yield from smem.read_array(vptr, 16)
            yield from smem.free(vptr)
            return values

        platform, report = build_platform([task])
        assert report.results["pe0"] == list(range(16))
        cache = platform.caches[0]
        assert cache.stats.array_absorbs == 1
        assert cache.stats.array_hits == 1
        # Only alloc + free reached the memory.
        monitor = report.interconnect_stats["memory_monitors"][0]
        assert monitor["transactions"] == 2

    def test_read_array_installs_then_hits(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)
            first = yield from smem.read_array(vptr, 8)    # miss, installs
            second = yield from smem.read_array(vptr, 8)   # served locally
            return first, second

        platform, report = build_platform([task], policy="write_through")
        first, second = report.results["pe0"]
        assert first == second == [0] * 8
        assert platform.caches[0].stats.array_misses == 1
        assert platform.caches[0].stats.array_hits == 1


class TestReporting:
    def test_cache_reports_flow_into_simulation_report(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.read(vptr)
            return True

        platform, report = build_platform([task])
        assert len(report.cache_reports) == 1
        entry = report.cache_reports[0]
        assert entry["name"] == "pe0.l1"
        assert entry["geometry"] == "8x2x16B"
        assert entry["policy"] == "write_back"
        assert "hit_rate" in entry
        assert "L1 caches" in report.summary()
        assert report.as_dict()["cache_reports"] == report.cache_reports

    def test_uncached_platform_reports_no_caches(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.read(vptr)
            return True

        platform, report = build_platform([task], cache=False)
        assert platform.caches == []
        assert report.cache_reports == []
        assert "L1 caches" not in report.summary()
        assert report.cache_hit_rate() == 0.0

    def test_coherence_stats_surface_in_interconnect_stats(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.read(vptr)
            return True

        _platform, report = build_platform([task])
        assert "coherence" in report.interconnect_stats
        assert "snoop_reads" in report.interconnect_stats["coherence"]


class TestHitTiming:
    def test_hits_cost_hit_cycles_not_bus_cycles(self):
        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            for _ in range(64):
                yield from smem.read(vptr, offset=0)
            return True

        def run(cache):
            builder = PlatformBuilder().pes(1).wrapper_memories(1)
            if cache:
                builder = builder.l1_cache(sets=8, ways=2, line_bytes=16)
            platform = Platform(builder.build())
            platform.add_task(task)
            return platform.run()

        cached = run(True)
        flat = run(False)
        assert cached.simulated_cycles < flat.simulated_cycles
