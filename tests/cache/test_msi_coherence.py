"""MSI snooping coherence suite: invalidate-on-remote-write,
writeback-on-remote-read, false sharing, reservation interplay and
allocation lifetime scrubbing — on all three interconnect topologies."""

import pytest

from repro.api import PlatformBuilder
from repro.memory import DataType
from repro.soc import Platform


def run_pair(task0, task1, policy="write_back", topology="shared_bus",
             sets=8, ways=2, line_bytes=16):
    builder = (PlatformBuilder().pes(2).wrapper_memories(1).monitored()
               .l1_cache(sets=sets, ways=ways, line_bytes=line_bytes,
                         policy=policy))
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh(rows=2, cols=2)
    platform = Platform(builder.build())
    platform.add_task(task0)
    platform.add_task(task1)
    return platform, platform.run()


def wait_for(shared, key, ctx):
    while key not in shared:
        yield 16 * ctx.clock_period


@pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
@pytest.mark.parametrize("policy", ["write_back", "write_through"])
class TestMSIProtocol:
    def test_invalidate_on_remote_write(self, policy, topology):
        """A cached SHARED copy must not survive a remote write."""
        shared = {}

        def writer(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            shared["vptr"] = vptr
            yield from wait_for(shared, "cached", ctx)
            yield from smem.write(vptr, 42, offset=0)
            shared["written"] = True
            return True

        def reader(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            vptr = shared["vptr"]
            before = yield from smem.read(vptr, offset=0)  # caches the line
            shared["cached"] = True
            yield from wait_for(shared, "written", ctx)
            after = yield from smem.read(vptr, offset=0)
            return before, after

        platform, report = run_pair(writer, reader, policy=policy,
                                    topology=topology)
        before, after = report.results["pe1"]
        assert (before, after) == (0, 42)
        assert platform.caches[1].stats.invalidations_received >= 1

    def test_writeback_on_remote_read_of_dirty_line(self, policy, topology):
        """A remote read must observe another PE's (possibly dirty) write."""
        shared = {}

        def writer(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 7, offset=1)   # dirty under WB
            shared["vptr"] = vptr
            yield from wait_for(shared, "done", ctx)
            return True

        def reader(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            value = yield from smem.read(shared["vptr"], offset=1)
            shared["done"] = True
            return value

        platform, report = run_pair(writer, reader, policy=policy,
                                    topology=topology)
        assert report.results["pe1"] == 7
        if policy == "write_back":
            # The value crossed the memory via a snoop-triggered writeback.
            assert (platform.caches[0].stats.writebacks
                    + platform.coherence.stats.snoop_writebacks) >= 1

    def test_false_sharing_race(self, policy, topology):
        """Two PEs ping-pong writes to different elements of one line."""
        shared = {}

        def even_writer(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)  # one 16B line
            shared["vptr"] = vptr
            for round_index in range(8):
                yield from smem.write(vptr, 100 + round_index, offset=0)
                yield from smem.write(vptr, 200 + round_index, offset=2)
                yield ctx.clock_period
            shared["even_done"] = True
            yield from wait_for(shared, "odd_done", ctx)
            values = yield from smem.read_array(vptr, 4)
            return values

        def odd_writer(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            vptr = shared["vptr"]
            for round_index in range(8):
                yield from smem.write(vptr, 300 + round_index, offset=1)
                yield from smem.write(vptr, 400 + round_index, offset=3)
                yield ctx.clock_period
            yield from wait_for(shared, "even_done", ctx)
            shared["odd_done"] = True
            return True

        platform, report = run_pair(even_writer, odd_writer, policy=policy,
                                    topology=topology)
        # No update may be lost despite the line bouncing between owners.
        assert report.results["pe0"] == [107, 307, 207, 407]

    def test_remote_read_array_sees_dirty_data(self, policy, topology):
        shared = {}

        def writer(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)
            yield from smem.write_array(vptr, [i * 3 for i in range(8)])
            shared["vptr"] = vptr
            yield from wait_for(shared, "done", ctx)
            return True

        def reader(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            values = yield from smem.read_array(shared["vptr"], 8)
            shared["done"] = True
            return values

        _platform, report = run_pair(writer, reader, policy=policy,
                                     topology=topology)
        assert report.results["pe1"] == [i * 3 for i in range(8)]


class TestAllocationLifetime:
    def test_free_and_realloc_never_serves_stale_data(self):
        """Vptr ranges are reused after frees; calloc zeroing must win."""

        def task(ctx):
            smem = ctx.smem(0)
            first = yield from smem.alloc(8, DataType.UINT32)
            yield from smem.write_array(first, [9] * 8)
            warm = yield from smem.read(first, offset=3)   # line cached
            yield from smem.free(first)
            second = yield from smem.alloc(8, DataType.UINT32)
            fresh = yield from smem.read(second, offset=3)
            return first, second, warm, fresh

        builder = (PlatformBuilder().pes(1).wrapper_memories(1)
                   .l1_cache(sets=8, ways=2, line_bytes=16))
        platform = Platform(builder.build())
        platform.add_task(task)
        report = platform.run()
        first, second, warm, fresh = report.results["pe0"]
        assert first == second          # the vptr range was indeed reused
        assert warm == 9
        assert fresh == 0               # stale line must not leak through

    def test_free_drops_lines_in_every_cache(self):
        shared = {}

        def owner(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write_array(vptr, [5, 6, 7, 8])
            shared["vptr"] = vptr
            yield from wait_for(shared, "cached", ctx)
            yield from smem.free(vptr)
            shared["freed"] = True
            return True

        def observer(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            value = yield from smem.read(shared["vptr"], offset=0)
            shared["cached"] = True
            yield from wait_for(shared, "freed", ctx)
            return value

        platform, report = run_pair(owner, observer)
        assert report.results["pe1"] == 5
        # After the FREE, no cache may retain lines of the dead allocation.
        for cache in platform.caches:
            assert len(cache.lines) == 0


class TestUncachedMasters:
    def test_raw_master_write_supersedes_cached_dirty_data(self):
        """A write from a master with no cache serializes *after* a cached
        dirty write; the dirty copy must not be written back over it."""
        from repro.kernel import Module
        from repro.memory.protocol import MemCommand, MemOpcode, REG_COMMAND

        builder = (PlatformBuilder().pes(1).wrapper_memories(1)
                   .l1_cache(sets=8, ways=2, line_bytes=16,
                             policy="write_back"))
        platform = Platform(builder.build())
        shared = {}

        def cached_task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 111, offset=0)   # dirty in L1
            shared["vptr"] = vptr
            while "raw_done" not in shared:
                yield 16 * ctx.clock_period
            value = yield from smem.read(vptr, offset=0)
            yield from smem.free(vptr)
            return value

        platform.add_task(cached_task)
        port = platform.interconnect.master_port(99, name="raw")
        base = platform.config.memory_base(0)

        class RawMaster(Module):
            def __init__(self, parent):
                super().__init__("raw", parent)
                self.add_process(self._run)

            def _run(self):
                while "vptr" not in shared:
                    yield 160
                command = MemCommand(MemOpcode.WRITE, sm_addr=0,
                                     vptr=shared["vptr"], offset=0, data=222)
                yield from port.burst_write(base + REG_COMMAND,
                                            command.to_words())
                shared["raw_done"] = True

        RawMaster(platform.top)
        report = platform.run()
        # The raw write (222) is the last one on the bus: the earlier
        # cached 111 may not resurface via a later writeback.
        assert report.results["pe0"] == 222

    @pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
    @pytest.mark.parametrize("policy", ["write_back", "write_through"])
    def test_raw_write_invalidates_however_it_is_launched(
            self, policy, topology):
        """A raw master's WRITE reaches the snooper as its one command
        burst: the cached PE's next read sees the new value."""
        from repro.kernel import Module
        from repro.memory.protocol import REG_COMMAND, MemCommand, MemOpcode

        builder = (PlatformBuilder().pes(1).wrapper_memories(1)
                   .l1_cache(sets=8, ways=2, line_bytes=16, policy=policy))
        if topology == "crossbar":
            builder = builder.crossbar()
        elif topology == "mesh":
            builder = builder.mesh(rows=2, cols=2)
        platform = Platform(builder.build())
        shared = {}

        def cached_task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 111, offset=0)
            yield from smem.read(vptr, offset=0)
            before = yield from smem.read(vptr, offset=0)  # an L1 hit
            shared["vptr"] = vptr
            while "raw_done" not in shared:
                yield 16 * ctx.clock_period
            after = yield from smem.read(vptr, offset=0)
            return before, after

        platform.add_task(cached_task)
        port = platform.interconnect.master_port(99, name="raw")
        base = platform.config.memory_base(0)

        class RawMaster(Module):
            def __init__(self, parent):
                super().__init__("raw", parent)
                self.add_process(self._run)

            def _run(self):
                while "vptr" not in shared:
                    yield 160
                command = MemCommand(MemOpcode.WRITE, sm_addr=0,
                                     vptr=shared["vptr"], offset=0, data=222)
                response = yield from port.burst_write(
                    base + REG_COMMAND, command.to_words())
                shared["raw_done"] = response.ok

        RawMaster(platform.top)
        report = platform.run()
        assert shared["raw_done"]
        assert report.results["pe0"] == (111, 222)
        assert platform.caches[0].stats.hits >= 1

    @pytest.mark.parametrize("topology", ["shared_bus", "crossbar", "mesh"])
    @pytest.mark.parametrize("policy", ["write_back", "write_through"])
    def test_raw_register_pokes_change_nothing(self, policy, topology):
        """A raw master that spells a WRITE of 222 into the former operand
        registers and writes 0x3C is refused at every word: the snooper
        decodes no command, the cached line stays valid and the memory
        keeps 111."""
        from repro.fabric import BusOp, BusRequest, ResponseStatus
        from repro.kernel import Module
        from repro.memory.protocol import REG_COMMAND, MemCommand, MemOpcode

        builder = (PlatformBuilder().pes(1).wrapper_memories(1)
                   .l1_cache(sets=8, ways=2, line_bytes=16, policy=policy))
        if topology == "crossbar":
            builder = builder.crossbar()
        elif topology == "mesh":
            builder = builder.mesh(rows=2, cols=2)
        platform = Platform(builder.build())
        shared = {}

        def cached_task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 111, offset=0)
            yield from smem.reserve(vptr)  # a flush barrier: 111 in memory
            yield from smem.release(vptr)
            before = yield from smem.read(vptr, offset=0)
            shared["vptr"] = vptr
            while "statuses" not in shared:
                yield 16 * ctx.clock_period
            after = yield from smem.read(vptr, offset=0)
            return before, after

        platform.add_task(cached_task)
        port = platform.interconnect.master_port(99, name="raw")
        base = platform.config.memory_base(0)

        class RawMaster(Module):
            def __init__(self, parent):
                super().__init__("raw", parent)
                self.add_process(self._run)

            def _run(self):
                while "vptr" not in shared:
                    yield 160
                snoops = platform.coherence.stats.bus_snoops
                statuses = []
                for offset, word in ((0x20, int(MemOpcode.WRITE)),
                                     (0x24, 0), (0x28, shared["vptr"]),
                                     (0x34, 222), (0x38, 0), (0x3C, 1)):
                    response = yield from port.write(base + offset, word)
                    statuses.append(response.status)
                shared["snoops"] = platform.coherence.stats.bus_snoops - snoops
                shared["statuses"] = statuses

        RawMaster(platform.top)
        report = platform.run()
        assert shared["statuses"] == [ResponseStatus.SLAVE_ERROR] * 6
        assert shared["snoops"] == 0
        assert report.results["pe0"] == (111, 111)
        assert platform.caches[0].stats.invalidations_received == 0
        response, _ = platform.memories[0].serve(BusRequest(
            98, BusOp.WRITE, 0, burst_data=MemCommand(
                MemOpcode.READ, vptr=shared["vptr"]).to_words()), REG_COMMAND)
        assert response.ok and response.data == 111

    def test_lifetime_drops_do_not_count_as_invalidations(self):
        """ALLOC/FREE bookkeeping drops are not coherence invalidations."""

        def task(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(8, DataType.UINT32)
            yield from smem.write_array(vptr, list(range(8)))
            yield from smem.free(vptr)
            return True

        builder = (PlatformBuilder().pes(1).wrapper_memories(1)
                   .l1_cache(sets=8, ways=2, line_bytes=16))
        platform = Platform(builder.build())
        platform.add_task(task)
        platform.run()
        assert platform.caches[0].stats.invalidations_received == 0


class TestReservationSemantics:
    def test_reserve_acts_as_flush_barrier(self):
        """Dirty data must reach memory when another PE takes the semaphore."""
        shared = {}

        def writer(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write(vptr, 77, offset=0)     # dirty (WB)
            shared["vptr"] = vptr
            yield from wait_for(shared, "done", ctx)
            return True

        def locker(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            vptr = shared["vptr"]
            while not (yield from smem.try_reserve(vptr)):
                yield 16 * ctx.clock_period
            value = yield from smem.read(vptr, offset=0)
            yield from smem.release(vptr)
            shared["done"] = True
            return value

        platform, report = run_pair(writer, locker)
        assert report.results["pe1"] == 77
        assert platform.coherence.stats.flush_barriers >= 1

    def test_write_stalls_behind_foreign_reservation(self):
        """A write during a foreign critical section serializes behind it
        instead of surfacing the wrapper's ERR_RESERVED."""
        shared = {}

        def locker(ctx):
            smem = ctx.smem(0)
            vptr = yield from smem.alloc(4, DataType.UINT32)
            ok = yield from smem.try_reserve(vptr)
            assert ok
            shared["vptr"] = vptr
            yield from wait_for(shared, "waiting", ctx)
            yield 256 * ctx.clock_period        # hold the semaphore a while
            yield from smem.write(vptr, 1, offset=1)
            yield from smem.release(vptr)
            yield from wait_for(shared, "done", ctx)
            return True

        def writer(ctx):
            smem = ctx.smem(0)
            yield from wait_for(shared, "vptr", ctx)
            shared["waiting"] = True
            yield from smem.write(shared["vptr"], 99, offset=0)
            value = yield from smem.read(shared["vptr"], offset=0)
            shared["done"] = True
            return value

        platform, report = run_pair(locker, writer)
        assert report.results["pe1"] == 99
        assert platform.caches[1].stats.reservation_stalls >= 1
