"""Tests for the host memory layer (calloc/free semantics, stats, limits)."""

import pytest
from hypothesis import given, strategies as st

from repro.memory import (
    HostAccessError,
    HostAllocationError,
    HostMemory,
)


class TestCallocFree:
    def test_calloc_returns_zeroed_block(self):
        host = HostMemory()
        block = host.calloc(16, 4)
        assert len(block) == 64
        assert block.read_bytes(0, 64) == bytes(64)

    def test_malloc_is_calloc_of_bytes(self):
        host = HostMemory()
        block = host.malloc(10)
        assert len(block) == 10

    def test_write_then_read(self):
        host = HostMemory()
        block = host.calloc(4, 4)
        block.write_bytes(4, b"\x01\x02\x03\x04")
        assert block.read_bytes(4, 4) == b"\x01\x02\x03\x04"

    def test_each_allocation_gets_distinct_handle(self):
        host = HostMemory()
        a = host.calloc(1, 4)
        b = host.calloc(1, 4)
        assert a.handle != b.handle

    def test_free_releases(self):
        host = HostMemory()
        block = host.calloc(8, 4)
        host.free(block)
        assert host.live_blocks == 0
        assert host.check_all_freed()

    def test_double_free_rejected(self):
        host = HostMemory()
        block = host.calloc(8, 4)
        host.free(block)
        with pytest.raises(HostAccessError):
            host.free(block)

    def test_use_after_free_rejected(self):
        host = HostMemory()
        block = host.calloc(8, 4)
        host.free(block)
        with pytest.raises(HostAccessError):
            block.read_bytes(0, 4)
        with pytest.raises(HostAccessError):
            block.write_bytes(0, b"\x00")

    def test_out_of_bounds_access_rejected(self):
        host = HostMemory()
        block = host.calloc(2, 4)
        with pytest.raises(HostAccessError):
            block.read_bytes(6, 4)
        with pytest.raises(HostAccessError):
            block.write_bytes(-1, b"\x00")

    def test_invalid_calloc_arguments(self):
        host = HostMemory()
        with pytest.raises(HostAllocationError):
            host.calloc(-1, 4)
        with pytest.raises(HostAllocationError):
            host.calloc(4, 0)


class TestLimitsAndStats:
    def test_limit_enforced(self):
        host = HostMemory(limit_bytes=100)
        host.calloc(10, 4)
        with pytest.raises(HostAllocationError):
            host.calloc(100, 1)

    def test_limit_frees_make_room(self):
        host = HostMemory(limit_bytes=100)
        block = host.calloc(25, 4)
        host.free(block)
        host.calloc(25, 4)  # fits again

    def test_stats_track_live_and_peak(self):
        host = HostMemory()
        a = host.calloc(10, 4)
        b = host.calloc(5, 4)
        host.free(a)
        stats = host.stats
        assert stats.alloc_calls == 2
        assert stats.free_calls == 1
        assert stats.live_bytes == 20
        assert stats.peak_live_bytes == 60
        assert stats.bytes_allocated == 60
        assert stats.bytes_freed == 40
        assert b.size == 20
        assert "live_bytes" in stats.as_dict()

    def test_native_access_counters(self):
        host = HostMemory()
        block = host.calloc(4, 4)
        block.write_bytes(0, b"abcd")
        block.read_bytes(0, 4)
        block.read_bytes(4, 4)
        assert host.stats.native_writes == 1
        assert host.stats.native_reads == 2

    @given(st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=40))
    def test_live_bytes_invariant(self, sizes):
        host = HostMemory()
        blocks = [host.malloc(size) for size in sizes]
        assert host.stats.live_bytes == sum(sizes)
        for block in blocks[::2]:
            host.free(block)
        expected = sum(sizes) - sum(sizes[::2])
        assert host.stats.live_bytes == expected
        assert host.stats.peak_live_bytes == sum(sizes)
        assert host.live_blocks == len(blocks) - len(blocks[::2])
