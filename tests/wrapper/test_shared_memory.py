"""Tests for the SharedMemoryWrapper bus slave (functional + timing)."""


from repro.fabric import BusOp, BusRequest
from repro.memory import (
    IO_ARRAY_BASE,
    DataType,
    Endianness,
    HostMemory,
    MemCommand,
    MemOpcode,
    MemStatus,
    ModeledDynamicMemory,
)
from repro.wrapper import SharedMemoryWrapper, WrapperDelays


def send_command(memory, command, master_id=0):
    request = BusRequest(master_id, BusOp.WRITE, 0, burst_data=command.to_words())
    return memory.serve(request, 0)


class TestAllocFree:
    def test_alloc_returns_vptr_zero_first(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=10))
        assert response.ok
        assert response.data == 0  # paper: first Vptr is zero

    def test_data_lives_in_host_memory(self):
        host = HostMemory()
        wrapper = SharedMemoryWrapper(host=host)
        send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=16))
        assert host.stats.alloc_calls == 1
        assert host.stats.live_bytes == 64

    def test_free_releases_host_memory(self):
        host = HostMemory()
        wrapper = SharedMemoryWrapper(host=host)
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=16))
        send_command(wrapper, MemCommand(MemOpcode.FREE, vptr=response.data))
        assert host.check_all_freed()
        assert wrapper.live_count() == 0

    def test_capacity_limit(self):
        wrapper = SharedMemoryWrapper(capacity_bytes=100)
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=20))
        assert response.ok
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=20))
        assert not response.ok
        assert wrapper.last_status == MemStatus.ERR_FULL

    def test_capacity_freed_can_be_reallocated(self):
        wrapper = SharedMemoryWrapper(capacity_bytes=100)
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=20))
        send_command(wrapper, MemCommand(MemOpcode.FREE, vptr=response.data))
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=20))
        assert response.ok

    def test_free_unknown_pointer(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.FREE, vptr=0x40))
        assert wrapper.last_status == MemStatus.ERR_INVALID_PTR

    def test_alloc_zero_dim_malformed(self):
        wrapper = SharedMemoryWrapper()
        send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=0))
        assert wrapper.last_status == MemStatus.ERR_MALFORMED


class TestScalarAccess:
    def make_with_alloc(self, dim=8, data_type=DataType.UINT32):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(
            wrapper, MemCommand(MemOpcode.ALLOC, dim=dim, data_type=data_type)
        )
        return wrapper, response.data

    def test_write_read_roundtrip(self):
        wrapper, vptr = self.make_with_alloc()
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=5, data=42))
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr, offset=5))
        assert response.data == 42

    def test_unwritten_elements_are_zero(self):
        wrapper, vptr = self.make_with_alloc()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr, offset=3))
        assert response.data == 0  # calloc semantics

    def test_int16_translation(self):
        wrapper, vptr = self.make_with_alloc(dim=4, data_type=DataType.INT16)
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=1,
                                         data=(-77) & 0xFFFFFFFF))
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr, offset=1))
        assert response.data == (-77) & 0xFFFFFFFF

    def test_pointer_arithmetic(self):
        wrapper, vptr = self.make_with_alloc(dim=8, data_type=DataType.UINT32)
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=6, data=99))
        # Interior pointer: vptr + 24 bytes addresses element 6.
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr + 24))
        assert response.data == 99

    def test_second_allocation_pointer_arithmetic(self):
        wrapper = SharedMemoryWrapper()
        first, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=10))
        second, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=10))
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=second.data, offset=2,
                                         data=7))
        response, _ = send_command(
            wrapper, MemCommand(MemOpcode.READ, vptr=second.data + 8)
        )
        assert response.data == 7

    def test_out_of_range(self):
        wrapper, vptr = self.make_with_alloc(dim=4)
        send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr, offset=4))
        assert wrapper.last_status == MemStatus.ERR_OUT_OF_RANGE

    def test_invalid_pointer(self):
        wrapper, vptr = self.make_with_alloc(dim=4)
        send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr + 4 * 100))
        assert wrapper.last_status == MemStatus.ERR_INVALID_PTR

    def test_bad_sm_addr(self):
        wrapper = SharedMemoryWrapper(sm_addr=2)
        send_command(wrapper, MemCommand(MemOpcode.ALLOC, sm_addr=1, dim=4))
        assert wrapper.last_status == MemStatus.ERR_BAD_SM_ADDR

    def test_query(self):
        wrapper, vptr = self.make_with_alloc(dim=12, data_type=DataType.UINT16)
        response, _ = send_command(wrapper, MemCommand(MemOpcode.QUERY, vptr=vptr))
        assert response.data == 24


class TestArrays:
    def test_array_roundtrip_through_io_window(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=32))
        vptr = response.data
        payload = [i * 3 for i in range(32)]
        wrapper.serve(BusRequest(0, BusOp.WRITE, 0, burst_data=payload),
                      IO_ARRAY_BASE)
        send_command(wrapper, MemCommand(MemOpcode.WRITE_ARRAY, vptr=vptr, dim=32))
        send_command(wrapper, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=32))
        readback, _ = wrapper.serve(
            BusRequest(0, BusOp.READ, 0, burst_length=32), IO_ARRAY_BASE
        )
        assert readback.burst_data == payload

    def test_array_offset_window(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=16))
        vptr = response.data
        wrapper.serve(BusRequest(0, BusOp.WRITE, 0, burst_data=[5, 6, 7, 8]),
                      IO_ARRAY_BASE)
        send_command(wrapper, MemCommand(MemOpcode.WRITE_ARRAY, vptr=vptr, offset=4,
                                         dim=4))
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr, offset=5))
        assert response.data == 6

    def test_array_out_of_range(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4))
        send_command(wrapper, MemCommand(MemOpcode.READ_ARRAY, vptr=response.data,
                                         dim=8))
        assert wrapper.last_status == MemStatus.ERR_OUT_OF_RANGE

    def test_array_write_is_blocked_by_reservation(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=8),
                                   master_id=0)
        vptr = response.data
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=0)
        send_command(wrapper, MemCommand(MemOpcode.WRITE_ARRAY, vptr=vptr, dim=8),
                     master_id=1)
        assert wrapper.last_status == MemStatus.ERR_RESERVED


class TestCoherence:
    def test_reservation_protocol(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4),
                                   master_id=0)
        vptr = response.data
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=0)
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, data=9), master_id=1)
        assert wrapper.last_status == MemStatus.ERR_RESERVED
        send_command(wrapper, MemCommand(MemOpcode.FREE, vptr=vptr), master_id=1)
        assert wrapper.last_status == MemStatus.ERR_RESERVED
        send_command(wrapper, MemCommand(MemOpcode.RELEASE, vptr=vptr), master_id=0)
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, data=9), master_id=1)
        assert wrapper.last_status == MemStatus.OK

    def test_reserve_conflict_status(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4),
                                   master_id=0)
        vptr = response.data
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=0)
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=1)
        assert wrapper.last_status == MemStatus.ERR_RESERVED

    def test_reserve_unknown_pointer(self):
        wrapper = SharedMemoryWrapper()
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=0x99))
        assert wrapper.last_status == MemStatus.ERR_INVALID_PTR

    def test_reads_are_not_blocked_by_reservation(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4),
                                   master_id=0)
        vptr = response.data
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, data=3), master_id=0)
        send_command(wrapper, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=0)
        response, _ = send_command(wrapper, MemCommand(MemOpcode.READ, vptr=vptr),
                                   master_id=1)
        assert response.ok and response.data == 3


class TestTiming:
    def test_cycles_follow_delay_parameters(self):
        fast = SharedMemoryWrapper(delays=WrapperDelays.sram_like())
        slow = SharedMemoryWrapper(delays=WrapperDelays.sdram_like())
        _, fast_cycles = send_command(fast, MemCommand(MemOpcode.ALLOC, dim=16))
        _, slow_cycles = send_command(slow, MemCommand(MemOpcode.ALLOC, dim=16))
        assert slow_cycles > fast_cycles

    def test_array_cycles_scale_with_length(self):
        wrapper = SharedMemoryWrapper()
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=128))
        vptr = response.data
        _, short_cycles = send_command(
            wrapper, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=4)
        )
        _, long_cycles = send_command(
            wrapper, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=64)
        )
        assert long_cycles - short_cycles == 60

    def test_alloc_cost_does_not_grow_with_live_allocations(self):
        """Unlike the modelled baseline, wrapper allocations are O(1) in cycles."""
        wrapper = SharedMemoryWrapper()
        _, first = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4))
        for _ in range(50):
            send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4))
        _, late = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4))
        assert late == first

    def test_wrapper_cheaper_than_modeled_baseline_for_alloc_heavy_use(self):
        wrapper = SharedMemoryWrapper()
        baseline = ModeledDynamicMemory(1 << 20)
        wrapper_cycles = 0
        baseline_cycles = 0
        for _ in range(30):
            _, c = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=16))
            wrapper_cycles += c
            _, c = send_command(baseline, MemCommand(MemOpcode.ALLOC, dim=16))
            baseline_cycles += c
        assert wrapper_cycles < baseline_cycles

    def test_data_dependent_delay(self):
        wrapper = SharedMemoryWrapper(
            delays=WrapperDelays(data_dependent=lambda op, n: n // 16)
        )
        _, small = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=4))
        _, big = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=64))
        assert big > small


class TestReport:
    def test_report_contents(self):
        wrapper = SharedMemoryWrapper(capacity_bytes=1024, name="sm0")
        response, _ = send_command(wrapper, MemCommand(MemOpcode.ALLOC, dim=8))
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=response.data, data=1))
        report = wrapper.report()
        assert report["name"] == "sm0"
        assert report["live_allocations"] == 1
        assert report["used_bytes"] == 32
        assert report["capacity_bytes"] == 1024
        assert report["op_counts"]["ALLOC"] == 1
        assert report["host_stats"]["alloc_calls"] == 1
        assert report["translator_stats"]["element_writes"] == 1
        assert report["fsm_cycles"] > 0

    def test_endianness_configurable(self):
        wrapper = SharedMemoryWrapper(endianness=Endianness.BIG)
        response, _ = send_command(
            wrapper, MemCommand(MemOpcode.ALLOC, dim=1, data_type=DataType.UINT32)
        )
        vptr = response.data
        send_command(wrapper, MemCommand(MemOpcode.WRITE, vptr=vptr, data=0x11223344))
        entry = wrapper.table.lookup(vptr)
        assert entry.hptr.read_bytes(0, 4) == b"\x11\x22\x33\x44"

    def test_shared_host_between_wrappers(self):
        host = HostMemory()
        first = SharedMemoryWrapper(host=host, sm_addr=0)
        second = SharedMemoryWrapper(host=host, sm_addr=1)
        send_command(first, MemCommand(MemOpcode.ALLOC, dim=4, sm_addr=0))
        send_command(second, MemCommand(MemOpcode.ALLOC, dim=4, sm_addr=1))
        assert host.stats.alloc_calls == 2
