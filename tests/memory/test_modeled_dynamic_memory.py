"""Tests for the fully-modelled dynamic memory baseline and the protocol layer."""

import pytest

from repro.fabric import BusOp, BusRequest, ResponseStatus
from repro.memory import (
    IO_ARRAY_BASE,
    REG_COMMAND,
    REG_LIVE_COUNT,
    REG_RESULT,
    REG_STATUS,
    REG_USED_BYTES,
    DataType,
    MemCommand,
    MemOpcode,
    MemStatus,
    ModeledDynamicMemory,
    ProtocolError,
)


def send_command(memory, command, master_id=0):
    """Send a packed command burst to the command port."""
    request = BusRequest(master_id, BusOp.WRITE, 0, burst_data=command.to_words())
    return memory.serve(request, REG_COMMAND)


class TestProtocolEncoding:
    def test_alloc_roundtrip(self):
        command = MemCommand(MemOpcode.ALLOC, sm_addr=2, dim=10,
                             data_type=DataType.INT16)
        decoded = MemCommand.from_words(command.to_words())
        assert decoded.opcode == MemOpcode.ALLOC
        assert decoded.sm_addr == 2
        assert decoded.dim == 10
        assert decoded.data_type == DataType.INT16

    def test_write_roundtrip(self):
        command = MemCommand(MemOpcode.WRITE, vptr=0x40, offset=3, data=99)
        decoded = MemCommand.from_words(command.to_words())
        assert (decoded.vptr, decoded.offset, decoded.data) == (0x40, 3, 99)

    def test_short_command_rejected(self):
        with pytest.raises(ProtocolError):
            MemCommand.from_words([int(MemOpcode.ALLOC)])

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ProtocolError):
            MemCommand.from_words([0xFF, 0])

    def test_missing_operands_rejected(self):
        with pytest.raises(ProtocolError):
            MemCommand.from_words([int(MemOpcode.WRITE), 0, 1])


class TestAllocFreeReadWrite:
    def test_alloc_returns_pointer(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=16, data_type=DataType.UINT32)
        )
        assert response.ok
        assert response.data > 0

    def test_write_then_read(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=4, data_type=DataType.UINT32)
        )
        vptr = response.data
        send_command(memory, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=2, data=77))
        response, _ = send_command(memory, MemCommand(MemOpcode.READ, vptr=vptr, offset=2))
        assert response.data == 77

    def test_signed_element_roundtrip(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=4, data_type=DataType.INT16)
        )
        vptr = response.data
        send_command(memory, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=1,
                                        data=-1234 & 0xFFFFFFFF))
        response, _ = send_command(memory, MemCommand(MemOpcode.READ, vptr=vptr, offset=1))
        assert response.data == (-1234) & 0xFFFFFFFF

    def test_free_then_read_fails(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        vptr = response.data
        send_command(memory, MemCommand(MemOpcode.FREE, vptr=vptr))
        response, _ = send_command(memory, MemCommand(MemOpcode.READ, vptr=vptr))
        assert not response.ok
        assert memory.last_status == MemStatus.ERR_INVALID_PTR

    def test_capacity_exhaustion(self):
        memory = ModeledDynamicMemory(256)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=1000))
        assert not response.ok
        assert memory.last_status == MemStatus.ERR_FULL

    def test_out_of_range_access(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        vptr = response.data
        response, _ = send_command(memory, MemCommand(MemOpcode.READ, vptr=vptr, offset=10))
        assert memory.last_status == MemStatus.ERR_OUT_OF_RANGE

    def test_bad_sm_addr(self):
        memory = ModeledDynamicMemory(4096, sm_addr=1)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, sm_addr=3, dim=4))
        assert memory.last_status == MemStatus.ERR_BAD_SM_ADDR

    def test_query_and_diagnostics(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=8, data_type=DataType.UINT16)
        )
        vptr = response.data
        response, _ = send_command(memory, MemCommand(MemOpcode.QUERY, vptr=vptr))
        assert response.data == 16
        assert memory.live_count() == 1
        assert memory.used_bytes() == 16

    def test_pointer_arithmetic_access(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=8, data_type=DataType.UINT32)
        )
        vptr = response.data
        send_command(memory, MemCommand(MemOpcode.WRITE, vptr=vptr, offset=3, data=55))
        # Access the same element through an interior pointer (vptr + 12 bytes).
        response, _ = send_command(memory, MemCommand(MemOpcode.READ, vptr=vptr + 12))
        assert response.data == 55


class TestArraysAndReservation:
    def test_array_write_read(self):
        memory = ModeledDynamicMemory(8192)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=16, data_type=DataType.UINT32)
        )
        vptr = response.data
        payload = list(range(100, 116))
        memory.serve(BusRequest(0, BusOp.WRITE, 0, burst_data=payload),
                     IO_ARRAY_BASE)
        send_command(memory, MemCommand(MemOpcode.WRITE_ARRAY, vptr=vptr, dim=16))
        response, _ = send_command(
            memory, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=16)
        )
        assert response.ok
        readback, _ = memory.serve(
            BusRequest(0, BusOp.READ, 0, burst_length=16), IO_ARRAY_BASE
        )
        assert readback.burst_data == payload

    def test_reservation_blocks_other_master(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4),
                                   master_id=0)
        vptr = response.data
        send_command(memory, MemCommand(MemOpcode.RESERVE, vptr=vptr), master_id=0)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.WRITE, vptr=vptr, data=1), master_id=1
        )
        assert memory.last_status == MemStatus.ERR_RESERVED
        response, _ = send_command(memory, MemCommand(MemOpcode.FREE, vptr=vptr),
                                   master_id=1)
        assert memory.last_status == MemStatus.ERR_RESERVED
        # The owner can still write and eventually release.
        send_command(memory, MemCommand(MemOpcode.WRITE, vptr=vptr, data=1), master_id=0)
        assert memory.last_status == MemStatus.OK
        send_command(memory, MemCommand(MemOpcode.RELEASE, vptr=vptr), master_id=0)
        send_command(memory, MemCommand(MemOpcode.WRITE, vptr=vptr, data=2), master_id=1)
        assert memory.last_status == MemStatus.OK


class TestRegisterInterface:
    def test_result_registers_after_command_burst(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = send_command(
            memory, MemCommand(MemOpcode.ALLOC, dim=8,
                               data_type=DataType.UINT32))
        assert response.ok and response.data > 0
        for offset, expected in ((REG_STATUS, int(MemStatus.OK)),
                                 (REG_RESULT, response.data),
                                 (REG_LIVE_COUNT, 1), (REG_USED_BYTES, 32)):
            read, _ = memory.serve(BusRequest(0, BusOp.READ, 0), offset)
            assert read.ok and read.data == expected, offset

    def test_former_operand_registers_are_unmapped(self):
        memory = ModeledDynamicMemory(4096)
        for offset in range(0x20, 0x40, 4):
            written, _ = memory.serve(
                BusRequest(0, BusOp.WRITE, 0, data=0x77), offset)
            read, _ = memory.serve(BusRequest(0, BusOp.READ, 0), offset)
            assert written.status is ResponseStatus.SLAVE_ERROR, offset
            assert read.status is ResponseStatus.SLAVE_ERROR, offset
        assert memory.live_count() == 0
        assert sum(memory.op_counts.values()) == 0

    def test_malformed_command_burst(self):
        memory = ModeledDynamicMemory(4096)
        request = BusRequest(0, BusOp.WRITE, 0, burst_data=[0xFF, 0])
        response, _ = memory.serve(request, REG_COMMAND)
        assert response.status is ResponseStatus.NACK
        assert memory.last_status == MemStatus.ERR_MALFORMED

    def test_access_outside_window(self):
        memory = ModeledDynamicMemory(4096)
        response, _ = memory.serve(BusRequest(0, BusOp.READ, 0), 0x10000)
        assert response.status is ResponseStatus.SLAVE_ERROR


class TestTiming:
    def test_alloc_cost_grows_with_heap_occupancy(self):
        memory = ModeledDynamicMemory(64 * 1024)
        _, first_cycles = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        for _ in range(20):
            send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        _, late_cycles = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        assert late_cycles > first_cycles

    def test_array_cost_scales_with_length(self):
        memory = ModeledDynamicMemory(64 * 1024)
        response, _ = send_command(memory, MemCommand(MemOpcode.ALLOC, dim=256))
        vptr = response.data
        _, short_cycles = send_command(
            memory, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=4)
        )
        _, long_cycles = send_command(
            memory, MemCommand(MemOpcode.READ_ARRAY, vptr=vptr, dim=128)
        )
        assert long_cycles > short_cycles

    @pytest.mark.parametrize("refused", [
        MemCommand(MemOpcode.READ, sm_addr=5),
        MemCommand(MemOpcode.WRITE, sm_addr=5, data=1),
        MemCommand(MemOpcode.FREE, sm_addr=5),
    ])
    def test_refused_command_pays_no_earlier_heap_walk(self, refused):
        """A command refused before it executes walks no header: its cost
        must not depend on what the previous command walked."""
        fresh = ModeledDynamicMemory(4096)
        _, fresh_cycles = send_command(fresh, refused)
        busy = ModeledDynamicMemory(4096)
        for _ in range(3):
            send_command(busy, MemCommand(MemOpcode.ALLOC, dim=4))
        _, busy_cycles = send_command(busy, refused)
        assert busy.last_status == MemStatus.ERR_BAD_SM_ADDR
        assert busy_cycles == fresh_cycles

    def test_heap_access_counter_exposed(self):
        memory = ModeledDynamicMemory(4096)
        send_command(memory, MemCommand(MemOpcode.ALLOC, dim=4))
        assert memory.heap_accesses() > 0
