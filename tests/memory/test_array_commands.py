"""The array data path: bulk codec vs the per-element one, and the I/O window.

``encode_array`` / ``decode_array`` move a whole I/O-array chunk with one
``struct`` call; ``encode_element`` / ``decode_element`` are the reference
they must agree with bit for bit — element width mask, INT8 / INT16 sign
extension, FLOAT32 as a raw pattern, ``& 0xFFFFFFFF`` canonical words.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.api import PlatformBuilder
from repro.fabric import BusOp, BusRequest, ResponseStatus
from repro.memory import (
    IO_ARRAY_BYTES,
    REG_COMMAND,
    REG_LIVE_COUNT,
    REG_RESULT,
    REG_STATUS,
    REG_USED_BYTES,
    DataType,
    Endianness,
    MemCommand,
    MemOpcode,
    MemStatus,
    ModeledDynamicMemory,
    decode_array,
    decode_element,
    encode_array,
    encode_element,
)
from repro.memory.dynamic_base import REGISTER_ACCESS_CYCLES
from repro.memory.protocol import DATA_TYPE_SIZES
from repro.soc import Platform
from repro.wrapper import S_TRANSFER, SharedMemoryWrapper

IO_ARRAY_WORDS = IO_ARRAY_BYTES // 4

BOUNDARY_VALUES = [
    0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF, 0x80000000,
    0xFFFFFFFF,
    -1, -0x80, -0x81, -0x8000, -0x8001, -0x80000000, -0x80000001,  # negative
    0x100, 0x1_0000, 0x1_0000_0000, 0x1_2345_6789, 1 << 64,  # wider than the element
]

CODECS = list(itertools.product(DataType, Endianness))


def reference_encode(values, data_type, endianness):
    return b"".join(encode_element(value, data_type, endianness)
                    for value in values)


def reference_decode(payload, count, data_type, endianness):
    size = DATA_TYPE_SIZES[data_type]
    return [decode_element(payload[index * size:(index + 1) * size],
                           data_type, endianness) & 0xFFFFFFFF
            for index in range(count)]


def values_of_length(length):
    """``length`` values cycling through the boundary set."""
    return list(itertools.islice(itertools.cycle(BOUNDARY_VALUES), length))


@pytest.mark.parametrize("data_type,endianness", CODECS)
class TestBulkCodecAgainstPerElement:
    @pytest.mark.parametrize("length", [0, 1, len(BOUNDARY_VALUES), 255, 256])
    def test_boundary_values(self, data_type, endianness, length):
        values = values_of_length(length)
        payload = encode_array(values, data_type, endianness)
        assert payload == reference_encode(values, data_type, endianness)
        assert isinstance(payload, bytes)
        words = decode_array(payload, length, data_type, endianness)
        assert words == reference_decode(payload, length, data_type, endianness)
        assert all(0 <= word <= 0xFFFFFFFF for word in words)

    def test_every_byte_value_in_every_lane_decodes_alike(self, data_type, endianness):
        size = DATA_TYPE_SIZES[data_type]
        # Every byte value in every lane, the other lanes all-zeros / all-ones.
        payload = b"".join(
            bytes(value if position == lane else fill for position in range(size))
            for value in range(256) for lane in range(size)
            for fill in (0x00, 0xFF))
        count = len(payload) // size
        for view in (payload, bytearray(payload)):
            assert (decode_array(view, count, data_type, endianness)
                    == reference_decode(payload, count, data_type, endianness))

    @pytest.mark.parametrize("wrong", [-1, 1])
    def test_wrong_length_payload_raises(self, data_type, endianness, wrong):
        size = DATA_TYPE_SIZES[data_type]
        with pytest.raises(ValueError):
            decode_element(bytes(size + wrong), data_type, endianness)
        with pytest.raises(ValueError):
            decode_array(bytes(4 * size + wrong), 4, data_type, endianness)
        with pytest.raises(ValueError):
            decode_array(bytes(4 * size), 3, data_type, endianness)


@given(values=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                       max_size=64),
       codec=st.sampled_from(CODECS))
def test_bulk_codec_property(values, codec):
    payload = encode_array(values, *codec)
    assert payload == reference_encode(values, *codec)
    assert (decode_array(payload, len(values), *codec)
            == reference_decode(payload, len(values), *codec))


# ---------------------------------------------------------------------------
# Array commands larger than the I/O window.
# ---------------------------------------------------------------------------


def command(memory, **fields):
    request = BusRequest(0, BusOp.WRITE, 0,
                         burst_data=MemCommand(**fields).to_words())
    response, _ = memory.serve(request, 0)
    return memory.last_status, response


MEMORIES = {
    "wrapper": lambda: SharedMemoryWrapper(),
    "modeled": lambda: ModeledDynamicMemory(1 << 16),
}


@pytest.mark.parametrize("kind", MEMORIES)
class TestArrayCommandVsIoWindow:
    DIM = 600  # allocation and command size; the window stages 256 words

    def filled(self, kind):
        """A memory holding ``DIM`` elements ``1000 + index`` and an I/O array
        of recognisable junk."""
        memory = MEMORIES[kind]()
        status, response = command(memory, opcode=MemOpcode.ALLOC, dim=self.DIM)
        assert status is MemStatus.OK
        vptr = response.data
        for start in range(0, self.DIM, IO_ARRAY_WORDS):
            chunk = list(range(1000 + start,
                               1000 + min(self.DIM, start + IO_ARRAY_WORDS)))
            memory.io_array_for(0)[:len(chunk)] = chunk
            status, _ = command(memory, opcode=MemOpcode.WRITE_ARRAY, vptr=vptr,
                                offset=start, dim=len(chunk))
            assert status is MemStatus.OK
        memory.io_array_for(0)[:] = [0xABCD0000 + index
                                     for index in range(IO_ARRAY_WORDS)]
        return memory, vptr

    def element(self, memory, vptr, index):
        status, response = command(memory, opcode=MemOpcode.READ, vptr=vptr,
                                   offset=index)
        assert status is MemStatus.OK
        return response.data

    @pytest.mark.parametrize("opcode", [MemOpcode.WRITE_ARRAY,
                                        MemOpcode.READ_ARRAY])
    def test_oversize_command_is_refused_whole(self, kind, opcode):
        memory, vptr = self.filled(kind)
        staged = list(memory.io_array_for(0))
        transfer = (memory.fsm.occupancy().get(S_TRANSFER, 0)
                    if kind == "wrapper" else None)
        status, response = command(memory, opcode=opcode, vptr=vptr, dim=self.DIM)
        assert status is MemStatus.ERR_MALFORMED
        assert not response.ok and response.data == 0
        assert memory.io_array_for(0) == staged  # nothing staged
        for index in (0, 255, 256, 300, self.DIM - 1):  # target bytes unchanged
            assert self.element(memory, vptr, index) == 1000 + index
        if kind == "wrapper":  # no word moved, so no TRANSFER cycle charged
            assert memory.fsm.occupancy().get(S_TRANSFER, 0) == transfer

    def test_register_poke_launch_is_refused_too(self, kind):
        """Below the I/O array a memory takes one write, the command burst,
        and reads only its four result registers: any other access answers
        SLAVE_ERROR in one register cycle and changes nothing, even a
        WRITE_ARRAY spelled into 0x20-0x38 and "launched" at 0x3C."""
        memory, vptr = self.filled(kind)
        # The words an operand-register encoding would read at 0x20-0x38:
        # opcode, sm_addr, vptr, dim, type, data, offset.
        spelled = dict(zip(range(0x20, 0x3C, 4), (
            int(MemOpcode.WRITE_ARRAY), 0, vptr, 4, int(DataType.UINT32), 0,
            296)))

        def state():
            return (memory.last_status, memory.last_result,
                    dict(memory.op_counts), memory.live_count(),
                    list(memory.io_array_for(0)))

        def results():
            return [memory.serve(BusRequest(0, BusOp.READ, 0), offset)[0].data
                    for offset in (REG_STATUS, REG_RESULT, REG_LIVE_COUNT,
                                   REG_USED_BYTES)]

        before, answered = state(), results()
        accesses = [(BusOp.WRITE, offset, spelled.get(offset, 0xDEAD))
                    for offset in (REG_COMMAND, *range(0x04, 0x40, 4),
                                   REG_STATUS)]
        accesses += [(BusOp.READ, offset, 0) for offset in range(0x04, 0x40, 4)]
        for op, offset, word in accesses:
            response, cycles = memory.serve(
                BusRequest(0, op, 0, data=word), offset)
            assert response.status is ResponseStatus.SLAVE_ERROR, (op, offset)
            assert cycles == REGISTER_ACCESS_CYCLES
            assert state() == before, (op, offset)
        assert results() == answered
        for index in range(296, 300):
            assert self.element(memory, vptr, index) == 1000 + index

    def test_full_window_command_still_moves_every_word(self, kind):
        memory, vptr = self.filled(kind)
        status, response = command(memory, opcode=MemOpcode.READ_ARRAY, vptr=vptr,
                                   offset=100, dim=IO_ARRAY_WORDS)
        assert status is MemStatus.OK and response.data == IO_ARRAY_WORDS
        assert memory.io_array_for(0) == list(range(1100, 1100 + IO_ARRAY_WORDS))

    @pytest.mark.parametrize("opcode", [MemOpcode.WRITE_ARRAY,
                                        MemOpcode.READ_ARRAY])
    def test_negative_dim_is_out_of_range(self, kind, opcode):
        memory, vptr = self.filled(kind)
        staged = list(memory.io_array_for(0))
        status, response = command(memory, opcode=opcode, vptr=vptr, dim=-5)
        assert status is MemStatus.ERR_OUT_OF_RANGE
        assert not response.ok and response.data == 0
        assert memory.io_array_for(0) == staged


@pytest.mark.parametrize("kind", MEMORIES)
@pytest.mark.parametrize("opcode", [MemOpcode.WRITE_ARRAY, MemOpcode.READ_ARRAY],
                         ids=["write_array", "read_array"])
def test_refused_array_command_charges_no_word_cycles(kind, opcode):
    """A refused array command moved no words, so its cycles do not depend
    on ``dim``, whether it is out of range, negative or past the window."""
    memory = MEMORIES[kind]()
    _, response = command(memory, opcode=MemOpcode.ALLOC, dim=4)
    vptr = response.data

    def cycles(dim, offset=0):
        request = BusRequest(0, BusOp.WRITE, 0, burst_data=MemCommand(
            opcode, vptr=vptr, offset=offset, dim=dim).to_words())
        return memory.serve(request, 0)[1], memory.last_status

    refused = {}
    for dim, offset in ((5, 0), (200, 0), (1, 4), (-5, 0),
                        (IO_ARRAY_WORDS + 1, 0), (600, 0)):
        refused[dim, offset], status = cycles(dim, offset)
        assert status is not MemStatus.OK
    assert len(set(refused.values())) == 1, refused
    moved, status = cycles(4)
    assert status is MemStatus.OK
    assert moved > refused[5, 0]


@pytest.mark.parametrize("policy", ["write_back", "write_through"])
def test_cached_register_pokes_are_refused(policy):
    """A cached PE that spells a WRITE of 222 into 0x20-0x38 and writes 0x3C
    is refused at every word, so its next read and the memory agree."""
    platform = Platform(PlatformBuilder().pes(1).wrapper_memories(1)
                        .l1_cache(sets=8, ways=2, line_bytes=16, policy=policy)
                        .build())

    def task(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.write(vptr, 111)
        yield from smem.reserve(vptr)  # a flush barrier: 111 reaches memory
        yield from smem.release(vptr)
        statuses = []
        for offset, word in ((0x20, int(MemOpcode.WRITE)), (0x24, 0),
                             (0x28, vptr), (0x34, 222), (0x38, 0), (0x3C, 1)):
            response = yield from ctx.port.write(smem.base_address + offset,
                                                 word)
            statuses.append(response.status)
        value = yield from smem.read(vptr)
        return vptr, statuses, value

    platform.add_task(task)
    vptr, statuses, value = platform.run().results["pe0"]
    assert statuses == [ResponseStatus.SLAVE_ERROR] * 6
    response, _ = platform.memories[0].serve(BusRequest(
        99, BusOp.WRITE, 0, burst_data=MemCommand(
            MemOpcode.READ, vptr=vptr).to_words()), REG_COMMAND)
    assert response.ok and value == response.data == 111
