"""Tests for the static memory module, latency models and element encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.fabric import BusOp, BusRequest, ResponseStatus
from repro.memory import (
    DataType,
    Endianness,
    LatencyModel,
    StaticMemory,
    decode_element,
    encode_element,
    to_signed,
)


class TestStaticMemory:
    def test_word_write_read(self):
        mem = StaticMemory(256)
        mem.serve(BusRequest(0, BusOp.WRITE, 0, data=0x12345678), 0x10)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0), 0x10)
        assert response.data == 0x12345678

    def test_byte_and_halfword_access(self):
        mem = StaticMemory(64)
        mem.serve(BusRequest(0, BusOp.WRITE, 0, data=0xAB, size=1), 3)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0, size=1), 3)
        assert response.data == 0xAB
        mem.serve(BusRequest(0, BusOp.WRITE, 0, data=0xBEEF, size=2), 8)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0, size=2), 8)
        assert response.data == 0xBEEF

    def test_endianness_little_vs_big(self):
        little = StaticMemory(16, endianness=Endianness.LITTLE)
        big = StaticMemory(16, endianness=Endianness.BIG)
        for mem in (little, big):
            mem.serve(BusRequest(0, BusOp.WRITE, 0, data=0x11223344), 0)
        assert little.dump_bytes(0, 4) == b"\x44\x33\x22\x11"
        assert big.dump_bytes(0, 4) == b"\x11\x22\x33\x44"

    def test_out_of_bounds(self):
        mem = StaticMemory(16)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0), 20)
        assert response.status is ResponseStatus.SLAVE_ERROR

    def test_burst(self):
        mem = StaticMemory(64)
        mem.serve(BusRequest(0, BusOp.WRITE, 0, burst_data=[1, 2, 3]), 0)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0, burst_length=3), 0)
        assert response.burst_data == [1, 2, 3]
        assert mem.reads == 3 and mem.writes == 3

    def test_burst_out_of_bounds(self):
        mem = StaticMemory(8)
        response, _ = mem.serve(
            BusRequest(0, BusOp.WRITE, 0, burst_data=[1, 2, 3]), 0
        )
        assert response.status is ResponseStatus.SLAVE_ERROR

    def test_backdoor_accessors(self):
        mem = StaticMemory(32)
        mem.write_word_backdoor(4, 0xCAFEBABE)
        assert mem.read_word_backdoor(4) == 0xCAFEBABE
        mem.load_bytes(8, b"hi")
        assert mem.dump_bytes(8, 2) == b"hi"
        with pytest.raises(ValueError):
            mem.load_bytes(31, b"toolong")
        with pytest.raises(ValueError):
            mem.dump_bytes(30, 4)

    def test_latency_follows_model(self):
        mem = StaticMemory(64, latency=LatencyModel(read_cycles=3, write_cycles=2))
        _, read_cycles = mem.serve(BusRequest(0, BusOp.READ, 0), 0)
        _, write_cycles = mem.serve(BusRequest(0, BusOp.WRITE, 0, data=1), 0)
        assert read_cycles == 3
        assert write_cycles == 2

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            StaticMemory(0)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF), st.integers(0, 15))
    def test_word_roundtrip_property(self, value, word_index):
        mem = StaticMemory(64)
        mem.serve(BusRequest(0, BusOp.WRITE, 0, data=value), word_index * 4)
        response, _ = mem.serve(BusRequest(0, BusOp.READ, 0), word_index * 4)
        assert response.data == value


class TestLatencyModel:
    def test_defaults(self):
        model = LatencyModel()
        assert model.scalar_read() == 1
        assert model.scalar_write() == 1
        assert model.burst_read(4) == 1 + 4
        assert model.alloc() == 2
        assert model.free() == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(read_cycles=-1)

    def test_bursts_charge_per_word(self):
        model = LatencyModel(read_cycles=3, write_cycles=2, per_word_cycles=2)
        assert model.burst_read(0) == 3
        assert model.burst_read(5) == 3 + 2 * 5
        assert model.burst_write(5) == 2 + 2 * 5

    def test_zero_costs_still_take_one_cycle(self):
        model = LatencyModel(read_cycles=0, write_cycles=0, alloc_cycles=0,
                             free_cycles=0, per_word_cycles=0)
        assert model.scalar_read() == model.scalar_write() == 1
        assert model.burst_read(8) == model.burst_write(8) == 1
        assert model.alloc() == model.free() == 1


class TestElementEncoding:
    @pytest.mark.parametrize("data_type,value", [
        (DataType.UINT8, 200),
        (DataType.INT8, -100),
        (DataType.UINT16, 60000),
        (DataType.INT16, -12345),
        (DataType.UINT32, 0xDEADBEEF),
        (DataType.INT32, -100000),
    ])
    @pytest.mark.parametrize("endianness", [Endianness.LITTLE, Endianness.BIG])
    def test_roundtrip(self, data_type, value, endianness):
        payload = encode_element(value, data_type, endianness)
        assert decode_element(payload, data_type, endianness) == value

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode_element(b"\x00", DataType.UINT32, Endianness.LITTLE)

    def test_to_signed(self):
        assert to_signed(0xFFFF, DataType.INT16) == -1
        assert to_signed(0xFFFF, DataType.UINT16) == 0xFFFF
        assert to_signed(0x80, DataType.INT8) == -128

    def test_float32_is_raw_bit_pattern(self):
        payload = encode_element(0x3F800000, DataType.FLOAT32, Endianness.LITTLE)
        assert decode_element(payload, DataType.FLOAT32, Endianness.LITTLE) == 0x3F800000

    @given(st.integers(min_value=-(2 ** 15), max_value=2 ** 15 - 1))
    def test_int16_roundtrip_property(self, value):
        for endianness in (Endianness.LITTLE, Endianness.BIG):
            payload = encode_element(value, DataType.INT16, endianness)
            assert decode_element(payload, DataType.INT16, endianness) == value
