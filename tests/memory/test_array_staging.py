"""Canonical words without a per-word mask on the 32-bit array path.

``encode_array`` packs 32-bit words as given and masks only when ``struct``
refuses one; the I/O-array stage masks a raw-bus burst only when a word lies
outside ``[0, 2**32)``; a READ_ARRAY result is staged as the storage hook
returns it.  Each shortcut must store exactly what the per-word mask did.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import BusOp, BusRequest
from repro.memory import (
    IO_ARRAY_BASE,
    DataType,
    Endianness,
    ModeledDynamicMemory,
    encode_array,
    encode_element,
    to_signed,
)
from repro.wrapper import SharedMemoryWrapper

CODECS = list(itertools.product(DataType, Endianness))

MEMORIES = {
    "wrapper": lambda: SharedMemoryWrapper(),
    "modeled": lambda: ModeledDynamicMemory(1 << 16),
}

#: Each is outside ``[0, 2**32)``: ``struct`` refuses it as a 32-bit word.
OUT_OF_RANGE = [-1, -0x80000000, 1 << 32, (1 << 32) + 5, 1 << 64]


def per_element(values, data_type, endianness):
    return b"".join(encode_element(value, data_type, endianness)
                    for value in values)


@pytest.mark.parametrize("data_type,endianness", CODECS)
@pytest.mark.parametrize("stray", [None, *OUT_OF_RANGE])
def test_encode_array_equals_per_element_with_and_without_fallback(
        data_type, endianness, stray):
    """In-range words (the packed-as-given path), and the same words with
    one out-of-range word in the middle (the masked fallback)."""
    values = [0, 1, 0x7F, 0xFFFF, 0x80000000, 0xFFFFFFFF]
    if stray is not None:
        values.insert(3, stray)
    assert (encode_array(values, data_type, endianness)
            == per_element(values, data_type, endianness))


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.one_of(
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=-(1 << 40), max_value=1 << 40)), max_size=16),
       codec=st.sampled_from(CODECS))
def test_encode_array_property(values, codec):
    assert encode_array(values, *codec) == per_element(values, *codec)


def stage(memory, index, **fields):
    """Write the I/O array of master 0 at word ``index`` over the raw bus."""
    offset = IO_ARRAY_BASE + 4 * index
    response, _ = memory.serve(
        BusRequest(0, BusOp.WRITE, offset, **fields), offset)
    return response


@pytest.mark.parametrize("kind", MEMORIES)
class TestIoArrayStage:
    def test_out_of_range_burst_is_stored_masked(self, kind):
        memory = MEMORIES[kind]()
        words = [7, *OUT_OF_RANGE, 0xFFFFFFFF]
        assert stage(memory, 2, burst_data=list(words)).ok
        assert (memory.io_array_for(0)[2:2 + len(words)]
                == [word & 0xFFFFFFFF for word in words])

    def test_out_of_range_single_word_is_stored_masked(self, kind):
        memory = MEMORIES[kind]()
        assert stage(memory, 5, data=-2).ok
        assert memory.io_array_for(0)[5] == 0xFFFFFFFE

    def test_in_range_burst_is_copied_not_shared(self, kind):
        memory = MEMORIES[kind]()
        words = [3, 0, 0xFFFFFFFF]
        assert stage(memory, 0, burst_data=words).ok
        words[0] = 99
        assert memory.io_array_for(0)[:3] == [3, 0, 0xFFFFFFFF]

    def test_empty_burst_is_a_no_op(self, kind):
        memory = MEMORIES[kind]()
        memory.io_array_for(0)[:4] = [1, 2, 3, 4]
        before = list(memory.io_array_for(0))
        assert stage(memory, 1, burst_data=[]).ok
        assert memory.io_array_for(0) == before


@pytest.mark.parametrize("kind", MEMORIES)
@pytest.mark.parametrize("data_type", [DataType.INT8, DataType.INT16,
                                       DataType.INT32])
def test_load_array_returns_canonical_words_for_negative_elements(
        kind, data_type):
    """The contract the unmasked READ_ARRAY staging relies on: a storage
    hook hands back sign-extended elements as words in ``[0, 2**32)``."""
    memory = MEMORIES[kind]()
    values = [-1, -2, -0x80, 0x7F, 0, -0x8000, 5]
    alloc = memory._allocate(len(values), data_type)
    memory._store_array(alloc, 0, [value & 0xFFFFFFFF for value in values])
    words = memory._load_array(alloc, 0, len(values))
    assert all(0 <= word <= 0xFFFFFFFF for word in words)
    assert words == [to_signed(value, data_type) & 0xFFFFFFFF
                     for value in values]
    assert words[0] == 0xFFFFFFFF
