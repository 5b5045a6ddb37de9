"""Wire format of the dynamic-memory protocol: ``MemCommand`` encode/decode.

Pins what the one decode of a command burst, which every layer it crosses
(cache, wrapper, snooper, sanitizers) reads, relies on: one operand-count
table, lossless round trips, and a :class:`ProtocolError` — never an ``IndexError`` or a
``ValueError`` — for anything that is not a command.
"""

import pytest

from repro.fabric import BusOp, BusRequest, ResponseStatus
from repro.memory import (
    DataType,
    MemCommand,
    MemOpcode,
    MemStatus,
    ModeledDynamicMemory,
    ProtocolError,
)
from repro.memory.protocol import OPERAND_COUNT, REG_COMMAND
from repro.wrapper import SharedMemoryWrapper

#: The wire format, written out independently of ``protocol.py``: the
#: operands following ``[opcode, sm_addr]``, as field names in word order.
OPERAND_FIELDS = {
    MemOpcode.NOP: (),
    MemOpcode.ALLOC: ("dim", "data_type"),
    MemOpcode.FREE: ("vptr",),
    MemOpcode.WRITE: ("vptr", "offset", "data"),
    MemOpcode.READ: ("vptr", "offset"),
    MemOpcode.WRITE_ARRAY: ("vptr", "offset", "dim"),
    MemOpcode.READ_ARRAY: ("vptr", "offset", "dim"),
    MemOpcode.RESERVE: ("vptr",),
    MemOpcode.RELEASE: ("vptr",),
    MemOpcode.QUERY: ("vptr",),
}

#: One distinct value per operand field, so a swapped pair cannot round-trip.
FIELD_VALUES = {"vptr": 0x140, "offset": 7, "data": 0xDEADBEEF, "dim": 12,
                "data_type": DataType.INT16}


def command_for(opcode):
    return MemCommand(opcode, sm_addr=3,
                      **{name: FIELD_VALUES[name]
                         for name in OPERAND_FIELDS[opcode]})


def test_operand_count_table_covers_every_opcode():
    assert OPERAND_COUNT == {opcode: len(OPERAND_FIELDS[opcode])
                             for opcode in MemOpcode}


@pytest.mark.parametrize("opcode", list(MemOpcode))
def test_round_trip_for_every_opcode(opcode):
    command = command_for(opcode)
    words = command.to_words()
    assert all(type(word) is int for word in words)
    assert words == [int(opcode), 3] + [int(FIELD_VALUES[name])
                                        for name in OPERAND_FIELDS[opcode]]
    decoded = MemCommand.from_words(words)
    assert decoded == command
    assert decoded.opcode is opcode
    assert isinstance(decoded.data_type, DataType)


@pytest.mark.parametrize("opcode", list(MemOpcode))
def test_trailing_words_are_ignored(opcode):
    words = command_for(opcode).to_words()
    assert MemCommand.from_words(words + [0xAA, 0xBB]) == command_for(opcode)


@pytest.mark.parametrize("opcode", list(MemOpcode))
def test_every_short_operand_list_is_a_protocol_error(opcode):
    words = command_for(opcode).to_words()
    for length in range(len(words)):
        if length == 2 and not OPERAND_FIELDS[opcode]:
            continue  # NOP is complete with opcode + sm_addr
        with pytest.raises(ProtocolError):
            MemCommand.from_words(words[:length])


def test_short_operand_message_names_the_opcode_and_the_operands():
    with pytest.raises(ProtocolError, match=r"\[64\].*READ"):
        MemCommand.from_words([int(MemOpcode.READ), 0, 64])


@pytest.mark.parametrize("raw", [0x0A, 0xFF, -1, 1 << 32])
def test_unknown_opcode_is_a_protocol_error(raw):
    with pytest.raises(ProtocolError, match="unknown opcode"):
        MemCommand.from_words([raw, 0, 1, 2, 3])


def test_unknown_data_type_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="ALLOC"):
        MemCommand.from_words([int(MemOpcode.ALLOC), 0, 4, 0x7F])


def test_decoding_reads_the_burst_without_changing_it():
    words = tuple(command_for(MemOpcode.WRITE).to_words())  # immutable
    assert MemCommand.from_words(words) == command_for(MemOpcode.WRITE)


@pytest.mark.parametrize("make_memory", [
    SharedMemoryWrapper, lambda: ModeledDynamicMemory(4096)],
    ids=["wrapper", "modeled"])
@pytest.mark.parametrize("burst", [
    [int(MemOpcode.WRITE), 0, 0x40],          # operands missing
    [int(MemOpcode.READ)],                    # no sm_addr
    [0xFF, 0, 1, 2],                          # unknown opcode
    [int(MemOpcode.ALLOC), 0, 4, 0x7F],       # unknown data type
])
def test_memory_answers_err_malformed_on_the_bus(make_memory, burst):
    memory = make_memory()
    response, _ = memory.serve(
        BusRequest(0, BusOp.WRITE, 0, burst_data=burst), REG_COMMAND)
    assert response.status is ResponseStatus.NACK
    assert response.data == int(MemStatus.ERR_MALFORMED)
    assert memory.last_status is MemStatus.ERR_MALFORMED
