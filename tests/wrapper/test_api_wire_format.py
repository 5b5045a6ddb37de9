"""One definition of the wire format: the API's command bursts are
``MemCommand.to_words()``.

``SharedMemoryAPI`` writes each operation's ``[opcode, sm_addr, operands...]``
list itself instead of building a ``MemCommand``, so nothing but this test
ties the two encoders together.  A recording port stub that never suspends
captures the command burst of every operation; its words must equal
``MemCommand(...).to_words()`` word for word (plain ints, like the encoder's)
and must round-trip through ``MemCommand.from_words``.  Pointers, offsets
and data cover the whole 32-bit range, and negative ``write`` values must
arrive masked to 32 bits.
"""

from hypothesis import given, strategies as st

from repro.fabric import BusResponse
from repro.fabric.port import PortHelpers
from repro.memory import DataType, MemCommand, MemOpcode
from repro.memory.protocol import IO_ARRAY_BASE, REG_COMMAND
from repro.wrapper.api import SharedMemoryAPI

BASE = 0x4000_0000

words32 = st.integers(0, 0xFFFF_FFFF)
sm_addrs = st.integers(0, 15)


def _answered(response):
    """A generator that returns ``response`` without ever suspending."""
    return response
    yield  # pragma: no cover - makes this function a generator


class RecordingPort(PortHelpers):
    """Master-port stand-in: records bursts, answers every request OK.  It
    offers no hit front, so every scalar access sends its command."""

    master_id = 0

    def __init__(self):
        self.bursts = []

    def burst_write(self, address, words, tag=""):
        self.bursts.append((address, list(words)))
        return _answered(BusResponse(data=len(words)))

    def burst_read(self, address, length, tag=""):
        return _answered(BusResponse(burst_data=[0] * length))

    def read(self, address, size=4, tag=""):
        return _answered(BusResponse())


def command_words(operation, sm_addr):
    """Run ``operation(api)`` to completion; return its one command burst."""
    port = RecordingPort()
    api = SharedMemoryAPI(port, BASE, sm_addr=sm_addr)
    driven = operation(api)
    try:
        next(driven)
    except StopIteration:
        pass
    else:  # pragma: no cover - the stub never suspends
        raise AssertionError("the API yielded on a port that never suspends")
    commands = [words for address, words in port.bursts
                if address == BASE + REG_COMMAND]
    assert len(commands) == 1
    assert all(address in (BASE + REG_COMMAND, BASE + IO_ARRAY_BASE)
               for address, _words in port.bursts)
    return commands[0]


def assert_is_wire_format(words, command):
    assert words == command.to_words()
    assert [type(word) for word in words] == [int] * len(words)
    assert MemCommand.from_words(words) == command


@given(sm_addrs, st.integers(1, 0xFFFF_FFFF), st.sampled_from(DataType))
def test_alloc(sm_addr, dim, data_type):
    words = command_words(lambda api: api.alloc(dim, data_type), sm_addr)
    assert_is_wire_format(words, MemCommand(MemOpcode.ALLOC, sm_addr, dim=dim,
                                            data_type=data_type))


@given(sm_addrs, words32,
       st.sampled_from(["free", "query", "reserve", "release"]))
def test_pointer_only_operations(sm_addr, vptr, name):
    words = command_words(lambda api: getattr(api, name)(vptr), sm_addr)
    assert_is_wire_format(words, MemCommand(MemOpcode[name.upper()], sm_addr,
                                            vptr=vptr))


@given(sm_addrs, words32, words32)
def test_read(sm_addr, vptr, offset):
    words = command_words(lambda api: api.read(vptr, offset=offset), sm_addr)
    assert_is_wire_format(words, MemCommand(MemOpcode.READ, sm_addr, vptr=vptr,
                                            offset=offset))


@given(sm_addrs, words32, words32, st.integers(-(1 << 31), 0xFFFF_FFFF))
def test_write_masks_its_value(sm_addr, vptr, offset, value):
    words = command_words(lambda api: api.write(vptr, value, offset=offset),
                          sm_addr)
    assert words[4] == value & 0xFFFF_FFFF
    assert_is_wire_format(words, MemCommand(
        MemOpcode.WRITE, sm_addr, vptr=vptr, offset=offset,
        data=value & 0xFFFF_FFFF))


@given(sm_addrs, words32, words32, st.lists(words32, min_size=1, max_size=8))
def test_write_array(sm_addr, vptr, offset, values):
    words = command_words(
        lambda api: api.write_array(vptr, values, offset=offset), sm_addr)
    assert_is_wire_format(words, MemCommand(
        MemOpcode.WRITE_ARRAY, sm_addr, vptr=vptr, offset=offset,
        dim=len(values)))


@given(sm_addrs, words32, words32, st.integers(1, 256))
def test_read_array(sm_addr, vptr, offset, dim):
    words = command_words(
        lambda api: api.read_array(vptr, dim, offset=offset), sm_addr)
    assert_is_wire_format(words, MemCommand(
        MemOpcode.READ_ARRAY, sm_addr, vptr=vptr, offset=offset, dim=dim))
