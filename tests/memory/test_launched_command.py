"""One launch test and one decode per command burst.

:func:`~repro.memory.protocol.launched_command` is the only place that
decides whether a bus request launches a memory command and decodes it;
the L1 cache, the memory, the shadow map's snooper, the sanitizer and the
partition boundary all ask it.  Two properties hold:

* each launched burst is decoded exactly once, whatever it crosses — or
  not at all when the cache that encoded it attached its command;
* generated word lists — valid commands, too-short lists, unknown opcodes,
  a bad ALLOC data type — meet the outcome the protocol specifies at every
  layer: a malformed launch is NACKed with ``ERR_MALFORMED`` at one cycle
  per word plus one, changes no shadow map, is no bus snoop and no
  register misuse, and the L1 forwards it uncached; only a write below
  the I/O array that is not a launch is a register misuse.

Whether the shadow map's rows equal the memories' own is
``tests/cache/test_allocation_mirror.py``'s question.
"""

import collections

from hypothesis import example, given, settings, strategies as st

from repro.api import PlatformBuilder
from repro.fabric import BusOp, BusRequest, ResponseStatus, cache_transfer_kind
from repro.memory import (
    REG_COMMAND,
    REG_STATUS,
    DataType,
    MemCommand,
    MemOpcode,
    MemStatus,
    ProtocolError,
)
from repro.soc import Platform
from repro.sw.registry import workload
from repro.wrapper import SharedMemoryWrapper

DECODE = MemCommand.from_words.__func__


def test_each_launched_burst_is_decoded_once(monkeypatch):
    config = (PlatformBuilder().pes(2).wrapper_memories(2).crossbar()
              .l1_cache(sets=4, ways=2, line_bytes=16, policy="write_back")
              .sanitize().build())
    decodes, bursts = collections.Counter(), {}

    def counting(cls, words):
        decodes[id(words)] += 1
        bursts[id(words)] = words  # alive, so no other burst reuses the id
        return DECODE(cls, words)

    monkeypatch.setattr(MemCommand, "from_words", classmethod(counting))
    platform = Platform(config)
    commands = {base + REG_COMMAND for base in platform.windows}
    launches = []

    def snoop(request, _response):
        if (request.address in commands and request.op is BusOp.WRITE
                and request.burst_data is not None):
            launches.append(request)

    platform.interconnect.add_snooper(snoop)
    for task in workload.create("stencil", config, size=24, iterations=2,
                                seed=11).tasks:
        platform.add_task(task)
    report = platform.run()
    assert report.all_pes_finished

    internal = [request for request in launches
                if cache_transfer_kind(request.tag) is not None]
    assert internal and len(internal) < len(launches)
    assert max(decodes.values()) == 1
    for request in launches:
        # The cache attaches the command it encoded; everything else is
        # decoded once, by the first layer that asks.
        owed = 0 if cache_transfer_kind(request.tag) is not None else 1
        assert decodes[id(request.burst_data)] == owed, request.describe()
        assert request.decoded == DECODE(MemCommand, request.burst_data)


# -- generated bursts -------------------------------------------------------------

#: Known opcodes, then words no opcode has.
OPCODE_WORDS = [int(opcode) for opcode in MemOpcode] + [0x0A, 0x0F, 0xFF]
#: Operand words: "vptr" stands for the driver's live allocation; 0x7F is
#: no data type.  Small values only, so no ALLOC or array asks for much.
OPERANDS = ["vptr", 0, 1, 2, 4, int(DataType.INT16), 0x7F]

bursts = st.lists(st.tuples(
    st.sampled_from(OPCODE_WORDS),
    st.sampled_from([0] * 4 + [1]),                    # sm_addr word
    st.lists(st.sampled_from(OPERANDS), min_size=3, max_size=3),
    st.sampled_from([None] * 4 + [0, 1, 2, 3, 4]),     # truncated length
    st.sampled_from(["command"] * 6 + ["status", "scalar"]),
), min_size=1, max_size=12)


def words_of(burst, vptr):
    opcode, sm_addr, operands, length, _register = burst
    words = [opcode, sm_addr] + [vptr if word == "vptr" else word
                                 for word in operands]
    return words if length is None else words[:length]


def malformed(words):
    try:
        DECODE(MemCommand, words)
    except ProtocolError:
        return True
    return False


def shadow_rows(shadow):
    return {(mem, row.vptr): (row.uid, row.reserved_by)
            for mem, live in shadow.by_base.items() for row in live.rows}


@settings(max_examples=30, deadline=None)
@given(program=bursts)
@example(program=[(int(MemOpcode.WRITE), 0, ["vptr", 1, 2], 4, "command")])
@example(program=[(int(MemOpcode.ALLOC), 0, [4, 0x7F, 0], None, "command")])
@example(program=[(0xFF, 0, ["vptr", 0, 0], None, "command"),
                  (int(MemOpcode.READ), 0, ["vptr", 1, 0], 1, "command"),
                  (int(MemOpcode.NOP), 0, [0, 0, 0], 0, "command"),
                  (int(MemOpcode.WRITE), 0, ["vptr", 1, 2], None, "status"),
                  (int(MemOpcode.WRITE), 0, ["vptr", 1, 2], None, "scalar")])
def test_generated_bursts_meet_the_protocol_at_every_layer(program):
    platform = Platform(
        PlatformBuilder().pes(1).wrapper_memories(1).crossbar()
        .l1_cache(sets=2, ways=2, line_bytes=16, policy="write_back")
        .sanitize().build())
    base = platform.config.memory_base(0)
    seen = []

    def state():
        return (shadow_rows(platform.shadow),
                platform.coherence.stats.bus_snoops,
                platform.check_suite.protocol.register_misuses,
                platform.caches[0].stats.uncached_ops)

    def driver(ctx):
        vptr = yield from ctx.smem(0).alloc(8, DataType.UINT32)
        for burst in program:
            words = words_of(burst, vptr)
            register = burst[-1]
            request = BusRequest(
                ctx.port.master_id, BusOp.WRITE,
                base + (REG_STATUS if register == "status" else REG_COMMAND),
                data=words[0] if words else 0,
                burst_data=None if register == "scalar" else words)
            before = state()
            response = yield from ctx.port.transfer(request)
            after = state()
            status = (yield from ctx.port.read(base + REG_STATUS)).data
            seen.append((words, register, request, response, status,
                         before, after))

    platform.add_task(driver)
    assert platform.run().all_pes_finished
    assert len(seen) == len(program)
    for words, register, request, response, status, before, after in seen:
        if register != "command":
            # Not a launch: refused, and the one register misuse.
            assert response.status is ResponseStatus.SLAVE_ERROR
            assert after[:2] == before[:2] and after[2] == before[2] + 1
        elif malformed(words):
            assert response.status is ResponseStatus.NACK
            assert response.data == int(MemStatus.ERR_MALFORMED)
            assert response.slave_cycles == max(1, 1 + len(words))
            assert status == int(MemStatus.ERR_MALFORMED)
            assert request.decoded is MemStatus.ERR_MALFORMED
            assert after[:3] == before[:3] and after[3] == before[3] + 1
        else:
            assert request.decoded == DECODE(MemCommand, words)
            assert after[2] == before[2]

    # The memory alone, off the bus.
    memory = SharedMemoryWrapper()
    for words, register, *_rest in seen:
        if register == "command" and malformed(words):
            response, cycles = memory.serve(
                BusRequest(0, BusOp.WRITE, 0, burst_data=list(words)),
                REG_COMMAND)
            assert response.status is ResponseStatus.NACK
            assert response.data == int(MemStatus.ERR_MALFORMED)
            assert cycles == max(1, 1 + len(words))
            assert memory.last_status is MemStatus.ERR_MALFORMED
