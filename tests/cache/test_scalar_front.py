"""The port's scalar front against the cache's request path.

:meth:`CachedPort.burst_write` answers a well-formed scalar READ / WRITE
from the words the API wrote, without building a bus request;
:meth:`L1Cache.transfer` decodes the same words from a request.  Both must
be the same cache.  Generated command word lists (well-formed and short
bursts, wrong ``sm_addr``, unknown opcodes, out-of-bounds and interior
pointers, an io stage or an io fetch left pending, then the fetch's io
read) are driven through one path on one platform and through the other
on its twin, while a second PE holds a reservation the writes stall
behind.  Responses, cache counters, ``observables_sha256()`` and
``cost()`` must all agree.
"""

from hypothesis import example, given, settings, strategies as st

import repro.cache.l1 as l1
from repro.api import PlatformBuilder
from repro.fabric import BusOp, BusRequest
from repro.memory import IO_ARRAY_BASE, REG_STATUS, DataType, MemOpcode
from repro.soc import Platform

#: (memory, data type, dim) of each allocation slot the program addresses.
SLOTS = ((0, DataType.UINT32, 12), (0, DataType.INT16, 10),
         (1, DataType.UINT8, 9))
SIZES = {DataType.UINT32: 4, DataType.INT16: 2, DataType.UINT8: 1}
OPCODES = {"read": MemOpcode.READ, "write": MemOpcode.WRITE,
           "unknown": 0x0F, "nop": MemOpcode.NOP,
           "fetch": MemOpcode.READ_ARRAY, "reserve": MemOpcode.RESERVE,
           "release": MemOpcode.RELEASE}

accesses = st.lists(st.tuples(
    st.sampled_from(["read"] * 6 + ["write"] * 6 + [
        "unknown", "nop", "stage", "stage", "fetch", "fetch", "io_read",
        "io_read", "reserve", "release"]),
    st.integers(0, len(SLOTS) - 1),          # slot
    # vptr, in elements from the slot's: interior, before it, past its end
    st.sampled_from([0] * 6 + [1, 2, 3, 5, -1, -2, 12]),
    st.sampled_from(list(range(6)) * 3 + [6, 8, 9, 10, 11, 13]),  # offset
    st.integers(0, 0xFFFFFFFF),              # data
    st.sampled_from([None] * 8 + [0, 1, 2, 3, 4, 6]),  # burst length
    st.sampled_from(["own"] * 8 + ["other", "bogus"]),  # sm_addr word
    st.sampled_from(["command"] * 8 + ["other", "status"]),  # register
), min_size=4, max_size=40)


def access(kind, slot=0, base=0, offset=1, data=0x1234):
    """A well-formed generated access, for the pinned examples."""
    return kind, slot, base, offset, data, None, "own", "command"


def words_of(access, vptrs, apis):
    """``(address, words)`` of one generated access."""
    kind, slot, base, offset, data, length, sm, register = access
    mem, data_type, _dim = SLOTS[slot]
    api = apis[mem]
    if kind == "stage":
        return api.base_address + IO_ARRAY_BASE, [
            (data + step) & 0xFFFFFFFF for step in range(max(1, length or 2))]
    vptr = vptrs[slot] + base * SIZES[data_type]
    sm_addr = {"own": mem, "other": 1 - mem, "bogus": 7}[sm]
    words = {"read": [vptr, offset], "write": [vptr, offset, data],
             "unknown": [vptr, offset, data], "nop": [],
             "fetch": [vptr, offset, 2], "reserve": [vptrs[slot]],
             "release": [vptrs[slot]]}[kind]
    words = [int(OPCODES[kind]), sm_addr] + words
    if length is not None:
        words = (words + [data])[:length]
    address = {"command": api.base_address,
               "other": apis[1 - mem].base_address,
               "status": api.base_address + REG_STATUS}[register]
    return address, [word & 0xFFFFFFFF for word in words]


def run(policy, program, hold, via_transfer):
    """Drive ``program`` from PE 0 through one of the two paths."""
    platform = Platform(PlatformBuilder().pes(2).wrapper_memories(2).l1_cache(
        sets=2, ways=2, line_bytes=16, policy=policy).build())
    shared, responses = {}, []

    def driver(ctx):
        apis = [ctx.smem(mem) for mem in range(2)]
        for mem, data_type, dim in SLOTS:
            shared[len(shared)] = yield from apis[mem].alloc(dim, data_type)
        for slot, (mem, _type, _dim) in enumerate(SLOTS):
            yield from apis[mem].write(shared[slot], slot + 1, offset=1)
            yield from apis[mem].read(shared[slot], offset=5)
        port = ctx.port
        for access in program:
            if access[0] == "io_read":  # what a READ_ARRAY's io fetch reads
                mem = SLOTS[access[1]][0]
                responses.append((yield from port.burst_read(
                    apis[mem].base_address + IO_ARRAY_BASE, 2)))
                continue
            address, words = words_of(access, shared, apis)
            if via_transfer:
                response = yield from port.transfer(BusRequest(
                    port.master_id, BusOp.WRITE, address, burst_data=words))
            else:
                response = yield from port.burst_write(address, words)
            responses.append(response)

    def holder(ctx):
        smem = ctx.smem(0)
        while 1 not in shared:
            yield from ctx.compute(4)
        yield from smem.write(shared[0], 7, offset=2)  # a remote MODIFIED copy
        if (yield from smem.reserve(shared[1])):
            yield from smem.write(shared[1], 9, offset=3)
            yield from ctx.compute(hold)
            yield from smem.release(shared[1])

    platform.add_task(driver)
    platform.add_task(holder)
    report = platform.run()
    assert report.all_pes_finished
    return (responses, [cache.stats for cache in platform.caches],
            report.observables_sha256(), report.cost())


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(["write_back", "write_through"]),
       program=accesses, hold=st.integers(0, 400))
# A scalar right after a buffered io stage, and right after a cache-served
# READ_ARRAY whose io fetch is still pending: the front defers both.
@example(policy="write_back", hold=0, program=[
    access("stage"), access("write"), access("stage"), access("read")])
@example(policy="write_back", hold=0, program=[
    access("read"), access("fetch"), access("read"), access("io_read")])
def test_burst_write_answers_what_transfer_answers(policy, program, hold):
    front = run(policy, program, hold, via_transfer=False)
    request = run(policy, program, hold, via_transfer=True)
    assert front[0] == request[0]  # status, data, burst, cycles per access
    assert front[1:] == request[1:]  # CacheStats, observables, cost


def test_a_hit_builds_no_request_and_enters_no_transfer(monkeypatch):
    """The front really is taken: with request construction and the
    cache's transfer both made to fail, a read hit and a write-back write
    hit still complete."""
    platform = Platform(PlatformBuilder().pes(1).wrapper_memories(1).l1_cache(
        sets=2, ways=2, line_bytes=16, policy="write_back").build())
    seen = []

    def task(ctx):
        cache = platform.caches[0]
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.write(vptr, 5, offset=2)  # miss: the line goes MODIFIED

        def refuse(*_args, **_kwargs):
            raise AssertionError("a hit became a bus request")

        monkeypatch.setattr(l1, "BusRequest", refuse)
        monkeypatch.setattr(cache, "transfer", refuse)
        yield from smem.write(vptr, 6, offset=2)
        seen.append((yield from smem.read(vptr, offset=2)))
        monkeypatch.undo()
        yield from smem.free(vptr)

    platform.add_task(task)
    platform.run()
    assert seen == [6]
    stats = platform.caches[0].stats
    assert stats.hits == 2 and stats.misses == 1
