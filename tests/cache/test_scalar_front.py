"""The API's L1 hit front against the cache's request path.

On a cached platform :class:`~repro.wrapper.api.SharedMemoryAPI` answers a
scalar ``read`` / ``write`` that hits from its own frame, through the
port's ``scalar_hit`` (:meth:`L1Cache.scalar_hit`, which the request path
reuses); everything else reaches :meth:`L1Cache.transfer` as a command
burst.  Both must be the same cache.  Generated programs drive PE
0 on one platform with the front and on its twin with the front switched
off, so every scalar goes as a raw command burst through
``CachedPort.transfer``: scalar reads and writes through APIs whose
``sm_addr`` or window is wrong, out-of-bounds and interior pointers, and
raw bursts between them (short ones, unknown opcodes, NOP, a cache-served
READ_ARRAY whose io fetch is left pending, an io stage left buffered,
RESERVE / RELEASE), while a second PE holds a reservation the writes stall
behind.  Return values, cache counters, ``observables_sha256()`` and
``cost()`` must all agree.

A hit is invisible to the fabric: it fires no ``port_issue`` or
``port_complete`` probe and adds no transaction, and an API on a plain
:class:`~repro.fabric.MasterPort` never takes the hit path.
"""

from hypothesis import example, given, settings, strategies as st

import repro.cache.l1 as l1
import repro.fabric.port as fabric_port
from repro.api import PlatformBuilder
from repro.fabric import BusOp, BusRequest
from repro.memory import IO_ARRAY_BASE, REG_COMMAND, REG_STATUS, DataType, MemOpcode
from repro.soc import Platform
from repro.wrapper import SharedMemoryAPI

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
    # burst length: None is the API's own well-formed command
    st.sampled_from([None] * 8 + [0, 1, 2, 3, 4, 6]),
    st.sampled_from(["own"] * 8 + ["other", "bogus"]),  # sm_addr word
    st.sampled_from(["command"] * 8 + ["other", "status"]),  # register
), min_size=4, max_size=40)


def access(kind, slot=0, base=0, offset=1, data=0x1234):
    """A well-formed generated access, for the pinned examples."""
    return kind, slot, base, offset, data, None, "own", "command"


def target(access, vptrs, bases):
    """``(address, sm_addr, vptr)`` of one generated access."""
    kind, slot, base, _offset, _data, _length, sm, register = access
    mem, data_type, _dim = SLOTS[slot]
    address = {"command": bases[mem] + REG_COMMAND,
               "other": bases[1 - mem] + REG_COMMAND,
               "status": bases[mem] + REG_STATUS}[register]
    sm_addr = {"own": mem, "other": 1 - mem, "bogus": 7}[sm]
    return address, sm_addr, vptrs[slot] + base * SIZES[data_type]


def raw_words(access, vptrs, bases):
    """``(address, words)`` of an access sent as a raw burst."""
    kind, slot, _base, offset, data, length, _sm, _register = access
    if kind == "stage":
        return bases[SLOTS[slot][0]] + IO_ARRAY_BASE, [
            (data + step) & 0xFFFFFFFF for step in range(max(1, length or 2))]
    address, sm_addr, vptr = target(access, vptrs, bases)
    words = {"read": [vptr, offset], "write": [vptr, offset, data],
             "unknown": [vptr, offset, data], "nop": [],
             "fetch": [vptr, offset, 2], "reserve": [vptrs[slot]],
             "release": [vptrs[slot]]}[kind]
    words = [int(OPCODES[kind]), sm_addr] + words
    if length is not None:
        words = (words + [data])[:length]
    return address, [word & 0xFFFFFFFF for word in words]


def without_front(api):
    """``api`` sending every scalar as a command burst, as on a plain port."""
    api._scalar_hit = None
    return api


def run(policy, program, hold, front):
    """Drive ``program`` from PE 0, with or without the hit front."""
    platform = Platform(PlatformBuilder().pes(2).wrapper_memories(2).l1_cache(
        sets=2, ways=2, line_bytes=16, policy=policy).build())
    shared, results = {}, []
    bases = [platform.config.memory_base(mem) for mem in range(2)]
    keep = (lambda api: api) if front else without_front

    def driver(ctx):
        apis = [keep(ctx.smem(mem)) for mem in range(2)]
        for mem, data_type, dim in SLOTS:
            shared[len(shared)] = yield from apis[mem].alloc(dim, data_type)
        for slot, (mem, _type, _dim) in enumerate(SLOTS):
            yield from apis[mem].write(shared[slot], slot + 1, offset=1)
            yield from apis[mem].read(shared[slot], offset=5)
        port, scalars = ctx.port, {}
        for access in program:
            kind, slot, _base, offset, data, length = access[:6]
            if kind == "io_read":  # what a READ_ARRAY's io fetch reads
                results.append((yield from port.burst_read(
                    bases[SLOTS[slot][0]] + IO_ARRAY_BASE, 2)))
            elif kind in ("read", "write") and length is None:
                address, sm_addr, vptr = target(access, shared, bases)
                api = scalars.get((address, sm_addr))
                if api is None:
                    api = scalars[address, sm_addr] = keep(SharedMemoryAPI(
                        port, address - REG_COMMAND, sm_addr,
                        raise_on_error=False, tag_prefix="pe0.smem"))
                if kind == "read":
                    value = yield from api.read(vptr, offset=offset)
                else:
                    value = yield from api.write(vptr, data, offset=offset)
                results.append((value, api.last_status))
            else:
                address, words = raw_words(access, shared, bases)
                results.append((yield from port.transfer(BusRequest(
                    port.master_id, BusOp.WRITE, address, burst_data=words))))

    def holder(ctx):
        smem = keep(ctx.smem(0))
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
    return (results, [cache.stats for cache in platform.caches],
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
# A read through an API whose sm_addr names the other memory, where a line
# of the same vptr is resident: only the wrapper may answer it.
@example(policy="write_back", hold=0, program=[
    ("read", 2, 0, 1, 0, None, "other", "command")])
def test_the_api_front_answers_what_transfer_answers(policy, program, hold):
    front = run(policy, program, hold, front=True)
    request = run(policy, program, hold, front=False)
    assert front[0] == request[0]  # return values and responses per access
    assert front[1:] == request[1:]  # CacheStats, observables, cost


def test_a_hit_builds_no_request_and_enters_no_transfer(monkeypatch):
    """The front really is taken: with request and response construction
    and the port's transfer all made to fail, a read hit and a write-back
    write hit still complete, each in the hit latency."""
    platform = Platform(PlatformBuilder().pes(1).wrapper_memories(1).l1_cache(
        sets=2, ways=2, line_bytes=16, policy="write_back").build())
    now = platform.interconnect.sim_now
    seen, waits = [], []

    def task(ctx):
        cache = platform.caches[0]
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.write(vptr, 5, offset=2)  # miss: the line goes MODIFIED

        def refuse(*_args, **_kwargs):
            raise AssertionError("a hit became a bus request")

        monkeypatch.setattr(fabric_port, "BusRequest", refuse)
        monkeypatch.setattr(l1, "BusResponse", refuse)
        monkeypatch.setattr(cache.port, "transfer", refuse)
        began = now()
        yield from smem.write(vptr, 6, offset=2)
        waits.append(now() - began)
        seen.append((yield from smem.read(vptr, offset=2)))
        waits.append(now() - began)
        monkeypatch.undo()
        yield from smem.free(vptr)

    platform.add_task(task)
    platform.run()
    hit_wait = platform.caches[0].port.hit_wait
    assert seen == [6] and waits == [hit_wait, 2 * hit_wait]
    stats = platform.caches[0].stats
    assert stats.hits == 2 and stats.misses == 1


HITS = 64


def fabric_traffic(builder):
    """Port probes fired and fabric transactions added by ``HITS`` reads and
    ``HITS`` writes of one warm line, and the PE's API."""
    platform = Platform(builder.build())
    fired = {"port_issue": 0, "port_complete": 0}

    def count(point):
        def subscriber(*_args):
            fired[point] += 1
        return subscriber

    platform.probes.subscribe(**{point: count(point) for point in fired})
    phase, apis = {}, []

    def task(ctx):
        smem = ctx.smem(0)
        apis.append(smem)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.write(vptr, 1, offset=0)  # the line goes MODIFIED
        before = (dict(fired), platform.interconnect.stats.transactions)
        for step in range(HITS):
            yield from smem.write(vptr, step, offset=step % 4)
            assert (yield from smem.read(vptr, offset=step % 4)) == step
        after = (dict(fired), platform.interconnect.stats.transactions)
        phase["probes"] = {point: after[0][point] - before[0][point]
                           for point in fired}
        phase["transactions"] = after[1] - before[1]
        yield from smem.free(vptr)

    platform.add_task(task)
    assert platform.run().all_pes_finished
    return phase, apis[0], platform


def test_a_hit_fires_no_port_probe_and_adds_no_fabric_transaction():
    phase, smem, platform = fabric_traffic(
        PlatformBuilder().pes(1).wrapper_memories(1).l1_cache(
            sets=2, ways=2, line_bytes=16, policy="write_back"))
    assert phase == {"probes": {"port_issue": 0, "port_complete": 0},
                     "transactions": 0}
    assert platform.caches[0].stats.hits == 2 * HITS
    assert smem._scalar_hit is not None


def test_an_api_on_a_plain_master_port_never_takes_the_hit_path():
    phase, smem, _platform = fabric_traffic(
        PlatformBuilder().pes(1).wrapper_memories(1))
    assert smem.port.scalar_hit is None and smem._scalar_hit is None
    every_access = 2 * HITS
    assert phase == {"probes": {"port_issue": every_access,
                                "port_complete": every_access},
                     "transactions": every_access}
