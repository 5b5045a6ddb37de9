"""Scalar L1 path against a reference model, and the hit probe on its own.

*Differential* (the SNIPPETS.md coreblocks idiom: typed wrapper, random
stimulus, simple model): seeded random programs of alloc / scalar read /
scalar write / write_array / read_array / reserve-release / free run on two
PEs sharing one memory — flat, behind write-back L1s and behind
write-through L1s.  Every value read must equal a dict-backed model of the
program, the per-PE results must equal the uncached run's, and every cache
must account for each scalar call exactly once.

*Probe*: :meth:`L1Cache.scalar_hit`, the one place a scalar access is
decided, is a plain method, so its hit test, its guards and the located
row a miss leaves for the request path are checked on a hand-built line
directory with no simulator at all.
"""

import dataclasses
import random

import pytest

from repro.api import PlatformBuilder
from repro.cache import (CacheConfig, CacheGeometry, CacheLine,
                         CoherenceDomain, L1Cache, MSIState, ShadowMap,
                         SharedAllocation, WritePolicy)
from repro.memory import (REG_COMMAND, REG_STATUS, DataType, MemCommand,
                          MemOpcode)
from repro.soc import Platform
from repro.wrapper.errors import ApiError

SETS, WAYS, LINE_BYTES = 2, 2, 16  # 64 bytes: evictions are routine

#: data type -> (element bytes, signed); floats are not scalar-cached data.
TYPES = {
    DataType.UINT8: (1, False), DataType.INT8: (1, True),
    DataType.UINT16: (2, False), DataType.INT16: (2, True),
    DataType.UINT32: (4, False), DataType.INT32: (4, True),
}


def model_word(value, data_type):
    """What the memory returns for a stored ``value`` (independent of
    ``repro.cache.lines.canonical_word``): truncate, sign-extend, mask."""
    size, signed = TYPES[data_type]
    bits = 8 * size
    value &= (1 << bits) - 1
    if signed and value >> (bits - 1):
        value -= 1 << bits
    return value & 0xFFFFFFFF


# -- random programs ----------------------------------------------------------------
def random_program(rng, steps):
    """A list of abstract operations over numbered allocation slots.

    Generated ahead of the run from the seed alone, so the same program is
    replayed on every platform variant; operands are element positions
    (``base`` picks an interior pointer, ``offset`` counts on from it).
    """
    program, live, next_slot = [], {}, 0  # live: slot -> [dim, reserved]
    for _ in range(steps):
        kind = rng.choice(("alloc", "read", "read", "read", "write", "write",
                           "write_array", "read_array", "reserve", "free",
                           "stray"))
        if kind == "alloc" or not live:
            if len(live) < 4:
                dim = rng.randint(1, 24)
                program.append(("alloc", next_slot, dim,
                                rng.choice(list(TYPES))))
                live[next_slot] = [dim, False]
                next_slot += 1
            continue
        slot = rng.choice(sorted(live))
        dim, reserved = live[slot]
        base = rng.randrange(dim)
        if kind in ("read", "write"):
            offset = rng.randrange(dim - base)
            value = rng.getrandbits(32)
            program.append((kind, slot, base, offset, value))
        elif kind in ("read_array", "write_array"):
            offset = rng.randrange(dim - base)
            count = rng.randint(1, dim - base - offset)
            values = [rng.getrandbits(32) for _ in range(count)]
            program.append((kind, slot, base, offset, values))
        elif kind == "reserve":
            program.append(("release" if reserved else "reserve", slot))
            live[slot][1] = not reserved
        elif kind == "stray":  # one element past the end: the wrapper refuses
            program.append(("stray", slot, base, dim - base))
        else:
            if reserved:
                program.append(("release", slot))
            program.append(("free", slot))
            del live[slot]
    return program


def make_task(program, counters):
    """Replay ``program`` through the API, checking it against the model."""

    def task(ctx):
        smem = ctx.smem(0)
        vptrs, types, model, observed = {}, {}, {}, []
        for op in program:
            kind, slot = op[0], op[1]
            if kind == "alloc":
                _kind, _slot, dim, data_type = op
                vptrs[slot] = yield from smem.alloc(dim, data_type)
                types[slot] = data_type
                model[slot] = [0] * dim  # calloc
                continue
            data_type = types[slot]
            size = TYPES[data_type][0]
            if kind in ("reserve", "release"):
                assert (yield from getattr(smem, kind)(vptrs[slot]))
                continue
            if kind == "free":
                assert (yield from smem.free(vptrs.pop(slot)))
                del model[slot]
                continue
            pointer = vptrs[slot] + op[2] * size  # interior when base > 0
            first = op[2] + op[3]
            if kind == "read":
                counters["scalar"] += 1
                value = yield from smem.read(pointer, offset=op[3])
                assert value == model[slot][first], (op, value)
                observed.append(value)
            elif kind == "write":
                counters["scalar"] += 1
                assert (yield from smem.write(pointer, op[4], offset=op[3]))
                model[slot][first] = model_word(op[4], data_type)
            elif kind == "stray":
                counters["scalar"] += 1
                counters["stray"] += 1
                # (The status word itself is per memory, not per master:
                # the other PE's next command may overwrite it first.)
                with pytest.raises(ApiError):
                    yield from smem.read(pointer, offset=op[3])
            elif kind == "write_array":
                assert (yield from smem.write_array(pointer, op[4],
                                                    offset=op[3]))
                model[slot][first:first + len(op[4])] = [
                    model_word(value, data_type) for value in op[4]]
            else:
                values = yield from smem.read_array(pointer, len(op[4]),
                                                    offset=op[3])
                assert values == model[slot][first:first + len(op[4])], op
                observed.extend(values)
        # What is still live is read back whole: the final memory image.
        for slot in sorted(model):
            image = yield from smem.read_array(vptrs[slot], len(model[slot]))
            assert image == model[slot], slot
            observed.extend(image)
        return observed

    return task


def run_programs(programs, policy, crossbar):
    builder = PlatformBuilder().pes(len(programs)).wrapper_memories(1)
    if crossbar:
        builder = builder.crossbar()
    if policy is not None:
        builder = builder.l1_cache(sets=SETS, ways=WAYS,
                                   line_bytes=LINE_BYTES, policy=policy)
    platform = Platform(builder.build())
    counters = [{"scalar": 0, "stray": 0} for _ in programs]
    for program, counter in zip(programs, counters):
        platform.add_task(make_task(program, counter))
    report = platform.run()
    return platform, report, counters


@pytest.mark.parametrize("seed", range(10))
def test_random_programs_match_the_model_and_the_uncached_run(seed):
    rng = random.Random(seed)
    programs = [random_program(rng, 160) for _pe in range(2)]
    crossbar = bool(seed % 2)
    _flat, flat_report, _counters = run_programs(programs, None, crossbar)
    assert all(flat_report.results[f"pe{pe}"] for pe in range(2))
    for policy in ("write_back", "write_through"):
        platform, report, counters = run_programs(programs, policy, crossbar)
        assert report.results == flat_report.results, policy
        for cache, counter in zip(platform.caches, counters):
            stats = cache.stats
            # Each scalar call is counted exactly once: served or filled by
            # the cache (hit / miss), sent to memory by policy or under the
            # PE's own reservation (write_through), or not a live element
            # (uncached).  Fallbacks are misses that could not stay cached.
            assert (stats.hits + stats.misses + stats.write_throughs
                    == counter["scalar"] - stats.uncached_ops), (policy, stats)
            assert stats.uncached_ops == counter["stray"]
            assert stats.fallbacks <= stats.misses
            assert stats.reservation_stalls == 0  # allocations are private
            assert len(cache.lines) <= SETS * WAYS
            for ways in cache.lines.sets:
                assert len(ways) <= WAYS
        if policy == "write_back":
            # The tiny cache really was exercised on both sides of the probe.
            assert all(cache.stats.hits and cache.stats.misses
                       and cache.stats.evictions for cache in platform.caches)


# -- the probe, with no simulator ----------------------------------------------------------
class StubPort:
    """The only thing a cache needs from its port until it misses."""

    master_id = 0
    name = "stub"


def make_cache(policy=WritePolicy.WRITE_BACK):
    windows = {0x1000_0000: 0, 0x2000_0000: 1}
    domain = CoherenceDomain(ShadowMap(windows))
    config = CacheConfig(geometry=CacheGeometry(SETS, WAYS, LINE_BYTES),
                         policy=policy, hit_cycles=1)
    cache = L1Cache("l1", config, StubPort(), domain, windows,
                    clock_period=10)
    return cache, domain


#: Memory index -> its command register in :func:`make_cache`'s windows.
COMMAND = {0: 0x1000_0000 + REG_COMMAND, 1: 0x2000_0000 + REG_COMMAND}


def install(cache, alloc, line_no, words, state=MSIState.SHARED):
    """Hand-build one resident line of ``alloc`` holding ``words`` (``None``
    leaves the slot absent)."""
    first, count = cache.lines.span(alloc, line_no)
    line = CacheLine(alloc, line_no, first, count)
    for slot, word in enumerate(words):
        if word is not None:
            line.words[slot] = word
            line.present[slot] = True
    line.state = state
    cache.lines.ways_of(line_no).insert(0, line)
    return line


def replay(domain, opcode, master_id=0, value=0, **fields):
    """Replay one command completed on memory 0 into the domain's shadow
    map, as the platform's snooper would."""
    return domain.shadow.apply(0, MemCommand(opcode, 0, **fields), master_id,
                               value)


def alloc_at(domain, vptr, dim, data_type):
    return replay(domain, MemOpcode.ALLOC, value=vptr, dim=dim,
                  data_type=data_type)


def read(vptr, offset=0):
    return False, vptr, offset, 0


def write(vptr, value, offset=0):
    return True, vptr, offset, value


def probe(cache, access, mem_index):
    """``cache.scalar_hit`` of a ``read`` / ``write`` access on
    ``mem_index``, as ``(word, located)``: on a miss, ``located`` is the
    ``(allocation, index)`` it left for the request path (``None`` for no
    live element); a hit leaves nothing, and ``located`` is ``None``."""
    store, vptr, offset, data = access
    cache._missed = None
    word = cache.scalar_hit(COMMAND[mem_index], store, mem_index, vptr,
                            offset, data)
    if word is not None:
        assert cache._missed is None
        return word, None
    alloc, index = cache._missed[3:5]
    return None, (None if alloc is None else (alloc, index))


class TestProbe:
    def test_present_slot_is_a_read_hit(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0x40, 8, DataType.UINT32)
        install(cache, alloc, 5, [None, None, 77, None])  # bytes 0x50-0x5F
        assert probe(cache, read(0x40, offset=6), 0) == (77, None)
        assert cache.port.hit_wait == 10  # hit_cycles of the clock period
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_interior_pointer_resolves_to_the_same_slot(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0x40, 8, DataType.UINT32)
        install(cache, alloc, 5, [None, None, 77, None])
        assert probe(cache, read(0x40 + 4 * 4, offset=2), 0) == (77, None)

    def test_absent_slot_and_absent_line_miss_without_counting(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0x40, 8, DataType.UINT32)
        install(cache, alloc, 5, [None, None, 77, None])
        assert probe(cache, read(0x40, offset=5), 0) == (None, (alloc, 5))
        assert probe(cache, read(0x40, offset=0), 0) == (None, (alloc, 0))
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_access_outside_every_allocation_is_not_located(self):
        cache, domain = make_cache()
        alloc_at(domain, 0x40, 8, DataType.UINT32)
        assert probe(cache, read(0x40, offset=8), 0) == (None, None)
        assert probe(cache, read(0x10), 0) == (None, None)
        assert probe(cache, read(0x40), 1) == (None, None)  # other memory

    def test_write_to_a_modified_line_stores_the_canonical_word(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0, 8, DataType.INT16)
        line = install(cache, alloc, 0, [1] * 8, state=MSIState.MODIFIED)
        assert probe(cache, write(0, 0x1_8000, offset=3), 0) == (0, None)
        assert line.words[3] == 0xFFFF8000  # truncated, sign-extended
        assert line.present[3] and line.dirty[3]
        assert line.dirty.count(True) == 1
        assert cache.stats.hits == 1
        assert probe(cache, read(0, offset=3), 0)[0] == 0xFFFF8000

    def test_write_to_a_shared_line_leaves_it_alone(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0, 4, DataType.UINT32)
        line = install(cache, alloc, 0, [1, 2, 3, 4])
        assert probe(cache, write(0, 9, offset=1), 0) == (None, (alloc, 1))
        assert line.words == [1, 2, 3, 4] and not line.has_dirty()
        assert line.state is MSIState.SHARED and cache.stats.hits == 0

    def test_write_through_cache_never_stores_in_the_probe(self):
        cache, domain = make_cache(WritePolicy.WRITE_THROUGH)
        alloc = alloc_at(domain, 0, 4, DataType.UINT32)
        line = install(cache, alloc, 0, [1, 2, 3, 4], state=MSIState.MODIFIED)
        assert probe(cache, write(0, 9), 0) == (None, (alloc, 0))
        assert line.words[0] == 1
        assert probe(cache, read(0), 0)[0] == 1  # reads still hit

    @pytest.mark.parametrize("holder", [0, 1], ids=["own", "foreign"])
    def test_write_to_a_reserved_allocation_is_left_to_the_slow_path(
            self, holder):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0, 8, DataType.UINT32)
        other = install(cache, alloc, 1, [5, 6, 7, 8])
        line = install(cache, alloc, 0, [1, 2, 3, 4], state=MSIState.MODIFIED)
        install(cache, alloc_at(domain, 0x40, 4, DataType.UINT32), 4, [0] * 4)
        replay(domain, MemOpcode.RESERVE, holder, vptr=alloc.vptr)
        ways = cache.lines.sets[0]
        order = list(ways)
        assert probe(cache, write(0, 9, offset=4), 0) == (None, (alloc, 4))
        assert probe(cache, write(0, 9, offset=0), 0) == (None, (alloc, 0))
        assert ways == order  # no lookup: the LRU order did not move
        assert line.words[0] == 1 and other.words[0] == 5
        assert probe(cache, read(0, offset=4), 0)[0] == 5  # reads hit
        replay(domain, MemOpcode.RELEASE, holder, vptr=alloc.vptr)
        assert probe(cache, write(0, 9), 0)[0] == 0 and line.words[0] == 9

    def test_stale_generation_after_vptr_reuse_does_not_hit(self):
        cache, domain = make_cache()
        old = alloc_at(domain, 0, 4, DataType.UINT32)
        replay(domain, MemOpcode.FREE, vptr=old.vptr)
        new = alloc_at(domain, 0, 4, DataType.UINT32)  # same Vptr range
        assert new.uid != old.uid and new.vptr == old.vptr
        # A line of the dead generation (the domain would have dropped it).
        install(cache, old, 0, [1, 2, 3, 4], state=MSIState.MODIFIED)
        assert probe(cache, read(0, offset=2), 0) == (None, (new, 2))
        assert probe(cache, write(0, 9, offset=2), 0) == (None, (new, 2))
        install(cache, new, 0, [0, 0, 8, 0])
        assert probe(cache, read(0, offset=2), 0)[0] == 8

    def test_a_hit_moves_the_line_to_mru(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0, 16, DataType.UINT32)
        first = install(cache, alloc, 0, [1, 2, 3, 4])
        second = install(cache, alloc, 2, [5, 6, 7, 8])  # same set, now MRU
        assert cache.lines.sets[0] == [second, first]
        assert probe(cache, read(0, offset=1), 0)[0] == 2
        assert cache.lines.sets[0] == [first, second]

    def test_scalar_hit_answers_only_its_own_window_with_nothing_pending(self):
        cache, domain = make_cache()
        alloc = alloc_at(domain, 0, 4, DataType.UINT32)
        install(cache, alloc, 0, [1, 2, 3, 4])
        command = 0x1000_0000 + REG_COMMAND
        assert cache.scalar_hit(command, False, 0, 0, 2, 0) == 3
        assert cache.scalar_hit(command, True, 0, 0, 2, 9) is None  # SHARED
        assert cache.scalar_hit(command, False, 1, 0, 2, 0) is None  # sm_addr
        assert cache.scalar_hit(0x1000_0000 + REG_STATUS, False, 0, 0, 2,
                                0) is None
        cache._pending_stage = (0, None)
        assert cache.scalar_hit(command, False, 0, 0, 2, 0) is None
        cache._pending_stage, cache._pending_fetch = None, (0, 2, [5, 6])
        assert cache.scalar_hit(command, False, 0, 0, 2, 0) is None
        assert cache.stats.hits == 1

    def test_a_write_through_store_looks_up_no_line(self):
        cache, domain = make_cache(WritePolicy.WRITE_THROUGH)
        alloc = alloc_at(domain, 0, 16, DataType.UINT32)
        line = install(cache, alloc, 0, [1, 2, 3, 4], state=MSIState.MODIFIED)
        newer = install(cache, alloc, 2, [5, 6, 7, 8])  # same set, now MRU
        command = 0x1000_0000 + REG_COMMAND
        assert cache.scalar_hit(command, True, 0, 0, 2, 9) is None
        # Such a store always goes to memory: it is located once, for the
        # request path, and no line is looked up (the LRU order holds).
        assert cache._missed[3:5] == (alloc, 2)
        assert cache.lines.sets[0] == [newer, line] and line.words[2] == 3
        assert cache.scalar_hit(command, False, 0, 0, 2, 0) == 3
        assert cache.lines.sets[0] == [line, newer] and cache.stats.hits == 1


def test_shared_allocation_geometry_is_fixed_at_construction():
    alloc = SharedAllocation(uid=1, mem_index=0, vptr=0x20, dim=5,
                             data_type=DataType.INT16)
    assert (alloc.element_size, alloc.size_bytes, alloc.end_vptr) == (2, 10,
                                                                      0x2A)
    # Fields, not a property chain.
    assert {"element_size", "size_bytes", "end_vptr"} <= {
        item.name for item in dataclasses.fields(alloc)}
    assert alloc.element_byte(3) == 0x26
