"""One allocation mirror per platform, and what it means.

A platform with L1 caches or sanitizers keeps one
:class:`~repro.cache.ShadowMap`, kept by one fabric snooper: the coherence
domain and the sanitizer suite read that map, so each served ALLOC / FREE
/ RESERVE / RELEASE is replayed once, and the row an L1 keys its lines by
is the row the race detector keys its words by.

The mirror's meaning, under generated stimulus: two PEs behind write-back
L1s, sanitized, run alloc / free / reserve / release programs over two
memories, on pointers either of them was issued (live, freed, interior or
reissued), so commands are refused as well as served.  The snooper
replays a command as its service window closes and a master's
``port_complete`` follows at once on the bus and the crossbar, so there,
at every ``port_complete``, the mirror's rows of the memory the transfer
addressed — of every memory, on the bus — equal that memory's own rows.
On the mesh the response crosses the network after the window closes, so
other windows close meanwhile: the rows are equal once the run ends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PlatformBuilder
from repro.cache import ShadowMap
from repro.memory import DataType
from repro.soc import Platform
from repro.sw.registry import workload

TOPOLOGIES = {
    "bus": lambda builder: builder,
    "crossbar": lambda builder: builder.crossbar(),
    "mesh": lambda builder: builder.mesh(2, 2),
}


def build(topology, pes):
    builder = TOPOLOGIES[topology](PlatformBuilder().pes(pes)
                                   .wrapper_memories(2))
    return Platform(builder.l1_cache(sets=4, ways=2, line_bytes=16,
                                     policy="write_back").sanitize().build())


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_one_map_replays_each_served_command_once(topology, monkeypatch):
    calls = []
    apply = ShadowMap.apply

    def counting(self, *args):
        calls.append(self)
        return apply(self, *args)

    monkeypatch.setattr(ShadowMap, "apply", counting)
    platform = build(topology, 4)
    for task in workload.create("alloc_churn", platform.config,
                                seed=11).tasks:
        platform.add_task(task)
    assert platform.run().all_pes_finished
    assert len(calls) == 352
    assert set(calls) == {platform.shadow}
    assert (platform.coherence.shadow is platform.check_suite.shadow
            is platform.shadow)


# -- generated programs -----------------------------------------------------------

#: Weighted so that most RELEASEs and FREEs find a live, reserved row.
OPS = ("alloc", "alloc", "reserve", "reserve", "release", "free")
#: A step: its op and memory, the pointer as a pick among the memory's
#: issued vptrs (newest first) and a byte delta (base, or 4 bytes in),
#: and an ALLOC's dim and data type.
steps = st.tuples(st.sampled_from(OPS), st.integers(0, 1),
                  st.integers(0, 2), st.sampled_from([0, 0, 0, 4]),
                  st.integers(1, 6),
                  st.sampled_from([DataType.UINT8, DataType.INT16,
                                   DataType.UINT32]))
programs = st.lists(st.lists(steps, max_size=14), min_size=2, max_size=2)


def table(rows):
    return [(row.vptr, row.dim, row.data_type, row.reserved_by)
            for row in rows]


def mirrored(platform, mem_index):
    return table(platform.shadow.by_base[mem_index].rows)


def held(platform, mem_index):
    return table(platform.memories[mem_index].rows.rows)


def task_of(program, issued):
    """A PE task running ``program``; ``issued`` is every ``(memory,
    vptr)`` either PE was ever issued, shared, in issue order."""
    def task(ctx):
        for op, mem_index, pick, delta, dim, data_type in program:
            smem = ctx.smem(mem_index)
            smem.raise_on_error = False
            if op == "alloc":
                vptr = yield from smem.alloc(dim, data_type)
                if vptr is not None:
                    issued.append((mem_index, vptr))
                continue
            mine = [vptr for mem, vptr in issued if mem == mem_index]
            vptr = mine[-1 - pick % len(mine)] + delta if mine else delta
            yield from getattr(smem, op)(vptr)
        return 0
    return task


@settings(max_examples=25, deadline=None)
@given(programs=programs)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_the_mirror_holds_the_memories_rows(topology, programs):
    platform = build(topology, 2)
    issued, checked = [], []

    def on_port_complete(_port, request, _response):
        region = platform.interconnect.address_map.find_region(
            request.address)
        mem_index = platform.windows.get(region.base) if region else None
        if mem_index is None:
            return
        memories = (range(len(platform.memories)) if topology == "bus"
                    else [mem_index])
        for index in memories:
            assert mirrored(platform, index) == held(platform, index)
        checked.append(request)

    if topology != "mesh":
        platform.probes.subscribe(port_complete=on_port_complete)
    for program in programs:
        platform.add_task(task_of(program, issued))
    assert platform.run().all_pes_finished
    for index in range(len(platform.memories)):
        assert mirrored(platform, index) == held(platform, index)
    assert topology == "mesh" or len(checked) >= sum(map(len, programs))
