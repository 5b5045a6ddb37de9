"""Producer/consumer workload over a shared-memory FIFO.

Two processing elements communicate through a bounded FIFO whose storage,
head/tail indices and synchronisation flags all live in a dynamic shared
memory.  The reservation bit (the paper's coherence semaphore) guards the
index updates.  This workload exercises fine-grained scalar traffic and the
RESERVE/RELEASE opcodes under contention.
"""

from __future__ import annotations

from typing import Generator, List

from ...memory.protocol import DataType
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext

#: Layout of the FIFO control block (element offsets in a UINT32 allocation).
CTRL_HEAD = 0       # next slot the consumer reads
CTRL_TAIL = 1       # next slot the producer writes
CTRL_DONE = 2       # producer sets to 1 when it has pushed everything
CTRL_WORDS = 4      # control block size (one spare word)


def make_producer_task(items: List[int], fifo_depth: int, shared: dict,
                       memory_index: int = 0):
    """Producer: allocates the FIFO, pushes every item, then signals done."""
    items = [value & 0xFFFFFFFF for value in items]

    def task(ctx: TaskContext) -> Generator[object, None, int]:
        smem = ctx.smem(memory_index)
        ctrl_vptr = yield from smem.alloc(CTRL_WORDS, DataType.UINT32)
        data_vptr = yield from smem.alloc(fifo_depth, DataType.UINT32)
        shared.update(ctrl_vptr=ctrl_vptr, data_vptr=data_vptr,
                      depth=fifo_depth, ready=True)
        pushed = 0
        for value in items:
            # Wait for a free slot.
            while True:
                head = yield from smem.read(ctrl_vptr, offset=CTRL_HEAD)
                tail = yield from smem.read(ctrl_vptr, offset=CTRL_TAIL)
                if tail - head < fifo_depth:
                    break
                yield ctx.poll_interval_cycles * ctx.clock_period
            yield from smem.write(data_vptr, value, offset=tail % fifo_depth)
            # Publish the new tail under the reservation bit.
            while not (yield from smem.try_reserve(ctrl_vptr)):
                yield ctx.poll_interval_cycles * ctx.clock_period
            yield from smem.write(ctrl_vptr, tail + 1, offset=CTRL_TAIL)
            yield from smem.release(ctrl_vptr)
            pushed += 1
            yield from ctx.compute_ops(alu=4, local=2)
        # The done flag lives in the reservation-guarded control block: an
        # unguarded write NACKs when it lands inside the consumer's
        # reserve/release critical section (a race the mesh interconnect's
        # longer round trips expose reliably).
        while not (yield from smem.try_reserve(ctrl_vptr)):
            yield ctx.poll_interval_cycles * ctx.clock_period
        yield from smem.write(ctrl_vptr, 1, offset=CTRL_DONE)
        yield from smem.release(ctrl_vptr)
        ctx.note(f"producer: pushed {pushed} items")
        return pushed

    return task


def make_consumer_task(shared: dict, memory_index: int = 0):
    """Consumer: pops until the producer is done and the FIFO drains."""

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        smem = ctx.smem(memory_index)
        while not shared.get("ready"):
            yield 64 * ctx.clock_period
        ctrl_vptr = shared["ctrl_vptr"]
        data_vptr = shared["data_vptr"]
        depth = shared["depth"]
        received: List[int] = []
        while True:
            head = yield from smem.read(ctrl_vptr, offset=CTRL_HEAD)
            tail = yield from smem.read(ctrl_vptr, offset=CTRL_TAIL)
            if head == tail:
                done = yield from smem.read(ctrl_vptr, offset=CTRL_DONE)
                if done:
                    break
                yield ctx.poll_interval_cycles * ctx.clock_period
                continue
            value = yield from smem.read(data_vptr, offset=head % depth)
            received.append(value)
            while not (yield from smem.try_reserve(ctrl_vptr)):
                yield ctx.poll_interval_cycles * ctx.clock_period
            yield from smem.write(ctrl_vptr, head + 1, offset=CTRL_HEAD)
            yield from smem.release(ctrl_vptr)
            yield from ctx.compute_ops(alu=6, local=2)
        # The consumer owns the tear-down of the shared structures.
        yield from smem.free(data_vptr)
        yield from smem.free(ctrl_vptr)
        ctx.note(f"consumer: received {len(received)} items")
        return received

    return task


@workload.register("producer_consumer")
def _producer_consumer(config, *, num_items: int = 24, fifo_depth: int = 4,
                       seed: int = 0):
    """Producer/consumer FIFO pairs: PE(2k) feeds PE(2k+1)."""
    if config.num_pes % 2:
        raise WorkloadError("producer_consumer needs an even number of PEs")
    tasks: List = []
    expected = {}
    for pair in range(config.num_pes // 2):
        items = [((seed + pair * 13 + i * 7) & 0xFFFFFFFF)
                 for i in range(num_items)]
        shared: dict = {}
        memory_index = pair % config.num_memories
        tasks.append(make_producer_task(items, fifo_depth, shared,
                                        memory_index=memory_index))
        tasks.append(make_consumer_task(shared, memory_index=memory_index))
        expected[f"pe{2 * pair + 1}"] = items
    return Workload(
        tasks=tasks,
        checks=[expect_results(lambda: expected, "FIFO item stream")],
        description=(f"producer_consumer: {num_items} items, "
                     f"depth {fifo_depth}, {config.num_pes // 2} pair(s)"),
    )
