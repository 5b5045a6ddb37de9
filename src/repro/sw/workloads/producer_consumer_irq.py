"""Interrupt-driven producer/consumer FIFO (doorbells instead of polling).

Same bounded FIFO protocol as
:mod:`repro.sw.workloads.producer_consumer`, but the two sides never spin
on the control block: each pair owns two interrupt lines — a
*data-available* doorbell the producer rings after publishing a new tail
(and after setting the done flag), and a *space-available* doorbell the
consumer rings after advancing the head.  Doorbells are software raises:
one bus write to the interrupt controller's PENDING register
(:meth:`~repro.sw.task.TaskContext.raise_irq`), which latches until the
peer acknowledges.  The latch is what makes the protocol race-free — a
doorbell rung while the peer is still checking indices is delivered on
its next ``wait_irq`` instead of being lost — and wakeups ride each PE's
persistent controller event, so blocking costs no allocation.
"""

from __future__ import annotations

from typing import Generator, List

from ...memory.protocol import DataType
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext
from .producer_consumer import CTRL_DONE, CTRL_HEAD, CTRL_TAIL, CTRL_WORDS


def make_irq_producer_task(items: List[int], fifo_depth: int, shared: dict,
                           *, data_line: int, space_line: int,
                           memory_index: int = 0):
    """Producer: pushes every item, ringing the data doorbell after each."""
    items = [value & 0xFFFFFFFF for value in items]

    def task(ctx: TaskContext) -> Generator[object, None, int]:
        ctx.enable_irq(space_line)
        smem = ctx.smem(memory_index)
        ctrl_vptr = yield from smem.alloc(CTRL_WORDS, DataType.UINT32)
        data_vptr = yield from smem.alloc(fifo_depth, DataType.UINT32)
        shared.update(ctrl_vptr=ctrl_vptr, data_vptr=data_vptr,
                      depth=fifo_depth, ready=True)
        pushed = 0
        for value in items:
            while True:
                head = yield from smem.read(ctrl_vptr, offset=CTRL_HEAD)
                tail = yield from smem.read(ctrl_vptr, offset=CTRL_TAIL)
                if tail - head < fifo_depth:
                    break
                # Full: sleep until the consumer rings space-available.
                yield from ctx.wait_irq(space_line)
            yield from smem.write(data_vptr, value, offset=tail % fifo_depth)
            while not (yield from smem.try_reserve(ctrl_vptr)):
                yield ctx.poll_interval_cycles * ctx.clock_period
            yield from smem.write(ctrl_vptr, tail + 1, offset=CTRL_TAIL)
            yield from smem.release(ctrl_vptr)
            yield from ctx.raise_irq(data_line)
            pushed += 1
            yield from ctx.compute_ops(alu=4, local=2)
        while not (yield from smem.try_reserve(ctrl_vptr)):
            yield ctx.poll_interval_cycles * ctx.clock_period
        yield from smem.write(ctrl_vptr, 1, offset=CTRL_DONE)
        yield from smem.release(ctrl_vptr)
        # Final ring so a consumer blocked on an empty FIFO sees the flag.
        yield from ctx.raise_irq(data_line)
        ctx.note(f"producer: pushed {pushed} items via doorbell {data_line}")
        return pushed

    return task


def make_irq_consumer_task(shared: dict, *, data_line: int, space_line: int,
                           memory_index: int = 0):
    """Consumer: pops until done, ringing space-available after each pop."""

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        # Enabling before any yield guarantees no producer doorbell is
        # raised while the line is still masked (raises latch anyway, but
        # the enable also makes the very first wait legal).
        ctx.enable_irq(data_line)
        smem = ctx.smem(memory_index)
        while not shared.get("ready"):
            yield from ctx.wait_irq(data_line)
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
                yield from ctx.wait_irq(data_line)
                continue
            value = yield from smem.read(data_vptr, offset=head % depth)
            received.append(value)
            while not (yield from smem.try_reserve(ctrl_vptr)):
                yield ctx.poll_interval_cycles * ctx.clock_period
            yield from smem.write(ctrl_vptr, head + 1, offset=CTRL_HEAD)
            yield from smem.release(ctrl_vptr)
            yield from ctx.raise_irq(space_line)
            yield from ctx.compute_ops(alu=6, local=2)
        yield from smem.free(data_vptr)
        yield from smem.free(ctrl_vptr)
        ctx.note(f"consumer: received {len(received)} items via IRQ")
        return received

    return task


@workload.register("producer_consumer_irq")
def _producer_consumer_irq(config, *, num_items: int = 24, fifo_depth: int = 4,
                           seed: int = 0):
    """Interrupt-driven FIFO pairs: doorbell IRQs replace index polling.

    Pair ``k`` owns line ``2k`` (data-available, producer rings) and line
    ``2k + 1`` (space-available, consumer rings).  Needs a platform with an
    interrupt controller exposing at least ``num_pes`` lines.
    """
    if config.num_pes % 2:
        raise WorkloadError("producer_consumer_irq needs an even number of PEs")
    layout = config.device_layout()
    if layout is None:
        raise WorkloadError(
            "producer_consumer_irq needs an interrupt controller — add "
            ".irq_controller() (or any device) to the platform builder"
        )
    if config.num_pes > layout.controller.config.lines:
        raise WorkloadError(
            f"producer_consumer_irq needs {config.num_pes} interrupt lines, "
            f"controller has {layout.controller.config.lines}"
        )
    tasks: List = []
    expected = {}
    for pair in range(config.num_pes // 2):
        items = [((seed + pair * 13 + i * 7) & 0xFFFFFFFF)
                 for i in range(num_items)]
        shared: dict = {}
        memory_index = pair % config.num_memories
        data_line, space_line = 2 * pair, 2 * pair + 1
        tasks.append(make_irq_producer_task(
            items, fifo_depth, shared, data_line=data_line,
            space_line=space_line, memory_index=memory_index))
        tasks.append(make_irq_consumer_task(
            shared, data_line=data_line, space_line=space_line,
            memory_index=memory_index))
        expected[f"pe{2 * pair + 1}"] = items
    return Workload(
        tasks=tasks,
        checks=[expect_results(lambda: expected,
                                "IRQ-driven FIFO item stream")],
        description=(f"producer_consumer_irq: {num_items} items, "
                     f"depth {fifo_depth}, {config.num_pes // 2} pair(s)"),
    )
