"""Sanitizer stress workloads: synchronization idioms, clean and mutated.

Three handoff patterns, each shipped in a *clean* form (zero sanitizer
findings on every topology) and with seeded single-fault *mutations* that
the :mod:`repro.check` sanitizers must catch:

* **locked handoff** — producer fills a buffer and publishes a flag inside
  a reserve/release critical section; consumer polls ``try_reserve``.
  Mutation ``"drop_release"`` removes the producer's release: the
  reservation leaks (reported as a lock leak at end of simulation) and
  the consumer's bounded poll gives up empty-handed.
* **IRQ doorbell handoff** — producer fills a buffer and rings a software
  doorbell; consumer blocks in ``wait_irq``.  Mutation
  ``"drop_doorbell"`` removes the raise: the consumer falls back to a
  fixed timed delay and reads anyway — a deterministic happens-before
  data race.
* **DMA copy** — the PE programs a DMA engine and waits for the
  completion interrupt before reading the destination.  Mutation
  ``"drop_wait"`` skips the wait: the PE's read-back races the engine's
  in-flight writes.

The mutations model the real bug each sanitizer exists for, so they
double as the repo's planted-bug corpus for negative tests.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ...dev.dma import DmaDriver
from ...memory.protocol import DataType
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext

#: Locked-handoff control block layout (UINT32 elements).
HANDOFF_FLAG = 0     # 1 once the payload is published
HANDOFF_WORDS = 2    # control block size (one spare word)

#: How many try_reserve attempts the locked-handoff consumer makes before
#: giving up (bounds the simulation when the producer leaks the lock).
MAX_POLL_ATTEMPTS = 400

#: Cycles the mutated IRQ consumer sleeps instead of waiting for the
#: doorbell (long enough that the producer's writes are in flight or done,
#: which is exactly what makes the unsynchronized read a race).
BLIND_WAIT_CYCLES = 64

_MUTATIONS = {
    "locked": (None, "drop_release"),
    "irq": (None, "drop_doorbell"),
    "dma": (None, "drop_wait"),
}


def check_mutation(family: str, mutate: Optional[str]) -> Optional[str]:
    """Validate ``mutate`` for a stress ``family``; returns it unchanged."""
    allowed = _MUTATIONS[family]
    if mutate not in allowed:
        raise ValueError(
            f"unknown {family} stress mutation {mutate!r}; "
            f"use one of {allowed}")
    return mutate


# -- locked handoff ---------------------------------------------------------------
def make_locked_producer_task(payload: List[int], shared: dict,
                              memory_index: int = 0,
                              mutate: Optional[str] = None):
    """Producer: publish ``payload`` under the reservation bit."""
    check_mutation("locked", mutate)
    payload = [value & 0xFFFFFFFF for value in payload]

    def task(ctx: TaskContext) -> Generator[object, None, int]:
        smem = ctx.smem(memory_index)
        ctrl_vptr = yield from smem.alloc(HANDOFF_WORDS, DataType.UINT32)
        data_vptr = yield from smem.alloc(len(payload), DataType.UINT32)
        while not (yield from smem.try_reserve(ctrl_vptr)):
            yield ctx.poll_interval_cycles * ctx.clock_period
        shared.update(ctrl_vptr=ctrl_vptr, data_vptr=data_vptr,
                      words=len(payload), ready=True)
        yield from smem.write_array(data_vptr, payload)
        yield from smem.write(ctrl_vptr, 1, offset=HANDOFF_FLAG)
        if mutate != "drop_release":
            yield from smem.release(ctrl_vptr)
        ctx.note(f"producer: published {len(payload)} words")
        return len(payload)

    return task


def make_locked_consumer_task(shared: dict, memory_index: int = 0):
    """Consumer: bounded ``try_reserve`` poll, then read the payload."""

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        smem = ctx.smem(memory_index)
        while not shared.get("ready"):
            yield 16 * ctx.clock_period
        ctrl_vptr = shared["ctrl_vptr"]
        data_vptr = shared["data_vptr"]
        words = shared["words"]
        for _ in range(MAX_POLL_ATTEMPTS):
            if (yield from smem.try_reserve(ctrl_vptr)):
                flag = yield from smem.read(ctrl_vptr, offset=HANDOFF_FLAG)
                if flag:
                    received = yield from smem.read_array(data_vptr, words)
                    yield from smem.release(ctrl_vptr)
                    ctx.note(f"consumer: received {len(received)} words")
                    return received
                yield from smem.release(ctrl_vptr)
            yield ctx.poll_interval_cycles * ctx.clock_period
        ctx.note("consumer: gave up (lock never became available)")
        return []

    return task


# -- IRQ doorbell handoff ---------------------------------------------------------
def make_doorbell_producer_task(payload: List[int], shared: dict, line: int,
                                memory_index: int = 0,
                                mutate: Optional[str] = None):
    """Producer: publish ``payload``, then ring doorbell ``line``."""
    check_mutation("irq", mutate)
    payload = [value & 0xFFFFFFFF for value in payload]

    def task(ctx: TaskContext) -> Generator[object, None, int]:
        smem = ctx.smem(memory_index)
        data_vptr = yield from smem.alloc(len(payload), DataType.UINT32)
        shared.update(data_vptr=data_vptr, words=len(payload), ready=True)
        yield from smem.write_array(data_vptr, payload)
        if mutate != "drop_doorbell":
            yield from ctx.raise_irq(line)
        ctx.note(f"producer: published {len(payload)} words on line {line}")
        return len(payload)

    return task


def make_doorbell_consumer_task(shared: dict, line: int,
                                memory_index: int = 0,
                                mutate: Optional[str] = None):
    """Consumer: wait for the doorbell IRQ, then read the payload.

    Under ``"drop_doorbell"`` the producer never rings, so the consumer
    sleeps a fixed delay and reads blind — the planted data race.
    """
    check_mutation("irq", mutate)

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        smem = ctx.smem(memory_index)
        ctx.enable_irq(line)
        while not shared.get("ready"):
            yield 16 * ctx.clock_period
        if mutate != "drop_doorbell":
            yield from ctx.wait_irq(line)
        else:
            yield BLIND_WAIT_CYCLES * ctx.clock_period
        received = yield from smem.read_array(shared["data_vptr"],
                                              shared["words"])
        ctx.note(f"consumer: received {len(received)} words")
        return received

    return task


# -- DMA copy ---------------------------------------------------------------------
def make_dma_stress_task(data: List[int], *, src_memory: int, dst_memory: int,
                         engine_index: int = 0,
                         mutate: Optional[str] = None):
    """One PE's DMA copy with completion-wait (or the mutated blind read)."""
    check_mutation("dma", mutate)
    data = [value & 0xFFFFFFFF for value in data]

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        src = ctx.smem(src_memory)
        dst = ctx.smem(dst_memory)
        src_vptr = yield from src.alloc(len(data), DataType.UINT32)
        dst_vptr = yield from dst.alloc(len(data), DataType.UINT32)
        yield from src.write_array(src_vptr, data)
        dma = DmaDriver(ctx, engine_index)
        yield from dma.flush(src, src_vptr)
        yield from dma.start(src_memory, src_vptr, dst_memory, dst_vptr,
                             len(data))
        if mutate != "drop_wait":
            ok = yield from dma.wait()
            if not ok:
                ctx.note("dma transfer failed")
                return []
        else:
            # A token delay so the engine is mid-transfer, not unstarted.
            yield 4 * ctx.clock_period
        result = yield from dst.read_array(dst_vptr, len(data))
        return result

    return task


@workload.register("stress_locked_handoff")
def _stress_locked_handoff(config, *, words: int = 32, seed: int = 0,
                           mutate: str = None):
    """Reserve/release-guarded buffer handoff per PE pair (sanitizer stress).

    Clean runs are race- and leak-free on every topology; the seeded
    mutation ``mutate="drop_release"`` removes the producer's release,
    which the sanitizers report as a lock leak.
    """
    if config.num_pes % 2:
        raise WorkloadError("stress_locked_handoff needs an even PE count")
    tasks: List = []
    expected = {}
    for pair in range(config.num_pes // 2):
        payload = [((seed + pair * 29 + i * 3) & 0xFFFFFFFF)
                   for i in range(words)]
        shared: dict = {}
        memory_index = pair % config.num_memories
        tasks.append(make_locked_producer_task(
            payload, shared, memory_index=memory_index, mutate=mutate))
        tasks.append(make_locked_consumer_task(
            shared, memory_index=memory_index))
        expected[f"pe{2 * pair + 1}"] = payload
    checks = ([expect_results(lambda: expected, "locked-handoff payload")]
              if mutate is None else [])
    return Workload(
        tasks=tasks,
        checks=checks,
        description=(f"stress_locked_handoff: {words} words, "
                     f"{config.num_pes // 2} pair(s), mutate={mutate}"),
    )


@workload.register("stress_irq_handoff")
def _stress_irq_handoff(config, *, words: int = 32, seed: int = 0,
                        mutate: str = None):
    """Doorbell-IRQ buffer handoff per PE pair (sanitizer stress).

    Needs an interrupt controller with one line per pair.  The seeded
    mutation ``mutate="drop_doorbell"`` removes the producer's raise; the
    consumer reads after a blind delay — a deterministic data race.
    """
    if config.num_pes % 2:
        raise WorkloadError("stress_irq_handoff needs an even PE count")
    layout = config.device_layout()
    if layout is None:
        raise WorkloadError(
            "stress_irq_handoff needs an interrupt controller — add "
            ".irq_controller() to the platform builder")
    pairs = config.num_pes // 2
    if pairs > layout.controller.config.lines:
        raise WorkloadError(
            f"stress_irq_handoff needs {pairs} interrupt lines, controller "
            f"has {layout.controller.config.lines}")
    tasks: List = []
    expected = {}
    for pair in range(pairs):
        payload = [((seed + pair * 31 + i * 5) & 0xFFFFFFFF)
                   for i in range(words)]
        shared: dict = {}
        memory_index = pair % config.num_memories
        tasks.append(make_doorbell_producer_task(
            payload, shared, line=pair, memory_index=memory_index,
            mutate=mutate))
        tasks.append(make_doorbell_consumer_task(
            shared, line=pair, memory_index=memory_index, mutate=mutate))
        if mutate is None:
            expected[f"pe{2 * pair + 1}"] = payload
    checks = ([expect_results(lambda: expected, "IRQ-handoff payload")]
              if mutate is None else [])
    return Workload(
        tasks=tasks,
        checks=checks,
        description=(f"stress_irq_handoff: {words} words, {pairs} pair(s), "
                     f"mutate={mutate}"),
    )


@workload.register("stress_dma_copy")
def _stress_dma_copy(config, *, words: int = 64, seed: int = 3,
                     mutate: str = None):
    """Per-PE DMA copy with completion wait (sanitizer stress).

    Needs one DMA engine per PE.  The seeded mutation
    ``mutate="drop_wait"`` skips the completion interrupt: the PE's
    read-back races the engine's in-flight destination writes.
    """
    layout = config.device_layout()
    engines = 0 if layout is None else len(layout.dmas)
    if engines < config.num_pes:
        raise WorkloadError(
            f"stress_dma_copy needs one DMA engine per PE "
            f"({config.num_pes} PEs, {engines} engine(s) configured)")
    tasks: List = []
    expected = {}
    for pe in range(config.num_pes):
        data = [((seed + pe * 17 + i * 7) & 0xFFFFFFFF) for i in range(words)]
        src_memory = pe % config.num_memories
        dst_memory = (pe + 1) % config.num_memories
        tasks.append(make_dma_stress_task(
            data, src_memory=src_memory, dst_memory=dst_memory,
            engine_index=pe, mutate=mutate))
        if mutate is None:
            expected[f"pe{pe}"] = data
    checks = ([expect_results(lambda: expected, "DMA-copied buffer")]
              if mutate is None else [])
    return Workload(
        tasks=tasks,
        checks=checks,
        description=(f"stress_dma_copy: {words} words per PE, "
                     f"mutate={mutate}"),
    )
