"""Built-in workload registrations.

Exposes every workload family shipped with the library (FIR, blocked
matmul, producer/consumer FIFO, the GSM 06.10 encoder and an
allocation-churn stressor) as named, parameterized factories in the
:data:`~repro.sw.registry.workload` registry, so scenarios and sweeps can
reference them declaratively::

    Scenario(name="gsm", config=config, workload="gsm_encode",
             params={"frames": 2, "seed": 42})

Every factory derives its input data deterministically from ``seed`` and
the PE index, and attaches checks comparing the simulated results against
the pure-Python reference implementations.
"""

from __future__ import annotations

import functools
from typing import Callable, List

from ..memory.protocol import DataType
from .gsm import (
    FRAME_SAMPLES,
    PARAMETERS_PER_FRAME,
    PLACEMENT_DEDICATED,
    PLACEMENT_STRIPED,
    build_gsm_tasks,
    check_platform_results,
    generate_speech_like,
    make_gsm_channels,
    reference_encode,
)
from .registry import Workload, WorkloadError, workload
from .workloads import (
    fir_reference,
    make_consumer_task,
    make_dma_stress_task,
    make_doorbell_consumer_task,
    make_doorbell_producer_task,
    make_fir_task,
    make_irq_consumer_task,
    make_irq_producer_task,
    make_locked_consumer_task,
    make_locked_producer_task,
    make_matmul_producer_task,
    make_matmul_worker_task,
    make_memcpy_task,
    make_producer_task,
    make_stencil_task,
    matmul_reference,
    stencil_reference,
)


def _expect_results(expected: Callable[[], dict], what: str):
    """A check asserting ``report.results`` matches ``expected()`` per PE.

    ``expected`` is called when the check first runs, not when the
    workload is built: a PDES partition worker rebuilds the workload and
    never checks it, so a reference computed at build time is computed
    once per worker for nothing.  It must not draw from ``random`` (the
    scenario seed only covers the build).
    """
    reference = functools.cache(expected)

    def check(report):
        for name, want in reference().items():
            if report.results.get(name) != want:
                return f"{name}: {what} differs from the reference"
        return True

    return check


@workload.register("fir")
def _fir(config, *, num_samples: int = 64, taps=(3, -1, 2, 7), seed: int = 0):
    """One FIR filter per PE, buffers striped over the shared memories."""
    taps = list(taps)
    blocks = [
        [((seed * 31 + pe * 17 + i * 29) % 1024) for i in range(num_samples)]
        for pe in range(config.num_pes)
    ]
    tasks = [
        make_fir_task(block, taps, memory_index=pe % config.num_memories)
        for pe, block in enumerate(blocks)
    ]

    def expected():
        return {f"pe{pe}": fir_reference(block, taps)
                    for pe, block in enumerate(blocks)}

    return Workload(
        tasks=tasks,
        checks=[_expect_results(expected, "FIR output")],
        description=f"fir: {num_samples} samples x {len(taps)} taps per PE",
    )


@workload.register("matmul")
def _matmul(config, *, rows: int = 4, inner: int = 3, cols: int = 3,
            seed: int = 0):
    """PE0 publishes A and B; the remaining PEs each compute a row band."""
    if config.num_pes < 2:
        raise WorkloadError("matmul needs at least 2 PEs (producer + workers)")
    a = [[(seed + i * 7 + k * 3) % 97 for k in range(inner)] for i in range(rows)]
    b = [[(seed + k * 5 + j * 11) % 89 for j in range(cols)] for k in range(inner)]
    shared: dict = {}
    workers = config.num_pes - 1
    band = -(-rows // workers)  # ceil division
    tasks = [make_matmul_producer_task(a, b, shared)]
    expected_product = matmul_reference(a, b)
    expected = {}
    for worker in range(workers):
        start, end = worker * band, min((worker + 1) * band, rows)
        tasks.append(make_matmul_worker_task(shared, start, end))
        expected[f"pe{worker + 1}"] = expected_product[start:end]
    return Workload(
        tasks=tasks,
        checks=[_expect_results(lambda: expected, "matmul band")],
        description=f"matmul: {rows}x{inner} @ {inner}x{cols}, {workers} workers",
    )


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
        checks=[_expect_results(lambda: expected, "FIFO item stream")],
        description=(f"producer_consumer: {num_items} items, "
                     f"depth {fifo_depth}, {config.num_pes // 2} pair(s)"),
    )


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
        checks=[_expect_results(lambda: expected,
                                "IRQ-driven FIFO item stream")],
        description=(f"producer_consumer_irq: {num_items} items, "
                     f"depth {fifo_depth}, {config.num_pes // 2} pair(s)"),
    )


@workload.register("dma_memcpy")
def _dma_memcpy(config, *, words: int = 256, mode: str = "dma",
                compute_cycles: int = 0, seed: int = 7):
    """Per-PE buffer copy between two memories, by core or by DMA engine.

    ``mode="pe"`` copies with the core's own burst transfers;
    ``mode="dma"`` offloads to a dedicated DMA engine per PE (the platform
    must configure ``num_pes`` engines) and overlaps ``compute_cycles`` of
    local work with the transfer.  Buffers hold GSM speech-like samples so
    the data stream matches the paper's codec traffic.
    """
    if mode not in ("pe", "dma"):
        raise WorkloadError(f"dma_memcpy mode must be 'pe' or 'dma', got {mode!r}")
    layout = config.device_layout()
    if mode == "dma":
        engines = 0 if layout is None else len(layout.dmas)
        if engines < config.num_pes:
            raise WorkloadError(
                f"dma_memcpy mode='dma' needs one DMA engine per PE "
                f"({config.num_pes} PEs, {engines} engine(s) configured)"
            )
    tasks: List = []
    expected = {}
    for pe in range(config.num_pes):
        samples = generate_speech_like(
            1 + (words - 1) // FRAME_SAMPLES, seed=seed + pe)
        data = [value & 0xFFFF for value in samples[:words]]
        src_memory = pe % config.num_memories
        dst_memory = (pe + 1) % config.num_memories
        tasks.append(make_memcpy_task(
            data, mode=mode, src_memory=src_memory, dst_memory=dst_memory,
            engine_index=pe, compute_cycles=compute_cycles))
        expected[f"pe{pe}"] = data
    return Workload(
        tasks=tasks,
        checks=[_expect_results(lambda: expected,
                                "memcpy destination buffer")],
        description=(f"dma_memcpy[{mode}]: {words} words per PE, "
                     f"compute {compute_cycles} cycles"),
    )


@workload.register("gsm_encode")
def _gsm_encode(config, *, frames: int = 1, seed: int = 42,
                placement: str = None, channels=None):
    """The paper's workload: one GSM 06.10 encoder channel per PE.

    ``placement`` defaults to striped when the platform has several shared
    memories and dedicated otherwise, mirroring the two platforms of the
    paper's Section 4 experiment.
    """
    if channels is None:
        channels = make_gsm_channels(config.num_pes, frames, seed=seed)
    if placement is None:
        placement = (PLACEMENT_STRIPED if config.num_memories > 1
                     else PLACEMENT_DEDICATED)
    tasks = build_gsm_tasks(channels, placement=placement)
    reference = reference_encode(channels)

    def check(report):
        return (check_platform_results(report.results, reference)
                or "encoded GSM parameters differ from the reference encoder")

    return Workload(
        tasks=tasks,
        checks=[check],
        description=(f"gsm_encode: {len(channels)} channel(s) x "
                     f"{frames} frame(s), {placement} placement"),
    )


@workload.register("stencil")
def _stencil(config, *, size: int = 64, iterations: int = 1, stride: int = 1,
             seed: int = 0):
    """One 3-point stencil per PE, scalar traffic with tunable locality.

    ``stride`` permutes the traversal order without changing the result
    (see :mod:`repro.sw.workloads.stencil`): the cache-sensitivity bench
    sweeps it to move the same workload between cache-friendly and
    cache-hostile behaviour.
    """
    if size < 2:
        raise WorkloadError("stencil needs at least 2 elements per buffer")
    blocks = [
        [((seed * 37 + pe * 23 + i * 11) % 4096) for i in range(size)]
        for pe in range(config.num_pes)
    ]
    tasks = [
        make_stencil_task(block, iterations=iterations, stride=stride,
                          memory_index=pe % config.num_memories)
        for pe, block in enumerate(blocks)
    ]

    def expected():
        return {f"pe{pe}": stencil_reference(block, iterations)
                    for pe, block in enumerate(blocks)}

    return Workload(
        tasks=tasks,
        checks=[_expect_results(expected, "stencil output")],
        description=(f"stencil: {size} elements x {iterations} sweep(s), "
                     f"stride {stride}"),
    )


@workload.register("alloc_churn")
def _alloc_churn(config, *, iterations: int = 40, block_words: int = 64,
                 gsm_frames: int = 2, seed: int = 9):
    """Allocation-heavy stressor: GSM-style frame buffers plus churn.

    Per PE: the GSM frame-buffer traffic pattern without the codec math
    (isolating the memory-model cost) followed by repeated
    allocate / scatter-write / copy / free churn.  Each PE returns the
    number of API calls it issued.
    """

    def make_task(pe: int):
        samples = generate_speech_like(gsm_frames, seed=seed + pe)
        memory_index = pe % config.num_memories

        def task(ctx):
            smem = ctx.smem(memory_index)
            for frame in range(gsm_frames):
                start = frame * FRAME_SAMPLES
                frame_samples = [v & 0xFFFF
                                 for v in samples[start:start + FRAME_SAMPLES]]
                input_vptr = yield from smem.alloc(FRAME_SAMPLES, DataType.INT16)
                output_vptr = yield from smem.alloc(PARAMETERS_PER_FRAME,
                                                    DataType.UINT16)
                yield from smem.write_array(input_vptr, frame_samples)
                fetched = yield from smem.read_array(input_vptr, FRAME_SAMPLES)
                yield from smem.write_array(output_vptr,
                                            fetched[:PARAMETERS_PER_FRAME])
                yield from smem.free(input_vptr)
                yield from smem.free(output_vptr)
            survivors: List[int] = []
            for iteration in range(iterations):
                vptr = yield from smem.alloc(block_words, DataType.UINT32)
                yield from smem.write(vptr, iteration,
                                      offset=iteration % block_words)
                if iteration % 3 == 2 and survivors:
                    victim = survivors.pop(0)
                    yield from smem.memcpy(vptr, victim, 8)
                    yield from smem.free(victim)
                survivors.append(vptr)
            for vptr in survivors:
                yield from smem.free(vptr)
            return smem.calls

        return task

    return Workload(
        tasks=[make_task(pe) for pe in range(config.num_pes)],
        description=(f"alloc_churn: {gsm_frames} frame(s) + {iterations} "
                     f"churn iterations per PE"),
    )


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
    checks = ([_expect_results(lambda: expected, "locked-handoff payload")]
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
    checks = ([_expect_results(lambda: expected, "IRQ-handoff payload")]
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
    checks = ([_expect_results(lambda: expected, "DMA-copied buffer")]
              if mutate is None else [])
    return Workload(
        tasks=tasks,
        checks=checks,
        description=(f"stress_dma_copy: {words} words per PE, "
                     f"mutate={mutate}"),
    )
