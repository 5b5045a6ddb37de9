"""Memcpy offload workload: PE-driven copies vs. DMA-engine offload.

Each PE moves one buffer of speech-like samples between two shared
memories and then runs a block of local compute.  In ``pe`` mode the core
does the copy itself (read_array + write_array through its own master
port); in ``dma`` mode it programs a DMA engine, overlaps the local
compute with the transfer, and then blocks on the completion interrupt.
Both modes end with a read-back of the destination buffer, so the
returned data is bit-comparable across modes, topologies and cache
settings — and the ``e8`` bench uses the pair to locate the buffer size
where offloading starts to pay.
"""

from __future__ import annotations

from typing import Generator, List

from ...dev.dma import DmaDriver
from ...memory.protocol import DataType
from ..gsm.codec import generate_speech_like
from ..gsm.tables import FRAME_SAMPLES
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext


def make_memcpy_task(data: List[int], *, mode: str, src_memory: int,
                     dst_memory: int, engine_index: int = 0,
                     compute_cycles: int = 0):
    """One PE's memcpy + compute task.

    ``mode="pe"``: copy with the core's own burst reads/writes, then
    compute.  ``mode="dma"``: program DMA engine ``engine_index``, run the
    compute while the transfer is in flight, then wait for the completion
    IRQ.  Returns the destination buffer read back over the bus.
    """
    if mode not in ("pe", "dma"):
        raise ValueError(f"mode must be 'pe' or 'dma', got {mode!r}")
    data = [value & 0xFFFFFFFF for value in data]

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        src = ctx.smem(src_memory)
        dst = ctx.smem(dst_memory)
        src_vptr = yield from src.alloc(len(data), DataType.UINT32)
        dst_vptr = yield from dst.alloc(len(data), DataType.UINT32)
        yield from src.write_array(src_vptr, data)
        if mode == "pe":
            staged = yield from src.read_array(src_vptr, len(data))
            yield from dst.write_array(dst_vptr, staged)
            if compute_cycles:
                yield from ctx.compute(compute_cycles)
        else:
            dma = DmaDriver(ctx, engine_index)
            # Make the engine's uncached reads see the freshly written
            # source (an L1 write-back cache may still hold those lines).
            yield from dma.flush(src, src_vptr)
            yield from dma.start(src_memory, src_vptr, dst_memory, dst_vptr,
                                 len(data))
            if compute_cycles:
                yield from ctx.compute(compute_cycles)
            ok = yield from dma.wait()
            if not ok:
                ctx.note("dma transfer failed")
                return []
        result = yield from dst.read_array(dst_vptr, len(data))
        yield from dst.free(dst_vptr)
        yield from src.free(src_vptr)
        return result

    return task


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
        checks=[expect_results(lambda: expected,
                                "memcpy destination buffer")],
        description=(f"dma_memcpy[{mode}]: {words} words per PE, "
                     f"compute {compute_cycles} cycles"),
    )
