"""Allocation-churn stressor: the wrapper used for ALLOC/FREE/memcpy.

The paper's dynamic-memory path in isolation: GSM-sized frame buffers are
allocated, filled, read back and freed without the codec math, then a
sliding window of blocks is allocated, scatter-written, copied and freed.
Nothing here needs the codec or a device, so a churn run loads neither.
"""

from __future__ import annotations

from typing import List

from ...memory.protocol import DataType
from ..gsm.codec import generate_speech_like
from ..gsm.tables import FRAME_SAMPLES, PARAMETERS_PER_FRAME
from ..registry import Workload, workload


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
