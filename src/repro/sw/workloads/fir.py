"""FIR filter workload.

A classic streaming DSP kernel: each processing element filters its own
block of samples with a small FIR, keeping input, coefficients and output in
dynamically allocated shared memory.  The workload exercises ALLOC, array
transfers in both directions, scalar accesses for the filter state and FREE,
with a computation phase annotated per output sample.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ...memory.protocol import DataType
from ..instruction_costs import estimate_loop_cycles
from ..registry import Workload, expect_results, workload
from ..task import TaskContext


def _fir_kernel(samples: Sequence[int], taps: Sequence[int]) -> List[int]:
    """``samples`` filtered by ``taps`` as 32-bit words: each tap's products
    are added to the shifted outputs in one pass, and the sums masked once."""
    acc = [0] * len(samples)
    for shift, tap in enumerate(taps):
        acc[shift:] = [a + tap * s for a, s in zip(acc[shift:], samples)]
    return [a & 0xFFFFFFFF for a in acc]


def fir_reference(samples: Sequence[int], taps: Sequence[int]) -> List[int]:
    """Pure-Python reference used to check the simulated result."""
    return _fir_kernel(samples, taps)


def make_fir_task(samples: Sequence[int], taps: Sequence[int], memory_index: int = 0):
    """Build a task that filters ``samples`` with ``taps`` on one PE.

    The task returns the output vector read back from shared memory, so the
    caller can compare it against :func:`fir_reference`.
    """
    samples = [s & 0xFFFFFFFF for s in samples]
    taps = list(taps)

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        smem = ctx.smem(memory_index)
        input_vptr = yield from smem.alloc(len(samples), DataType.UINT32)
        coeff_vptr = yield from smem.alloc(len(taps), DataType.UINT32)
        output_vptr = yield from smem.alloc(len(samples), DataType.UINT32)
        yield from smem.write_array(input_vptr, samples)
        yield from smem.write_array(coeff_vptr, [t & 0xFFFFFFFF for t in taps])

        # Fetch the whole input and the coefficients into local storage
        # (the usual DMA-in / compute / DMA-out structure of DSP firmware).
        local_input = yield from smem.read_array(input_vptr, len(samples))
        local_taps = yield from smem.read_array(coeff_vptr, len(taps))
        local_taps = [t if t < 0x80000000 else t - (1 << 32) for t in local_taps]

        output = _fir_kernel(local_input, local_taps)
        yield from ctx.compute(
            estimate_loop_cycles(len(local_input) * len(local_taps),
                                 body_alu=1, body_mul=1, body_local=2,
                                 model=ctx.cost_model)
        )

        yield from smem.write_array(output_vptr, output)
        result = yield from smem.read_array(output_vptr, len(samples))
        yield from smem.free(input_vptr)
        yield from smem.free(coeff_vptr)
        yield from smem.free(output_vptr)
        ctx.note(f"fir: filtered {len(samples)} samples with {len(taps)} taps")
        return result

    return task


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
        checks=[expect_results(expected, "FIR output")],
        description=f"fir: {num_samples} samples x {len(taps)} taps per PE",
    )
