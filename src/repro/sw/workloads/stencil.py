"""1-D stencil workload with tunable memory locality.

Each processing element smooths its own buffer with a 3-point stencil
(``out[i] = (left + 2*mid + right) / 4``, edges clamped), all buffers living
in dynamic shared memory and every element moved with *scalar* API reads
and writes — the traffic pattern the per-PE L1 caches are built for.

The ``stride`` parameter permutes the traversal order (element ``k`` of the
sweep processes index ``k * stride mod size``, with ``stride`` coprime to
``size`` so every index is visited exactly once).  The computed result is
identical for every stride; only the *locality* changes: ``stride=1`` walks
lines sequentially (cache friendly), large strides jump across lines on
every access (cache hostile).  That makes the workload a pure
cache-sensitivity probe: same answer, same operation count, different hit
rate.
"""

from __future__ import annotations

import math
from typing import Generator, List, Sequence

from ...memory.protocol import DataType
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext

MASK = 0xFFFFFFFF


def coprime_stride(stride: int, size: int) -> int:
    """The smallest stride >= ``stride`` coprime to ``size`` (so the strided
    traversal is a permutation)."""
    if size <= 1:
        return 1
    stride = max(1, stride)
    while math.gcd(stride, size) != 1:
        stride += 1
    return stride


def stencil_reference(values: Sequence[int], iterations: int = 1) -> List[int]:
    """Pure-Python reference of the clamped 3-point stencil."""
    current = [value & MASK for value in values]
    size = len(current)
    for _ in range(iterations):
        previous = current
        current = []
        for index in range(size):
            left = previous[max(0, index - 1)]
            right = previous[min(size - 1, index + 1)]
            current.append(((left + 2 * previous[index] + right) >> 2) & MASK)
    return current


def make_stencil_task(values: Sequence[int], iterations: int = 1,
                      stride: int = 1, memory_index: int = 0):
    """Task running ``iterations`` stencil sweeps over ``values``.

    Returns the smoothed buffer (read back from shared memory with one
    array transfer, so the final answer always crosses the memory system).
    """
    values = [value & MASK for value in values]
    size = len(values)
    stride = coprime_stride(stride, size)

    def task(ctx: TaskContext) -> Generator[object, None, List[int]]:
        smem = ctx.smem(memory_index)
        # ctx.span annotations mark the phases on the trace timeline;
        # no-ops without observability.
        with ctx.span("setup"):
            src_vptr = yield from smem.alloc(size, DataType.UINT32)
            dst_vptr = yield from smem.alloc(size, DataType.UINT32)
            yield from smem.write_array(src_vptr, values)
        source, destination = src_vptr, dst_vptr
        for sweep in range(iterations):
            with ctx.span(f"sweep{sweep}"):
                for step in range(size):
                    index = (step * stride) % size
                    left = yield from smem.read(source,
                                                offset=max(0, index - 1))
                    mid = yield from smem.read(source, offset=index)
                    right = yield from smem.read(source,
                                                 offset=min(size - 1,
                                                            index + 1))
                    value = ((left + 2 * mid + right) >> 2) & MASK
                    yield from smem.write(destination, value, offset=index)
                    yield from ctx.compute_ops(alu=4, local=3)
            source, destination = destination, source
        with ctx.span("collect"):
            result = yield from smem.read_array(source, size)
            yield from smem.free(dst_vptr)
            yield from smem.free(src_vptr)
        ctx.note(f"stencil: {iterations} sweep(s) over {size} elements, "
                 f"stride {stride}")
        return result

    return task


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
        checks=[expect_results(expected, "stencil output")],
        description=(f"stencil: {size} elements x {iterations} sweep(s), "
                     f"stride {stride}"),
    )
