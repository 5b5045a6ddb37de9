"""Blocked matrix-multiply workload.

Each processing element multiplies a band of rows of ``A`` by ``B`` and
writes its band of ``C`` back, with all three matrices living in dynamic
shared memory.  Used by the scaling experiments: the amount of interconnect
traffic per PE is easy to reason about and the computation is embarrassingly
parallel across row bands.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ...memory.protocol import DataType
from ..instruction_costs import estimate_loop_cycles
from ..registry import Workload, WorkloadError, expect_results, workload
from ..task import TaskContext


def matmul_reference(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
                     ) -> List[List[int]]:
    """Pure-Python reference product (word-wrapped to 32 bits)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    result = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            result[i][j] = acc & 0xFFFFFFFF
    return result


def flatten(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Row-major flattening helper shared with the benches."""
    return [value & 0xFFFFFFFF for row in matrix for value in row]


def make_matmul_producer_task(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                              shared: dict, memory_index: int = 0):
    """Task that allocates and publishes A, B and C in shared memory.

    ``shared`` is a plain dict the producer fills with the allocation
    virtual pointers (`a_vptr`, `b_vptr`, `c_vptr`, `ready`), which the
    worker tasks read.  It models a lightweight boot-time coordination step
    that in a real system would live in a mailbox.
    """
    rows, inner = len(a), len(b)
    cols = len(b[0])

    def task(ctx: TaskContext) -> Generator[object, None, dict]:
        smem = ctx.smem(memory_index)
        a_vptr = yield from smem.alloc(rows * inner, DataType.UINT32)
        b_vptr = yield from smem.alloc(inner * cols, DataType.UINT32)
        c_vptr = yield from smem.alloc(rows * cols, DataType.UINT32)
        yield from smem.write_array(a_vptr, flatten(a))
        yield from smem.write_array(b_vptr, flatten(b))
        shared.update(
            a_vptr=a_vptr, b_vptr=b_vptr, c_vptr=c_vptr,
            rows=rows, inner=inner, cols=cols, ready=True,
        )
        ctx.note("matmul: matrices published")
        return dict(shared)

    return task


def make_matmul_worker_task(shared: dict, row_start: int, row_end: int,
                            memory_index: int = 0):
    """Task computing rows ``[row_start, row_end)`` of the product."""

    def task(ctx: TaskContext) -> Generator[object, None, List[List[int]]]:
        smem = ctx.smem(memory_index)
        # Wait for the producer to publish the matrices (host-side handshake
        # is modelled as polling a few cycles; the dict is filled before the
        # workers start issuing traffic in platform-built scenarios).
        while not shared.get("ready"):
            yield 64 * ctx.clock_period
        rows, inner, cols = shared["rows"], shared["inner"], shared["cols"]
        a_vptr, b_vptr, c_vptr = shared["a_vptr"], shared["b_vptr"], shared["c_vptr"]

        b_flat = yield from smem.read_array(b_vptr, inner * cols)
        band: List[List[int]] = []
        for row in range(row_start, min(row_end, rows)):
            a_row = yield from smem.read_array(a_vptr, inner, offset=row * inner)
            out_row = []
            for col in range(cols):
                acc = 0
                for k in range(inner):
                    acc += a_row[k] * b_flat[k * cols + col]
                out_row.append(acc & 0xFFFFFFFF)
            yield from ctx.compute(
                estimate_loop_cycles(cols * inner, body_alu=1, body_mul=1,
                                     body_local=2, model=ctx.cost_model)
            )
            yield from smem.write_array(c_vptr, out_row, offset=row * cols)
            band.append(out_row)
        ctx.note(f"matmul: rows [{row_start}, {row_end}) done")
        return band

    return task


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
        checks=[expect_results(lambda: expected, "matmul band")],
        description=f"matmul: {rows}x{inner} @ {inner}x{cols}, {workers} workers",
    )
