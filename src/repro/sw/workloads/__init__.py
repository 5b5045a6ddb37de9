"""Synthetic and DSP workloads for the co-simulation platform.

Each workload module provides ``make_*_task`` factories producing task
generators (run on :class:`~repro.sw.task_processor.TaskProcessor`) plus a
pure-Python reference implementation used by the tests to check that the
simulated execution computes the right answer.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".fir": ["fir_reference", "make_fir_task"],
    ".matmul": ["flatten", "make_matmul_producer_task",
                "make_matmul_worker_task", "matmul_reference"],
    ".dma": ["make_memcpy_task"],
    ".producer_consumer": ["CTRL_DONE", "CTRL_HEAD", "CTRL_TAIL", "CTRL_WORDS",
                           "make_consumer_task", "make_producer_task"],
    ".producer_consumer_irq": ["make_irq_consumer_task",
                               "make_irq_producer_task"],
    ".stencil": ["coprime_stride", "make_stencil_task", "stencil_reference"],
    ".stress": ["make_dma_stress_task", "make_doorbell_consumer_task",
                "make_doorbell_producer_task", "make_locked_consumer_task",
                "make_locked_producer_task"],
})

__all__ = [
    "CTRL_DONE",
    "CTRL_HEAD",
    "CTRL_TAIL",
    "CTRL_WORDS",
    "coprime_stride",
    "fir_reference",
    "flatten",
    "make_consumer_task",
    "make_fir_task",
    "make_dma_stress_task",
    "make_doorbell_consumer_task",
    "make_doorbell_producer_task",
    "make_irq_consumer_task",
    "make_irq_producer_task",
    "make_locked_consumer_task",
    "make_locked_producer_task",
    "make_matmul_producer_task",
    "make_matmul_worker_task",
    "make_memcpy_task",
    "make_producer_task",
    "make_stencil_task",
    "matmul_reference",
    "stencil_reference",
]
