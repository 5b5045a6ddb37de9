"""Software layer: task programs, processing elements and workloads.

This package plays the role of the paper's "software layer": the programs
that run on the simulated processors and use the high-level shared-memory
API.  The :class:`TaskProcessor` is the transaction-accurate processing
element used by the large workloads; the ARM-like ISS in :mod:`repro.iss`
is the instruction-accurate alternative.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".instruction_costs": ["ARM7_LIKE", "FAST_CORE", "CostModel",
                           "estimate_loop_cycles"],
    ".task": ["TaskContext", "TaskError", "TaskFunction"],
    ".task_processor": ["TaskProcessor", "TaskProcessorStats"],
    ".registry": ["Workload", "WorkloadError", "WorkloadRegistry",
                  "as_workload", "workload"],
})

__all__ = [
    "ARM7_LIKE",
    "CostModel",
    "FAST_CORE",
    "TaskContext",
    "TaskError",
    "TaskFunction",
    "TaskProcessor",
    "TaskProcessorStats",
    "Workload",
    "WorkloadError",
    "WorkloadRegistry",
    "as_workload",
    "estimate_loop_cycles",
    "workload",
]
