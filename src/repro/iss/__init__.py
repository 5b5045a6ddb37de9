"""Instruction-set simulation: the ALM CPU core and its bus-attached wrapper."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cosim": ["SWI_ALLOC", "SWI_EXIT", "SWI_FREE", "SWI_QUERY", "SWI_READ",
               "SWI_RELEASE", "SWI_RESERVE", "SWI_WRITE", "IssProcessor"],
    ".cpu": ["Action", "ActionKind", "Cpu", "CpuError", "CpuStats",
             "StepResult"],
})

__all__ = [
    "Action",
    "ActionKind",
    "Cpu",
    "CpuError",
    "CpuStats",
    "IssProcessor",
    "StepResult",
    "SWI_ALLOC",
    "SWI_EXIT",
    "SWI_FREE",
    "SWI_QUERY",
    "SWI_READ",
    "SWI_RELEASE",
    "SWI_RESERVE",
    "SWI_WRITE",
]
