"""The dynamic shared memory wrapper (the paper's contribution).

The wrapper lets simulated software allocate, access and free dynamic data
that physically lives in *host* memory, while a cycle-true FSM keeps the
simulated timing accurate.  See :class:`SharedMemoryWrapper` for the bus
slave, :class:`SharedMemoryAPI` for the software-side API, and the
``src/repro/wrapper`` row of README.md's repository layout for the pieces
(pointer table, translator, FSM, delays).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".api": ["IO_ARRAY_WORDS", "SharedMemoryAPI"],
    ".delays": ["WrapperDelays"],
    ".errors": ["ApiError", "CapacityError", "PointerTableError",
                "ReservationError", "TranslationError", "WrapperError"],
    ".pointer_table": ["PointerEntry", "PointerTable"],
    ".shared_memory": ["SharedMemoryWrapper"],
    ".translator": ["Translator", "TranslatorStats"],
    ".wrapper_fsm": ["S_ACCESS", "S_DECODE", "S_HOST_CALL", "S_IDLE",
                     "S_RESPOND", "S_TABLE", "S_TRANSFER", "WrapperFsm"],
})

__all__ = [
    "ApiError",
    "CapacityError",
    "IO_ARRAY_WORDS",
    "PointerEntry",
    "PointerTable",
    "PointerTableError",
    "ReservationError",
    "S_ACCESS",
    "S_DECODE",
    "S_HOST_CALL",
    "S_IDLE",
    "S_RESPOND",
    "S_TABLE",
    "S_TRANSFER",
    "SharedMemoryAPI",
    "SharedMemoryWrapper",
    "TranslationError",
    "Translator",
    "TranslatorStats",
    "WrapperDelays",
    "WrapperError",
    "WrapperFsm",
]
