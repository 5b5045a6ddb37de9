"""SystemC-like discrete-event simulation kernel.

This package reproduces, in Python, the scheduling semantics the paper's
framework relies on (GEZEL / SystemC-style): hierarchical modules,
generator-based processes, events and delta cycles.

Typical usage::

    from repro.kernel import Event, Module, Simulator

    class Counter(Module):
        def __init__(self, name, tick, parent=None):
            super().__init__(name, parent)
            self.value = 0
            self.add_method(self.count, sensitivity=[tick])

        def count(self):
            self.value += 1

    top = Module("top")
    tick = top.add_event(Event("tick"))

    def clock():
        while True:
            yield 10
            tick.notify()

    top.add_process(clock)
    counter = Counter("counter", tick, parent=top)
    Simulator(top).run(1000)
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".errors": ["DeltaCycleLimitExceeded", "ElaborationError", "KernelError",
                "ProcessError", "SchedulerError", "SimulationError"],
    ".event": ["Event", "EventQueue"],
    ".module": ["Module"],
    ".probes": ["Probes"],
    ".process": ["Process", "WaitAny", "WaitCycles", "WaitDelta", "WaitEvent",
                 "WaitTime"],
    ".simtime": ["MS", "NS", "PS", "SEC", "US", "ClockPeriod", "format_time",
                 "parse_time"],
    ".simulator": ["SimulationStats", "Simulator"],
})

__all__ = [
    "ClockPeriod",
    "DeltaCycleLimitExceeded",
    "ElaborationError",
    "Event",
    "EventQueue",
    "KernelError",
    "Module",
    "MS",
    "NS",
    "Probes",
    "Process",
    "ProcessError",
    "PS",
    "SchedulerError",
    "SEC",
    "SimulationError",
    "SimulationStats",
    "Simulator",
    "US",
    "WaitAny",
    "WaitCycles",
    "WaitDelta",
    "WaitEvent",
    "WaitTime",
    "format_time",
    "parse_time",
]
