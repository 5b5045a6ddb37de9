"""SystemC-like discrete-event simulation kernel.

This package reproduces, in Python, the scheduling semantics the paper's
framework relies on (GEZEL / SystemC-style): hierarchical modules,
generator processes that wait on time or on an event, and delta cycles.

Typical usage::

    from repro.kernel import Event, Module, Simulator

    class Counter(Module):
        def __init__(self, name, tick, parent=None):
            super().__init__(name, parent)
            self.tick = tick
            self.value = 0
            self.add_process(self.count)

        def count(self):
            while True:
                yield self.tick
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
    ".event": ["Event"],
    ".module": ["Module"],
    ".probes": ["Probes"],
    ".process": ["Process"],
    ".simtime": ["NS", "PS"],
    ".simulator": ["Hold", "SimulationStats", "Simulator"],
})

__all__ = [
    "DeltaCycleLimitExceeded",
    "ElaborationError",
    "Event",
    "Hold",
    "KernelError",
    "Module",
    "NS",
    "Probes",
    "Process",
    "ProcessError",
    "PS",
    "SchedulerError",
    "SimulationError",
    "SimulationStats",
    "Simulator",
]
