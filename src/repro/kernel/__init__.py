"""SystemC-like discrete-event simulation kernel.

This package reproduces, in Python, the scheduling semantics the paper's
framework relies on (GEZEL / SystemC-style): modules with ports and signals,
generator-based processes, delta cycles and clocks.

Typical usage::

    from repro.kernel import Module, Simulator, Clock, Signal

    class Counter(Module):
        def __init__(self, name, clock, parent=None):
            super().__init__(name, parent)
            self.value = self.add_signal(Signal(0, name="value"))
            self.add_method(self.tick, sensitivity=[clock.posedge_event])

        def tick(self):
            self.value.write(self.value.read() + 1)

    sim = Simulator()
    top = Module("top")
    clock = Clock("clk", period=10, parent=top)
    Counter("counter", clock, parent=top)
    sim.add_top(top)
    sim.run(1000)
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".clock": ["Clock"],
    ".errors": ["DeltaCycleLimitExceeded", "ElaborationError", "KernelError",
                "PortBindingError", "ProcessError", "SchedulerError",
                "SimulationError"],
    ".event": ["Event", "EventQueue"],
    ".module": ["Module"],
    ".port": ["InOutPort", "InputPort", "OutputPort"],
    ".probes": ["Probes"],
    ".process": ["Process", "WaitAny", "WaitCycles", "WaitDelta", "WaitEvent",
                 "WaitTime"],
    ".signal": ["Signal", "SignalVector"],
    ".simtime": ["MS", "NS", "PS", "SEC", "US", "ClockPeriod", "format_time",
                 "parse_time"],
    ".simulator": ["SimulationStats", "Simulator"],
    ".trace": ["SignalTracer", "TransactionLog", "TransactionRecord"],
})

__all__ = [
    "Clock",
    "ClockPeriod",
    "DeltaCycleLimitExceeded",
    "ElaborationError",
    "Event",
    "EventQueue",
    "InOutPort",
    "InputPort",
    "KernelError",
    "Module",
    "MS",
    "NS",
    "OutputPort",
    "PortBindingError",
    "Probes",
    "Process",
    "ProcessError",
    "PS",
    "SchedulerError",
    "SEC",
    "Signal",
    "SignalTracer",
    "SignalVector",
    "SimulationError",
    "SimulationStats",
    "Simulator",
    "TransactionLog",
    "TransactionRecord",
    "US",
    "WaitAny",
    "WaitCycles",
    "WaitDelta",
    "WaitEvent",
    "WaitTime",
    "format_time",
    "parse_time",
]
