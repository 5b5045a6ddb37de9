"""SystemC-like discrete-event simulation kernel.

This package reproduces, in Python, the scheduling semantics the paper's
framework relies on (GEZEL / SystemC-style): modules with ports and signals,
generator-based processes, delta cycles, clocks and cycle-true FSMs.

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

from .clock import Clock
from .errors import (
    DeltaCycleLimitExceeded,
    ElaborationError,
    KernelError,
    PortBindingError,
    ProcessError,
    SchedulerError,
    SimulationError,
)
from .event import Event, EventQueue
from .fsm import CycleTrueFsm, FsmStateError
from .module import Module
from .port import InOutPort, InputPort, OutputPort
from .probes import Probes
from .process import Process, WaitAny, WaitCycles, WaitDelta, WaitEvent, WaitTime
from .signal import Signal, SignalVector
from .simtime import MS, NS, PS, SEC, US, ClockPeriod, format_time, parse_time
from .simulator import SimulationStats, Simulator
from .trace import SignalTracer, TransactionLog, TransactionRecord

__all__ = [
    "Clock",
    "ClockPeriod",
    "CycleTrueFsm",
    "DeltaCycleLimitExceeded",
    "ElaborationError",
    "Event",
    "EventQueue",
    "FsmStateError",
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
