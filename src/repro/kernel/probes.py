"""The probe bus: the platform's one instrumentation hook surface.

A :class:`Probes` object carries a fixed set of named probe points.  Each
point is an attribute: ``None`` until someone subscribes, the subscriber
itself while there is exactly one, an in-order fan-out once there are
several.  Every emit site in the simulator is therefore the same two
lines::

    probe = probes.port_issue
    if probe is not None:
        probe(port, request)

so an uninstrumented platform executes no hook code at all.  Subscribers
only observe: they must not notify events, create processes or consume
simulated time — that is what keeps an instrumented run bit-identical to
the plain one.

Probe points, their emitters and call signatures:

==================  ==========================  ===============================
point               emitted by                  arguments
==================  ==========================  ===============================
``sync``            ``Simulator``               ``(kind, event, process)``
``port_issue``      ``MasterPort.transfer``     ``(port, request)``
``port_complete``   ``Fabric`` (delivery)       ``(port, request, response)``
``irq_raise``       ``InterruptController``     ``(mask)``
``irq_wait``        ``IrqClient.wait``          ``(pe_id)``
``irq_claim``       ``IrqClient.wait``          ``(pe_id, mask)``
``dma_begin``       ``DmaEngine``               ``(engine, count)``
``dma_end``         ``DmaEngine``               ``(engine, ok, words_done)``
``task_span``       ``TaskContext.span``        ``(context, name, began, ended)``
==================  ==========================  ===============================

``sync`` kinds are ``"notify"`` (the running ``process`` notified
``event``) and ``"wake"`` (``event`` woke ``process``).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

#: The probe points, fixed: a new one is added here and at its emit site.
POINTS = ("sync", "port_issue", "port_complete", "irq_raise", "irq_wait",
          "irq_claim", "dma_begin", "dma_end", "task_span")


def _fan_out(subscribers: Tuple[Callable, ...]) -> Callable:
    def emit(*args) -> None:
        for subscriber in subscribers:
            subscriber(*args)
    return emit


class Probes:
    """One attribute per probe point (see the module docstring)."""

    __slots__ = POINTS + ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Dict[str, Tuple[Callable, ...]] = {}
        for point in POINTS:
            setattr(self, point, None)

    def subscribe(self, **callbacks: Callable) -> None:
        """Subscribe ``point=callback`` pairs; callbacks of one point fire
        in subscription order."""
        unknown = sorted(set(callbacks) - set(POINTS))
        if unknown:
            raise ValueError(f"unknown probe point(s) {', '.join(unknown)}; "
                             f"the points are {', '.join(POINTS)}")
        for point, callback in callbacks.items():
            subscribers = self._subscribers.get(point, ()) + (callback,)
            self._subscribers[point] = subscribers
            setattr(self, point, callback if len(subscribers) == 1
                    else _fan_out(subscribers))
