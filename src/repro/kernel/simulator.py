"""The discrete-event scheduler.

The scheduler follows the SystemC reference algorithm:

1. *Evaluation phase*: run every runnable process.  Processes may notify
   events, immediately, in the next delta cycle or after a delay.
2. *Delta notification phase*: collect processes woken by delta
   notifications; if any, loop back to the evaluation phase (a new delta
   cycle at the same time).
3. *Timed notification phase*: advance time to the earliest pending timed
   notification and wake its waiters.

Simulation ends when there is nothing left to do, a configured time limit is
reached, or :meth:`Simulator.stop` is called.  Like SystemC's ``sc_start``
(with the default starvation policy), ``run(duration)`` always leaves
``now`` at ``start + duration`` — even when activity drains early — unless
the run was stopped explicitly.

Instrumentation: the kernel emits the ``sync`` point of its
:class:`~repro.kernel.probes.Probes` bus on every event notify and every
event-driven wake, and exposes :attr:`Simulator.current_process` so
subscribers of any probe can attribute what they see.

Scheduler fast paths (semantics-preserving; see ``tests/perf``):

* **Per-process timer reuse** — ``yield n`` / ``yield WaitTime(n)`` pushes
  the process itself onto the timed queue instead of allocating a fresh
  :class:`~repro.kernel.event.Event` per wait; the pop wakes the process
  directly.
* **Direct delta waits** — ``yield WaitDelta()`` / ``yield 0`` enqueues the
  process on the delta queue instead of routing through ``Event.notify(0)``.
  Delta-queue entries preserve exact notification order (events and process
  wakes interleave as they were scheduled).
* **Inline event waits and notifies** — a bare ``yield event`` registers
  the waiter inside the loop, and an immediate ``notify()`` wakes straight
  from the waiter list, building nothing when nobody waits.
* **Generation-counter dedup** — the per-delta-cycle runnable set is built
  by stamping each process with the current scheduling generation instead
  of building an id-set.
* **Epoch-checked queue entries** — stale (cancelled or overridden) timed
  and delta entries are skipped by comparing the entry's scheduling epoch
  with the event's current one (see :mod:`repro.kernel.event`).
* **Lone-timer run-ahead** — when the delta cycle ran one process, it
  yielded an exact ``int`` > 0 without ``stop()``, nothing else is queued,
  the heap's head (valid or stale) lies strictly after the wake time and
  that time is within the deadline, the timed phase would pop this
  process's own entry next: ``now`` advances, the four counters move as
  that phase would move them, and the generator resumes in place.
"""

from __future__ import annotations

import time as _wallclock
from heapq import heappop, heappush
from typing import List, Optional

from .errors import DeltaCycleLimitExceeded, ProcessError, SchedulerError
from .event import _NOT_PENDING, Event, EventQueue
from .module import Module
from .probes import Probes
from .process import (
    Process,
    WaitAny,
    WaitDelta,
    WaitEvent,
    WaitRequest,
    WaitTime,
    Yieldable,
)


class SimulationStats:
    """Counters describing a completed (or in-progress) simulation run."""

    #: The scheduler counters: what a run cost the host, not what it
    #: simulated (see :meth:`repro.soc.stats.SimulationReport.cost`).
    COUNTERS = ("delta_cycles", "timed_steps", "process_activations",
                "events_fired")
    __slots__ = COUNTERS + ("wallclock_seconds", "end_time")

    def __init__(self) -> None:
        self.delta_cycles = 0
        self.timed_steps = 0
        self.process_activations = 0
        self.events_fired = 0
        self.wallclock_seconds = 0.0
        self.end_time = 0

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for reports)."""
        return {name: getattr(self, name) for name in self.__slots__}


class Simulator:
    """Owns the module hierarchy and runs the event loop."""

    #: Safety valve against combinational loops.
    MAX_DELTA_CYCLES_PER_TIMESTEP = 10_000

    def __init__(self, top: Optional[Module] = None,
                 probes: Optional[Probes] = None) -> None:
        self._tops: List[Module] = []
        self.now: int = 0
        #: Time of the last processed timed step (or run start) — the point
        #: ``now`` would have stopped at without the ``sc_start`` deadline
        #: clamp.  See :meth:`trim_to_last_activity`.
        self.last_activity_time: int = 0
        self._elaborated = False
        self._running = False
        self._stop_requested = False
        self._timed_events = EventQueue()
        #: Mixed delta queue preserving notification order: ``(event, epoch)``
        #: tuples for ``notify(0)``, bare processes for direct delta waits.
        self._delta_queue: List[object] = []
        self._immediate_runnable: List[Process] = []
        self._processes: List[Process] = []
        #: Scheduling generation for runnable dedup (see ``_dedup_runnable``).
        self._generation = 0
        #: The probe bus; the kernel emits ``sync`` (every event notify and
        #: every event-driven wake).  Unsubscribed, that costs one hoisted
        #: ``is not None`` test per wake in the hot loop.
        self.probes = probes if probes is not None else Probes()
        #: The process being evaluated right now (see :attr:`current_process`).
        self._current_process: Optional[Process] = None
        self.stats = SimulationStats()
        if top is not None:
            self.add_top(top)

    # -- construction ---------------------------------------------------------
    def add_top(self, module: Module) -> None:
        """Add a top-level module to the simulation."""
        if self._elaborated:
            raise SchedulerError("cannot add modules after elaboration")
        self._tops.append(module)

    def elaborate(self) -> None:
        """Bind every module's events and processes to this simulator."""
        if self._elaborated:
            return
        if not self._tops:
            raise SchedulerError("no top-level module registered")
        for top in self._tops:
            for module in top.descendants():
                module.elaborate()
        for top in self._tops:
            for module in top.descendants():
                for event in module._events:
                    event._bind(self)
                for process in module.processes:
                    process._bind(self)
                    self._processes.append(process)
        # All processes start runnable, as in SystemC.
        self._immediate_runnable.extend(
            p for p in self._processes if not p.is_method or p._static_events == []
        )
        # Method processes with sensitivities wait for their first trigger,
        # except that SystemC runs them once at time zero; mirror that.
        self._immediate_runnable.extend(
            p for p in self._processes if p.is_method and p._static_events
        )
        self._elaborated = True

    # -- hooks used by events -------------------------------------------------
    def _schedule_timed_event(self, event: Event, when: int, epoch: int = 0) -> None:
        sync = self.probes.sync
        if sync is not None:
            sync("notify", event, self._current_process)
        self._timed_events.push(when, event, epoch)

    def _schedule_delta_event(self, event: Event, epoch: int = 0) -> None:
        sync = self.probes.sync
        if sync is not None:
            sync("notify", event, self._current_process)
        self._delta_queue.append((event, epoch))

    def _trigger_event_now(self, event: Event) -> None:
        """Immediate notification: fire ``event`` (cancelling any pending
        notification) and make its waiters runnable in this evaluation
        phase.  With nobody waiting — most notifies — nothing is built."""
        self.stats.events_fired += 1
        sync = self.probes.sync
        if sync is not None:
            sync("notify", event, self._current_process)
        event._pending_at = _NOT_PENDING
        event._epoch += 1
        waiters = event._waiters
        if waiters:
            event._waiters = []
        static = event._static_sensitive
        if static:
            # Statically sensitive processes wake first, on every fire.
            waiters = [(p, p._wait_token) for p in static] + waiters
        runnable = self._immediate_runnable
        for process, token in waiters:
            if process._wait_token == token and not process._terminated:
                if sync is not None:
                    sync("wake", event, process)
                runnable.append(process)

    # -- wait-request handling ---------------------------------------------------
    def _apply_wait(self, process: Process, request: Yieldable) -> None:
        """Translate a yielded wait request (slow path: not an exact int/Event).

        A timed wait pushes the process as its own timer under its token."""
        if isinstance(request, WaitTime):
            if request.duration == 0:
                self._delta_queue.append(process)
            else:
                self._timed_events.push(self.now + request.duration, process,
                                        process._wait_token)
        elif isinstance(request, WaitDelta):
            self._delta_queue.append(process)
        elif isinstance(request, WaitEvent):
            request.event._bind(self)
            request.event._add_waiter(process)
        elif isinstance(request, Event):
            request._bind(self)
            request._add_waiter(process)
        elif isinstance(request, WaitAny):
            for event in request.events:
                event._bind(self)
                event._add_waiter(process)
        elif isinstance(request, int):
            # Rare non-exact int subclasses (e.g. IntEnum); bools excluded
            # from the fast path land here too.
            if request > 0:
                self._timed_events.push(self.now + int(request), process,
                                        process._wait_token)
            elif request == 0:
                self._delta_queue.append(process)
            else:
                raise ValueError("wait duration must be >= 0")
        elif isinstance(request, WaitRequest):
            raise ProcessError(
                f"process {process.name!r} yielded unsupported wait {request!r}"
            )
        else:
            raise ProcessError(
                f"process {process.name!r} yielded non-wait object {request!r}"
            )

    # -- main loop -----------------------------------------------------------------
    def run(self, duration: Optional[int] = None) -> SimulationStats:
        """Run the simulation.

        ``duration`` limits how far simulated time may advance (relative to
        the current time); ``None`` runs until no activity remains or
        :meth:`stop` is called.  With a ``duration``, the run always ends
        with ``now == start + duration`` (unless stopped), like SystemC's
        ``sc_start``.  Returns the accumulated statistics;
        ``stats.end_time`` equals the final ``now``.

        The loop body is deliberately monolithic: every phase of the
        scheduling algorithm is inlined so the per-timestep cost is a
        handful of local operations.  Statistics accumulate in locals and
        are flushed to :attr:`stats` on every exit path.
        """
        if self._running:
            raise SchedulerError("run() re-entered while already running")
        self.elaborate()
        self._running = True
        self._stop_requested = False
        self.last_activity_time = self.now
        deadline = None if duration is None else self.now + duration
        start_wall = _wallclock.perf_counter()
        stats = self.stats
        timed_events = self._timed_events
        heap = timed_events._heap
        counter = timed_events._counter
        push = heappush
        pop = heappop
        max_deltas = self.MAX_DELTA_CYCLES_PER_TIMESTEP
        # Both scheduling lists keep a stable identity (drained in place),
        # so they and their bound methods hoist out of the loop.
        runnable = self._immediate_runnable
        delta_queue = self._delta_queue
        wake = runnable.append
        # The ``sync`` probe (``None`` with no subscriber): one hoisted test
        # per event-driven wake; timer fast-path wakes resume the same
        # process and carry no cross-process edge, so they skip it.
        sync = self.probes.sync
        # A run-ahead step counts one delta cycle, timed step and fired
        # timer (its activation is counted where the process resumes).
        n_deltas = n_steps = n_activations = n_fired = n_ahead = 0
        clean_exit = False
        try:
            while True:
                # -- delta cycles at the current time --------------------------
                deltas_here = 0
                while True:
                    if delta_queue:
                        # Delta notification phase: wake processes in exact
                        # notification order (``notify(0)`` events and direct
                        # delta waits interleave as they were scheduled).
                        entries = delta_queue[:]
                        delta_queue.clear()
                        for entry in entries:
                            if entry.__class__ is tuple:
                                event, epoch = entry
                                if event._epoch == epoch:
                                    n_fired += 1
                                    for p in event._collect_triggered():
                                        if not p._terminated:
                                            if sync is not None:
                                                sync("wake", event, p)
                                            wake(p)
                            else:  # a process woken by a direct delta wait
                                n_fired += 1
                                if not entry._terminated:
                                    wake(entry)
                    count = len(runnable)
                    if not count:
                        break
                    n_deltas += 1
                    deltas_here += 1
                    if deltas_here > max_deltas:
                        raise DeltaCycleLimitExceeded(max_deltas)
                    # Evaluation set: the runnable list is recycled in place
                    # (wakes during evaluation land in the next delta cycle);
                    # with several candidates, dedup via generation stamps (a
                    # process woken by several events in one delta runs once).
                    if count == 1:
                        processes = (runnable[0],)
                    else:
                        generation = self._generation + 1
                        self._generation = generation
                        processes = []
                        for p in runnable:
                            if p._runnable_gen != generation:
                                p._runnable_gen = generation
                                processes.append(p)
                    runnable.clear()
                    # Evaluation phase.
                    now = self.now
                    for process in processes:
                        if process._terminated:
                            continue
                        self._current_process = process
                        while True:  # re-entered only by the run-ahead below
                            n_activations += 1
                            generator = process._generator
                            if generator is not None:
                                # Running thread process: resume the generator
                                # directly (equivalent to ``process.run()``).
                                process._wait_token += 1
                                try:
                                    request = next(generator)
                                except StopIteration:
                                    process._terminated = True
                                    request = None
                                except Exception as exc:
                                    process._terminated = True
                                    raise ProcessError(
                                        f"process {process.name!r} raised {exc!r}"
                                    ) from exc
                            else:
                                # First activation or method process.
                                request = process.run()
                            if self._stop_requested:
                                return stats
                            if request.__class__ is int:
                                # Timer fast path: the dominant yield of clock-
                                # and task-driven models.  The process doubles
                                # as its own reusable timer entry.
                                if request > 0:
                                    when = now + request
                                    if (count == 1 and not runnable
                                            and not delta_queue
                                            and (not heap or heap[0][0] > when)
                                            and (deadline is None
                                                 or when <= deadline)):
                                        # Lone-timer run-ahead (see the
                                        # module docstring): resume in place.
                                        now = self.now = when
                                        self.last_activity_time = when
                                        n_ahead += 1
                                        deltas_here = 1
                                        continue
                                    push(heap, (when, next(counter),
                                                process, process._wait_token))
                                elif request == 0:
                                    delta_queue.append(process)
                                else:
                                    raise ValueError(
                                        "wait duration must be >= 0")
                            elif request.__class__ is Event:
                                # Bare ``yield event``, the dominant wait of
                                # event-driven models: ``_add_waiter`` inlined.
                                request._sim = self
                                waiters = request._waiters
                                waiters.append((process, process._wait_token))
                                if len(waiters) >= request._compact_at:
                                    request._compact_waiters()
                            elif request is not None:
                                self._apply_wait(process, request)
                            # ``None``: generator finished or a method
                            # process awaits its trigger: nothing to schedule.
                            break
                # -- timed notification phase ----------------------------------
                if self._stop_requested or not heap:
                    break
                next_time = heap[0][0]
                if deadline is not None and next_time > deadline:
                    break  # the post-loop clamp advances now to the deadline
                self.now = self.last_activity_time = now = next_time
                n_steps += 1
                # Wake everything scheduled for ``now`` (the first pop is
                # unconditional: the heap head *is* the entry that set
                # ``now``).  Process entries are the reusable per-process
                # timers, valid while the wait token matches; event entries
                # fire only when their scheduling epoch is still current
                # (stale ones are skipped).
                while True:
                    __, __, payload, guard = pop(heap)
                    if payload._is_process:
                        if payload._wait_token == guard:
                            n_fired += 1
                            wake(payload)
                    elif payload._epoch == guard:
                        n_fired += 1
                        for p in payload._collect_triggered():
                            if not p._terminated:
                                if sync is not None:
                                    sync("wake", payload, p)
                                wake(p)
                    if not heap or heap[0][0] > now:
                        break
            clean_exit = True
        finally:
            self._running = False
            stats.delta_cycles += n_deltas + n_ahead
            stats.timed_steps += n_steps + n_ahead
            stats.process_activations += n_activations
            stats.events_fired += n_fired + n_ahead
            stats.wallclock_seconds += _wallclock.perf_counter() - start_wall
            if (clean_exit and deadline is not None
                    and not self._stop_requested and self.now < deadline):
                # Activity drained (or the next event lies beyond the
                # deadline): time still advances to the full duration, like
                # ``sc_start`` under the default starvation policy.
                self.now = deadline
            stats.end_time = self.now
        return stats

    # -- control -----------------------------------------------------------------
    def trim_to_last_activity(self) -> None:
        """Roll a deadline-clamped ``now`` back to the last real activity.

        ``run(duration)`` always ends at the deadline (``sc_start``
        semantics), even when activity drained early.  Drivers that slice
        ``run()`` calls and want *drain* semantics for their reports (the
        platform's ``max_time`` loop) call this after the final slice: when
        nothing remains scheduled, ``now`` (and ``stats.end_time``) return
        to the last processed timed step.  No-op while activity is pending.
        """
        if not self.pending_activity and self.now > self.last_activity_time:
            self.now = self.last_activity_time
            self.stats.end_time = self.now

    def stop(self) -> None:
        """Request the simulation to stop at the end of the current activation."""
        self._stop_requested = True

    def finalize(self) -> None:
        """Invoke every module's ``end_of_simulation`` hook."""
        for top in self._tops:
            for module in top.descendants():
                module.end_of_simulation()

    # -- convenience ---------------------------------------------------------------
    def run_until(self, absolute_time: int) -> SimulationStats:
        """Run until simulated time reaches ``absolute_time``."""
        if absolute_time < self.now:
            raise SchedulerError("cannot run backwards in time")
        return self.run(absolute_time - self.now)

    @property
    def pending_activity(self) -> bool:
        """True if any timed or delta activity remains scheduled."""
        return bool(self._timed_events) or bool(self._delta_queue) or bool(
            self._immediate_runnable
        )

    def next_activity_time(self) -> Optional[int]:
        """Earliest time at which this simulator has work, or ``None``.

        ``now`` when delta/immediate work is queued, else the head of the
        timed heap.  The heap may hold stale (cancelled/overridden)
        entries, so the returned bound can be earlier than the first entry
        that actually fires — a conservative lower bound, which is exactly
        what the PDES coordinator needs for a sound lookahead horizon.
        """
        if self._immediate_runnable or self._delta_queue:
            return self.now
        return self._timed_events.next_time()

    @property
    def current_process(self) -> Optional[Process]:
        """The process being evaluated right now (``None`` before the first
        activation); how probe subscribers attribute what they observe."""
        return self._current_process

    @property
    def runnable_depth(self) -> int:
        """Processes/events queued for the current delta cycle.

        A point-in-time congestion gauge (how much work the scheduler has
        stacked up *right now*), sampled by the observability metrics
        head; reading it never disturbs the queues.
        """
        return len(self._immediate_runnable) + len(self._delta_queue)
