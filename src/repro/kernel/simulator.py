"""The discrete-event scheduler.

The scheduler follows the SystemC reference algorithm:

1. *Evaluation phase*: run every runnable process, in the order it became
   runnable, until it yields its next wait (see :mod:`repro.kernel.process`).
   Processes may notify events, which fire at once: an event's waiters are
   runnable in the next delta cycle, ahead of its delta wakes.
2. *Delta notification phase*: wake, in the order they yielded ``0``, the
   processes waiting a delta cycle; if anything is runnable, loop back to
   the evaluation phase (a new delta cycle at the same time).
3. *Timed notification phase*: advance time to the earliest timed wait and
   wake every process due then, in the order it yielded.

Simulation ends when there is nothing left to do or a configured time limit
is reached.  Like SystemC's ``sc_start`` (with the default starvation
policy), ``run(duration)`` always leaves ``now`` at ``start + duration`` —
even when activity drains early.

Instrumentation: the kernel emits the ``sync`` point of its
:class:`~repro.kernel.probes.Probes` bus on every event notify and every
event-driven wake, and exposes :attr:`Simulator.current_process` so
subscribers of any probe can attribute what they see.

Scheduler fast paths (semantics-preserving; see ``tests/kernel`` and
``tests/perf``):

* **Time buckets** — the timed heap holds each pending time once, and its
  bucket lists the processes due then in the order they yielded.
  Scheduling at a time already pending is one ``append``; the timed phase
  pops a time and wakes its bucket.
* **Inline event waits and notifies** — ``yield event`` appends the process
  to the event's waiters inside the loop, and ``notify()`` fires inside
  ``Event.notify``, building nothing when nobody waits.
* **Lone-timer run-ahead** — when the delta cycle ran one process, it
  yielded an exact ``int`` > 0, nothing else is queued, the earliest
  pending time lies strictly after the wake time and that time is within
  the deadline, the timed phase would wake this process alone next:
  ``now`` advances, the four counters move as that phase would move them,
  and the generator resumes in place.
* **Counted holds** — the steps of a :class:`Hold` that would run ahead as
  lone timers run ahead in one step, counted as the per-step schedule
  counts them; any other step is bucketed like an ``int`` timer.
"""

from __future__ import annotations

import time as _wallclock
from heapq import heappop, heappush
from typing import Dict, List, Optional

from .errors import DeltaCycleLimitExceeded, ProcessError, SchedulerError
from .event import Event
from .module import Module
from .probes import Probes
from .process import Process


class SimulationStats:
    """Counters of a completed (or in-progress) run, as the per-step
    schedule counts them: a run-ahead step is counted, not executed."""

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


class Hold:
    """``left`` waits of ``period`` (see the module docstring): a process
    sets ``hold.left = n``, then ``while hold.left: yield hold``, each yield
    one ``yield period``; a spent hold (``left < 1``) is not a wait."""

    __slots__ = ("period", "left")

    def __init__(self, period: int) -> None:
        if period.__class__ is not int or period < 1:
            raise ValueError(f"a hold's period must be an int > 0: {period!r}")
        self.period = period
        self.left = 0

    def __repr__(self) -> str:
        return f"Hold({self.period}, left={self.left})"


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
        #: The timed queue: a heap of distinct pending times, and each
        #: time's bucket of waiting processes in the order they yielded.
        self._heap: List[int] = []
        self._buckets: Dict[int, List[Process]] = {}
        #: The processes that yielded ``0``, in the order they yielded.
        self._delta_queue: List[Process] = []
        self._immediate_runnable: List[Process] = []
        #: How many processes at the head of ``_immediate_runnable`` are the
        #: rest of a batch a :class:`ProcessError` cut short.
        self._cut_short = 0
        #: The probe bus; the kernel emits ``sync`` (every event notify and
        #: every event-driven wake).  Unsubscribed, that costs one
        #: ``is not None`` test per notify.
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
        """Bind every module's events to this simulator and make every
        process runnable (all processes start at time zero, as in SystemC)."""
        if self._elaborated:
            return
        if not self._tops:
            raise SchedulerError("no top-level module registered")
        for top in self._tops:
            for module in top.descendants():
                module._sim = self
                for event in module._events:
                    event._bind(self)
                self._immediate_runnable.extend(module._processes)
        self._elaborated = True

    @staticmethod
    def _refuse(process: Process, request: object) -> ProcessError:
        """The error for a yield that is not a wait; ends the process."""
        process._terminated = True
        what = "negative wait" if request.__class__ is int else "non-wait object"
        return ProcessError(f"process {process.name!r} yielded {what} {request!r}")

    # -- main loop -----------------------------------------------------------------
    def run(self, duration: Optional[int] = None) -> SimulationStats:
        """Run the simulation.

        ``duration`` limits how far simulated time may advance (relative to
        the current time); ``None`` runs until no activity remains.  With a
        ``duration``, the run always ends with ``now == start + duration``,
        like SystemC's ``sc_start``.  Returns the accumulated statistics;
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
        self.last_activity_time = self.now
        deadline = None if duration is None else self.now + duration
        start_wall = _wallclock.perf_counter()
        stats = self.stats
        heap = self._heap
        buckets = self._buckets
        push = heappush
        pop = heappop
        max_deltas = self.MAX_DELTA_CYCLES_PER_TIMESTEP
        # Both scheduling lists keep a stable identity (drained in place),
        # so they and their bound methods hoist out of the loop.
        runnable = self._immediate_runnable
        delta_queue = self._delta_queue
        extend = runnable.extend
        # A run-ahead step counts one delta cycle, timed step and fired
        # timer (its activation is counted where the process resumes).
        n_deltas = n_steps = n_activations = n_fired = n_ahead = 0
        # The first evaluation phase ends the delta cycle a ProcessError
        # cut short (counted already): the rest of its batch runs alone,
        # before the next delta cycle's wakes.  Usually it is empty.
        count = self._cut_short
        processes = runnable[:count]
        del runnable[:count]
        self._cut_short = 0
        now = self.now
        clean_exit = False
        try:
            while True:
                # -- delta cycles at the current time --------------------------
                deltas_here = 0
                while True:
                    # Evaluation phase.
                    for process in processes:
                        self._current_process = process
                        while True:  # re-entered only by the run-ahead below
                            n_activations += 1
                            try:
                                request = next(process._generator
                                               or process._start())
                            except StopIteration:
                                process._terminated = True
                                break
                            except Exception as exc:
                                process._terminated = True
                                raise ProcessError(
                                    f"process {process.name!r} raised {exc!r}"
                                ) from exc
                            if request.__class__ is int:
                                # Timer fast path: the dominant yield of clock-
                                # and task-driven models.  The process doubles
                                # as its own timer entry.
                                if request > 0:
                                    when = now + request
                                    if (count == 1 and not runnable
                                            and not delta_queue
                                            and (not heap or heap[0] > when)
                                            and (deadline is None
                                                 or when <= deadline)):
                                        # Lone-timer run-ahead (see the
                                        # module docstring): resume in place.
                                        now = self.now = when
                                        self.last_activity_time = when
                                        n_ahead += 1
                                        deltas_here = 1
                                        continue
                                    bucket = buckets.get(when)
                                    if bucket is None:
                                        buckets[when] = [process]
                                        push(heap, when)
                                    else:
                                        bucket.append(process)
                                elif request == 0:
                                    delta_queue.append(process)
                                else:
                                    raise self._refuse(process, request)
                            elif request.__class__ is Event:
                                # ``yield event``, the dominant wait of
                                # event-driven models.
                                request._sim = self
                                request._waiters.append(process)
                            elif (request.__class__ is Hold
                                  and request.left > 0):
                                # Lone steps run ahead; others are bucketed.
                                left, period = request.left, request.period
                                steps = 0
                                if (count == 1 and not runnable
                                        and not delta_queue):
                                    until = (heap[0] - 1 if heap
                                             else now + left * period)
                                    if deadline is not None:
                                        until = min(until, deadline)
                                    steps = min(left, (until - now) // period)
                                if steps:
                                    request.left = left - steps
                                    now += steps * period
                                    self.now = self.last_activity_time = now
                                    n_ahead += steps
                                    n_activations += steps - 1
                                    deltas_here = 1
                                    continue
                                request.left = left - 1
                                when = now + period
                                bucket = buckets.get(when)
                                if bucket is None:
                                    buckets[when] = [process]
                                    push(heap, when)
                                else:
                                    bucket.append(process)
                            else:
                                raise self._refuse(process, request)
                            break
                    # Delta notification phase: wake the delta waits in the
                    # order they were yielded, after the immediate wakes.
                    if delta_queue:
                        n_fired += len(delta_queue)
                        extend(delta_queue)
                        delta_queue.clear()
                    count = len(runnable)
                    if not count:
                        break
                    n_deltas += 1
                    deltas_here += 1
                    if deltas_here > max_deltas:
                        raise DeltaCycleLimitExceeded(max_deltas)
                    # The next evaluation set: the runnable list is recycled
                    # in place (wakes during evaluation land in the next
                    # delta cycle).
                    processes = runnable[:]
                    runnable.clear()
                # -- timed notification phase ----------------------------------
                if not heap:
                    break
                now = heap[0]
                if deadline is not None and now > deadline:
                    break  # the post-loop clamp advances now to the deadline
                pop(heap)
                self.now = self.last_activity_time = now
                n_steps += 1
                due = buckets.pop(now)
                n_fired += len(due)
                extend(due)
                processes = ()  # the last batch ran; the bucket is next
            clean_exit = True
        except ProcessError:
            # Put back the rest of the batch at the head of the runnable
            # list, so a later ``run()`` still evaluates it at this time.
            rest = processes[processes.index(process) + 1:]
            runnable[:0] = rest
            self._cut_short = len(rest)
            raise
        finally:
            self._running = False
            stats.delta_cycles += n_deltas + n_ahead
            stats.timed_steps += n_steps + n_ahead
            stats.process_activations += n_activations
            stats.events_fired += n_fired + n_ahead
            stats.wallclock_seconds += _wallclock.perf_counter() - start_wall
            if clean_exit and deadline is not None and self.now < deadline:
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
        return bool(self._heap or self._delta_queue or self._immediate_runnable)

    def next_activity_time(self) -> Optional[int]:
        """Earliest time at which this simulator has work, or ``None``.

        ``now`` when delta or immediate work is queued, else the earliest
        pending time.  Every queued entry is a live wait, so the value is
        exact: the time at which the next process resumes.
        """
        if self._immediate_runnable or self._delta_queue:
            return self.now
        return self._heap[0] if self._heap else None

    @property
    def current_process(self) -> Optional[Process]:
        """The process being evaluated right now (``None`` before the first
        activation); how probe subscribers attribute what they observe."""
        return self._current_process

    @property
    def runnable_depth(self) -> int:
        """Processes runnable at the current time, not yet evaluated.

        A point-in-time congestion gauge (how much work the scheduler has
        stacked up *right now*), sampled by the observability metrics
        head; reading it never disturbs the queues.
        """
        return len(self._immediate_runnable) + len(self._delta_queue)
