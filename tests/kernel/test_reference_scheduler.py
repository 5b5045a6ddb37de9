"""The kernel against a reference scheduler, on generated process scripts.

:class:`Reference` restates the algorithm of :mod:`repro.kernel.simulator`
in the plainest form: the timed queue is one heap of ``(time, sequence,
process)`` entries, the delta queue and the runnable set are plain lists
swapped out whole, and there is no run-ahead, no time bucket and no
immediate wake shortcut.  Hypothesis draws scripts of two to six
processes, each a list of ``wait n`` / ``wait 0`` / ``wait event k`` /
``notify k`` / ``hold period n`` steps (the kernel yields one
:class:`~repro.kernel.Hold` ``n`` times, the reference ``wait period`` ``n``
times), sometimes under a delta-cycle limit of three, and runs
them on the kernel and on the reference, once in one ``run()`` and once
sliced into random ``run(duration)`` windows.  The ``(time, process,
step)`` trace, the end time, the time of the last timed step, the four
scheduler counters, ``next_activity_time()`` after every window and
whether the delta-cycle limit tripped must all agree.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.kernel import (
    DeltaCycleLimitExceeded, Event, Hold, Module, Simulator)


class RefEvent:
    """An event of the reference: the processes waiting on it."""

    def __init__(self, ref):
        self.ref, self.waiters = ref, []

    def notify(self):
        self.ref.counters[3] += 1
        self.ref.runnable += self.waiters
        self.waiters = []


class Reference:
    """The scheduling algorithm, restated (see the module docstring)."""

    def __init__(self, bodies, max_deltas):
        self.now = self.last_activity_time = 0
        self.timed, self.seq, self.deltas = [], itertools.count(), []
        self.runnable = [body(self) for body in bodies]
        self.max_deltas = max_deltas
        #: delta_cycles, timed_steps, process_activations, events_fired
        self.counters = [0, 0, 0, 0]

    def next_activity_time(self):
        if self.runnable or self.deltas:
            return self.now
        return self.timed[0][0] if self.timed else None

    def run(self, duration=None):
        deadline = None if duration is None else self.now + duration
        self.last_activity_time = self.now
        counters = self.counters
        while True:
            deltas_here = 0
            while True:
                counters[3] += len(self.deltas)
                self.runnable += self.deltas
                self.deltas = []
                if not self.runnable:
                    break
                counters[0] += 1
                deltas_here += 1
                if deltas_here > self.max_deltas:
                    raise DeltaCycleLimitExceeded(self.max_deltas)
                batch, self.runnable = self.runnable, []
                for process in batch:
                    counters[2] += 1
                    try:
                        request = next(process)
                    except StopIteration:
                        continue
                    if isinstance(request, RefEvent):
                        request.waiters.append(process)
                    elif request == 0:
                        self.deltas.append(process)
                    else:
                        heapq.heappush(self.timed, (self.now + request,
                                                    next(self.seq), process))
            if not self.timed or (deadline is not None
                                  and self.timed[0][0] > deadline):
                break
            self.now = self.last_activity_time = self.timed[0][0]
            counters[1] += 1
            while self.timed and self.timed[0][0] == self.now:
                counters[3] += 1
                self.runnable.append(heapq.heappop(self.timed)[2])
        if deadline is not None and self.now < deadline:
            self.now = deadline


EVENTS = 3


def scripted(index, script, trace):
    """A process body logging ``(now, process, step)`` before each step;
    ``env`` is the simulator or the reference, with ``env.events`` and
    ``env.hold``."""
    def body(env):
        for step, (op, *args) in enumerate(script):
            trace.append((env.now, index, step))
            if op == "wait":
                yield args[0]
            elif op == "hold":
                yield from env.hold(*args)
            elif op == "wait_event":
                yield env.events[args[0]]
            else:
                env.events[args[0]].notify()
        trace.append((env.now, index, len(script)))
    return body


def execute(make, scripts, windows):
    """Run ``scripts`` on the scheduler ``make(bodies)`` builds, in the
    ``windows`` then to the end; what the test compares."""
    trace = []
    env = make([scripted(index, script, trace)
                for index, script in enumerate(scripts)])
    tripped = False
    next_times = []
    try:
        for duration in windows:
            env.run(duration)
            next_times.append(env.next_activity_time())
        env.run()
    except DeltaCycleLimitExceeded:
        tripped = True
    stats = getattr(env, "stats", None)
    counters = (list(env.counters) if stats is None else
                [stats.delta_cycles, stats.timed_steps,
                 stats.process_activations, stats.events_fired])
    return (trace, env.now, env.last_activity_time, counters, next_times,
            tripped)


def kernel_hold(period, times):
    """``times`` waits of ``period``, counted on one :class:`Hold`."""
    hold = Hold(period)
    hold.left = times
    while hold.left:
        yield hold


def reference_hold(period, times):
    """The same waits, one plain ``wait period`` each."""
    for _ in range(times):
        yield period


def kernel(max_deltas):
    def make(bodies):
        top = Module("top")
        sim = Simulator(top)
        sim.MAX_DELTA_CYCLES_PER_TIMESTEP = max_deltas
        sim.events = [top.add_event(Event(f"e{k}")) for k in range(EVENTS)]
        sim.hold = kernel_hold
        for index, body in enumerate(bodies):
            top.add_process(lambda body=body: body(sim), name=f"p{index}")
        return sim
    return make


def reference(max_deltas):
    def make(bodies):
        ref = Reference(bodies, max_deltas)
        ref.events = [RefEvent(ref) for _ in range(EVENTS)]
        ref.hold = reference_hold
        return ref
    return make


steps = st.one_of(
    st.tuples(st.just("wait"), st.integers(1, 12)),
    st.tuples(st.just("wait"), st.just(0)),
    st.tuples(st.just("wait_event"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("notify"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("hold"), st.integers(1, 6), st.integers(1, 8)),
)
scripts = st.lists(st.lists(steps, max_size=8), min_size=2, max_size=6)
windows = st.lists(st.integers(0, 15), max_size=4)


@settings(max_examples=150, deadline=None)
@given(scripts, windows, st.sampled_from([3, 10_000]))
def test_kernel_schedules_as_the_reference(scripts, windows, max_deltas):
    for sliced in ([], windows):
        expected = execute(reference(max_deltas), scripts, sliced)
        assert execute(kernel(max_deltas), scripts, sliced) == expected
