"""The kernel against a reference scheduler, on generated process scripts.

:class:`Reference` restates the algorithm of :mod:`repro.kernel.simulator`
in the plainest form: every wait, timed or delta, is a fresh
:class:`RefEvent` with one waiter, notified with the wait's delay; the
delta queue and the runnable set are plain lists swapped out whole; and
there is no run-ahead, no process acting as its own timer and no immediate
wake shortcut.  Hypothesis draws scripts of two to six processes, each a
list of ``wait n`` / ``wait 0`` / ``wait event k`` / ``notify k``
(immediate, delta or timed) steps, sometimes under a delta-cycle limit of
three, and runs them on the kernel and on the reference, once in one
``run()`` and once sliced into random ``run(duration)`` windows.  The
``(time, process, step)`` trace, the end time, the time of the last timed
step, the four scheduler counters and whether the delta-cycle limit
tripped must all agree.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.kernel import DeltaCycleLimitExceeded, Event, Module, Simulator


class RefEvent:
    """An event of the reference: waiters, the pending notification
    (``None``, ``"delta"`` or an absolute time) and its epoch."""

    def __init__(self, ref):
        self.ref, self.waiters, self.pending, self.epoch = ref, [], None, 0

    def notify(self, delay=None):
        ref = self.ref
        if delay is None:
            ref.counters[3] += 1
            ref.runnable += self.fire()
        elif delay == 0:
            if self.pending != "delta":
                self.pending, self.epoch = "delta", self.epoch + 1
                ref.deltas.append((self, self.epoch))
        elif self.pending != "delta" and (self.pending is None
                                          or self.pending > ref.now + delay):
            self.pending, self.epoch = ref.now + delay, self.epoch + 1
            heapq.heappush(ref.timed,
                           (self.pending, next(ref.seq), self, self.epoch))

    def fire(self):
        self.pending, self.epoch = None, self.epoch + 1
        waiters, self.waiters = self.waiters, []
        return waiters


class Reference:
    """The scheduling algorithm, restated (see the module docstring)."""

    def __init__(self, bodies, max_deltas):
        self.now = self.last_activity_time = 0
        self.timed, self.seq, self.deltas = [], itertools.count(), []
        self.runnable = [body(self) for body in bodies]
        self.max_deltas = max_deltas
        #: delta_cycles, timed_steps, process_activations, events_fired
        self.counters = [0, 0, 0, 0]

    def run(self, duration=None):
        deadline = None if duration is None else self.now + duration
        self.last_activity_time = self.now
        counters = self.counters
        while True:
            deltas_here = 0
            while True:
                entries, self.deltas = self.deltas, []
                for event, epoch in entries:
                    if event.epoch == epoch:
                        counters[3] += 1
                        self.runnable += event.fire()
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
                    else:  # a wait of ``request`` time units
                        timer = RefEvent(self)
                        timer.waiters.append(process)
                        timer.notify(request)
            if not self.timed or (deadline is not None
                                  and self.timed[0][0] > deadline):
                break
            self.now = self.last_activity_time = self.timed[0][0]
            counters[1] += 1
            while self.timed and self.timed[0][0] == self.now:
                __, __, event, epoch = heapq.heappop(self.timed)
                if event.epoch == epoch:
                    counters[3] += 1
                    self.runnable += event.fire()
        if deadline is not None and self.now < deadline:
            self.now = deadline


EVENTS = 3


def scripted(index, script, trace):
    """A process body logging ``(now, process, step)`` before each step;
    ``env`` is the simulator or the reference, with ``env.events``."""
    def body(env):
        for step, (op, arg, delay) in enumerate(script):
            trace.append((env.now, index, step))
            if op == "wait":
                yield arg
            elif op == "wait_event":
                yield env.events[arg]
            else:
                env.events[arg].notify(delay)
        trace.append((env.now, index, len(script)))
    return body


def execute(make, scripts, windows):
    """Run ``scripts`` on the scheduler ``make(bodies)`` builds, in the
    ``windows`` then to the end; what the test compares."""
    trace = []
    env = make([scripted(index, script, trace)
                for index, script in enumerate(scripts)])
    tripped = False
    try:
        for duration in windows:
            env.run(duration)
        env.run()
    except DeltaCycleLimitExceeded:
        tripped = True
    stats = getattr(env, "stats", None)
    counters = (list(env.counters) if stats is None else
                [stats.delta_cycles, stats.timed_steps,
                 stats.process_activations, stats.events_fired])
    return trace, env.now, env.last_activity_time, counters, tripped


def kernel(max_deltas):
    def make(bodies):
        top = Module("top")
        sim = Simulator(top)
        sim.MAX_DELTA_CYCLES_PER_TIMESTEP = max_deltas
        sim.events = [top.add_event(Event(f"e{k}")) for k in range(EVENTS)]
        for index, body in enumerate(bodies):
            top.add_process(lambda body=body: body(sim), name=f"p{index}")
        return sim
    return make


def reference(max_deltas):
    def make(bodies):
        ref = Reference(bodies, max_deltas)
        ref.events = [RefEvent(ref) for _ in range(EVENTS)]
        return ref
    return make


steps = st.one_of(
    st.tuples(st.just("wait"), st.integers(1, 12), st.none()),
    st.tuples(st.just("wait"), st.just(0), st.none()),
    st.tuples(st.just("wait_event"), st.integers(0, EVENTS - 1), st.none()),
    st.tuples(st.just("notify"), st.integers(0, EVENTS - 1),
              st.one_of(st.none(), st.just(0), st.integers(1, 12))),
)
scripts = st.lists(st.lists(steps, max_size=8), min_size=2, max_size=6)
windows = st.lists(st.integers(0, 15), max_size=4)


@settings(max_examples=150, deadline=None)
@given(scripts, windows, st.sampled_from([3, 10_000]))
def test_kernel_schedules_as_the_reference(scripts, windows, max_deltas):
    for sliced in ([], windows):
        expected = execute(reference(max_deltas), scripts, sliced)
        assert execute(kernel(max_deltas), scripts, sliced) == expected
