"""The lone-timer run-ahead must not be observable.

When one process is all the scheduler has left to do, ``Simulator.run``
resumes it in place instead of pushing its timer and popping it again.
Each case below pins the exact ``(now, process)`` activation trace and the
four scheduler counters ``(delta_cycles, timed_steps, process_activations,
events_fired)`` at an edge of that shortcut: the ``run(duration)``
deadline, another process's timer before, at or after the lone wake, a
return, an exception, a notify made during a lone step (with and without
a waiter), a timer yielded while other processes still wait
to run in the same delta cycle, and the per-timestep delta-cycle limit.  The
expected values are worked out by hand from the general scheduling
algorithm (push the timer, pop it in the timed phase, evaluate the woken
process in a new delta cycle), so they hold with or without the run-ahead.
"""

from contextlib import nullcontext

import pytest

from repro.kernel import (
    DeltaCycleLimitExceeded,
    Event,
    Module,
    ProcessError,
    Simulator,
)


class Bench:
    """One module, a simulator over it, and the activation trace."""

    def __init__(self):
        self.top = Module("top")
        self.sim = Simulator(self.top)
        self.trace = []

    def log(self, name):
        self.trace.append((self.sim.now, name))

    def counters(self):
        stats = self.sim.stats
        return (stats.delta_cycles, stats.timed_steps,
                stats.process_activations, stats.events_fired)


def ticker(bench, ticks=10):
    """A process that logs each activation and waits 10, ``ticks`` times
    (bounded, so a run-ahead that overran its deadline fails, not hangs)."""
    def tick():
        for _ in range(ticks):
            bench.log("tick")
            yield 10
    return tick


@pytest.mark.parametrize("split", [25, 20])
def test_deadline_between_lone_wakes_splits_a_run_exactly(split):
    sliced = Bench()
    sliced.top.add_process(ticker(sliced))
    first = sliced.sim.run(split)
    # Wakes at 0, 10, 20 fit in [0, split]; the wake at 30 does not.
    assert sliced.trace == [(0, "tick"), (10, "tick"), (20, "tick")]
    assert first.end_time == sliced.sim.now == split
    assert sliced.sim.last_activity_time == 20
    # Three delta cycles (0, 10, 20), two timed steps, three activations,
    # two fired timers.
    assert sliced.counters() == (3, 2, 3, 2)

    sliced.sim.run(45 - split)
    assert sliced.trace[3:] == [(30, "tick"), (40, "tick")]
    assert sliced.sim.now == 45
    assert sliced.counters() == (5, 4, 5, 4)

    whole = Bench()
    whole.top.add_process(ticker(whole))
    whole.sim.run(45)
    assert whole.trace == sliced.trace
    assert whole.counters() == sliced.counters()


@pytest.mark.parametrize("other_at, timed_steps", [
    (5, 4),   # its own step before the wake at 10
    (10, 3),  # popped in the same step as the wake at 10
    (15, 4),  # its own step between the wakes at 10 and 20
])
def test_another_timer_costs_its_timed_step_unless_it_shares_one(
        other_at, timed_steps):
    bench = Bench()
    bench.top.add_process(ticker(bench, ticks=3))

    def other():
        yield other_at
        bench.log("other")

    bench.top.add_process(other)
    bench.sim.run()
    assert bench.trace == sorted(
        [(0, "tick"), (10, "tick"), (20, "tick"), (other_at, "other")],
        key=lambda entry: entry[0])  # stable: the ticker yielded first
    # One delta cycle per distinct time (0, 10, 20, 30 and other_at) and
    # one timed step per distinct time after 0; four ticker activations
    # (the last ends its loop at 30) and two of ``other``; four timers
    # fired.  The ticker's wake at 20 is a run-ahead only when ``other``
    # fired first.
    assert bench.counters() == (timed_steps + 1, timed_steps, 6, 4)


@pytest.mark.parametrize("duration, end", [(None, 30), (100, 100)])
def test_return_inside_a_lone_step_ends_the_run(duration, end):
    bench = Bench()

    def body():
        for _ in range(3):
            bench.log("tick")
            yield 10  # the third wake, at 30, returns

    bench.top.add_process(body)
    stats = bench.sim.run(duration)
    assert bench.trace == [(0, "tick"), (10, "tick"), (20, "tick")]
    # Without a deadline the run ends at the return; with one, on it.
    assert bench.sim.now == stats.end_time == end
    assert bench.sim.last_activity_time == 30
    # Four delta cycles (0, 10, 20, 30) and activations, three timed steps
    # and three fired timers.
    assert bench.counters() == (4, 3, 4, 3)


def test_exception_in_a_lone_step_is_a_process_error():
    bench = Bench()

    def body():
        bench.log("tick")
        yield 10
        bench.log("tick")
        yield 10
        bench.log("tick")
        raise RuntimeError("boom")

    process = bench.top.add_process(body)
    with pytest.raises(ProcessError, match="boom") as info:
        bench.sim.run()
    assert isinstance(info.value.__cause__, RuntimeError)
    assert process.terminated
    assert bench.trace == [(0, "tick"), (10, "tick"), (20, "tick")]
    assert bench.sim.now == 20
    # The counters are flushed on the error path too.
    assert bench.counters() == (3, 2, 3, 2)


@pytest.mark.parametrize("waiting", [True, False])
def test_notify_inside_a_lone_step_wakes_its_waiter_in_order(waiting):
    bench = Bench()
    ev = bench.top.add_event(Event("ev"))

    def waiter():
        bench.log("waiter")
        yield ev
        bench.log("waiter")

    def body():
        bench.log("tick")
        yield 10
        bench.log("tick")  # alone here: the waiter (if any) is parked on ev
        ev.notify()
        yield 10
        bench.log("tick")
        yield 10
        bench.log("tick")

    if waiting:
        bench.top.add_process(waiter)
    bench.top.add_process(body)
    bench.sim.run()
    ticks = [(0, "tick"), (10, "tick"), (20, "tick"), (30, "tick")]
    if waiting:
        assert bench.trace == [(0, "waiter")] + ticks[:2] + [
            (10, "waiter")] + ticks[2:]
        # Delta cycles at 0, 10 (twice: the waiter runs in the next one),
        # 20 and 30; two waiter and four ticker activations; three timers
        # and ev fired.
        assert bench.counters() == (5, 3, 6, 4)
    else:
        # Nobody woke, so the ticker stays alone: one delta cycle at each
        # of 0, 10, 20 and 30; ev's notify counts as fired all the same.
        assert bench.trace == ticks
        assert bench.counters() == (4, 3, 4, 4)


def test_timer_yielded_in_a_shared_delta_cycle_waits_for_the_rest_of_it():
    bench = Bench()
    bench.top.add_process(ticker(bench, ticks=3))  # evaluated first at 0

    def late():
        bench.log("late")
        yield 5
        bench.log("late")

    bench.top.add_process(late)
    bench.sim.run()
    assert bench.trace == [(0, "tick"), (0, "late"), (5, "late"),
                           (10, "tick"), (20, "tick")]
    # Delta cycles at 0, 5, 10, 20 and 30 (the ticker's last activation
    # ends its loop); four timers, each popped in its own step.
    assert bench.counters() == (5, 4, 6, 4)


@pytest.mark.parametrize("deltas_at_10, counters", [
    # Six delta cycles and activations; four delta waits and one timer.
    (3, (6, 1, 6, 5)),
    # The fourth delta cycle at 10 is counted, then refused.
    (4, (7, 1, 6, 6)),
])
def test_delta_cycle_limit_restarts_at_a_lone_wake(deltas_at_10, counters):
    bench = Bench()
    bench.sim.MAX_DELTA_CYCLES_PER_TIMESTEP = 3

    def body():
        bench.log("tick")
        yield 0
        yield 0  # the third delta cycle at 0: at the limit
        yield 10
        bench.log("tick")
        for _ in range(deltas_at_10 - 1):
            yield 0

    bench.top.add_process(body)
    over = deltas_at_10 > 3
    with pytest.raises(DeltaCycleLimitExceeded) if over else nullcontext():
        bench.sim.run()
    assert bench.trace == [(0, "tick"), (10, "tick")]
    assert bench.counters() == counters
