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

A :class:`~repro.kernel.Hold` runs every lone step of a counted hold ahead
at once; its cases (a deadline inside a hold, another timer due before, at
or after its end, a :class:`ProcessError` in its batch) run the hold and
its per-step twin of plain ``int`` waits against the same hand-worked
values, and so does the delta-cycle limit after a hold ran ahead.  A
spent hold and a period that is not a positive ``int`` are refused.
"""

from contextlib import nullcontext

import pytest

from repro.kernel import (
    DeltaCycleLimitExceeded,
    Event,
    Hold,
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


# -- counted holds ----------------------------------------------------------------

def holder(bench, times, period=10, use_hold=True):
    """Logs ``start``, waits ``period`` ``times`` times — on one ``Hold``,
    or as plain ``int`` waits for the per-step twin — then logs ``end``."""
    def body():
        bench.log("start")
        if use_hold:
            hold = Hold(period)
            hold.left = times
            while hold.left:
                yield hold
        else:
            for _ in range(times):
                yield period
        bench.log("end")
    return body


def twins(build):
    """A bench built by ``build(bench, use_hold)`` with holds, and its
    per-step twin; each case checks both against the same hand-worked
    trace and counters."""
    benches = []
    for use_hold in (True, False):
        bench = Bench()
        build(bench, use_hold)
        benches.append(bench)
    return benches


def test_deadline_inside_a_hold_and_the_next_run_finishes_it():
    for bench in twins(lambda bench, use_hold: bench.top.add_process(
            holder(bench, 5, use_hold=use_hold))):
        bench.sim.run(25)
        # The steps to 10 and 20 fit in [0, 25]; the one to 30 does not.
        assert bench.trace == [(0, "start")]
        assert bench.sim.now == 25 and bench.sim.last_activity_time == 20
        assert bench.sim.next_activity_time() == 30
        # Delta cycles at 0, 10 and 20; two timed steps and fired timers.
        assert bench.counters() == (3, 2, 3, 2)
        bench.sim.run()
        assert bench.trace == [(0, "start"), (50, "end")]
        assert bench.sim.now == bench.sim.last_activity_time == 50
        # Three more of each: the wakes at 30, 40 and 50.
        assert bench.counters() == (6, 5, 6, 5)


@pytest.mark.parametrize("other_at, trace, counters", [
    # Before the end: the step to 20 waits behind it, then the hold resumes.
    (15, [(0, "start"), (15, "other"), (30, "end")], (5, 4, 6, 4)),
    # At the end: two steps run ahead, the last shares the step at 30.
    (30, [(0, "start"), (30, "other"), (30, "end")], (4, 3, 6, 4)),
    # After the end: every step from 10 runs ahead.
    (35, [(0, "start"), (30, "end"), (35, "other")], (5, 4, 6, 4)),
])
def test_another_timer_splits_a_hold_that_then_resumes(
        other_at, trace, counters):
    def build(bench, use_hold):
        bench.top.add_process(holder(bench, 3, use_hold=use_hold))

        def other():
            yield other_at
            bench.log("other")

        bench.top.add_process(other)

    for bench in twins(build):
        bench.sim.run()
        assert bench.trace == trace
        # Four holder activations (0, 10, 20, 30) and two of ``other``.
        assert bench.counters() == counters


def test_a_process_error_beside_a_hold_puts_the_hold_back():
    def build(bench, use_hold):
        def bad():
            bench.log("bad")
            raise RuntimeError("boom")
            yield  # pragma: no cover - makes ``bad`` a generator

        bench.top.add_process(bad)
        bench.top.add_process(holder(bench, 3, use_hold=use_hold))

    for bench in twins(build):
        with pytest.raises(ProcessError, match="boom"):
            bench.sim.run()
        assert bench.trace == [(0, "bad")]
        assert bench.counters() == (1, 0, 1, 0)
        # The holder, put back, runs alone at 0, then every step runs ahead.
        bench.sim.run()
        assert bench.trace == [(0, "bad"), (0, "start"), (30, "end")]
        assert bench.counters() == (4, 3, 5, 3)


def test_delta_cycle_limit_restarts_after_a_hold_runs_ahead():
    def build(bench, use_hold):
        bench.sim.MAX_DELTA_CYCLES_PER_TIMESTEP = 3
        hold_body = holder(bench, 2, use_hold=use_hold)

        def body():
            yield 0
            yield 0  # the third delta cycle at 0: at the limit
            yield from hold_body()  # logs start at 0, end at 20
            yield 0
            yield 0  # the third delta cycle at 20: at the limit again

        bench.top.add_process(body)

    for bench in twins(build):
        bench.sim.run()
        assert bench.trace == [(0, "start"), (20, "end")]
        # Delta cycles: three at 0, one at 10, three at 20; two timed
        # steps; activations likewise; four delta waits and two timers.
        assert bench.counters() == (7, 2, 7, 6)


def test_a_spent_hold_is_refused():
    bench = Bench()

    def body():
        yield Hold(10)  # ``left`` is still 0

    process = bench.top.add_process(body)
    with pytest.raises(ProcessError, match=r"Hold\(10, left=0\)"):
        bench.sim.run()
    assert process.terminated
    assert bench.sim.now == 0 and bench.counters() == (1, 0, 1, 0)


@pytest.mark.parametrize("period", [0, -10, 2.0, True, "10"])
def test_a_hold_period_must_be_a_positive_int(period):
    with pytest.raises(ValueError, match="period must be an int > 0"):
        Hold(period)
