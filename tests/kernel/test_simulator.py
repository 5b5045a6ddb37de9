"""Tests for the discrete-event scheduler, processes, events and modules."""

import pytest

from repro.kernel import (
    DeltaCycleLimitExceeded,
    Event,
    Module,
    ProcessError,
    SchedulerError,
    Simulator,
    WaitAny,
    WaitDelta,
    WaitEvent,
)


def build(top_builder):
    """Helper: build a top module with ``top_builder(top)`` and a simulator."""
    top = Module("top")
    top_builder(top)
    sim = Simulator(top)
    return sim, top


class TestBasicScheduling:
    def test_timed_wait_advances_time(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 10
                log.append(("a", mod))
                yield 25
                log.append(("b", mod))

            mod.add_process(proc, name="p")

        sim, _ = build(builder)
        sim.run()
        assert [x[0] for x in log] == ["a", "b"]
        assert sim.now == 35

    def test_run_with_duration_limit(self):
        ticks = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 10
                    ticks.append(sim.now)

            mod.add_process(proc)

        sim, _ = build(builder)
        sim.run(95)
        assert ticks == [10, 20, 30, 40, 50, 60, 70, 80, 90]

    def test_two_processes_interleave(self):
        order = []

        def builder(top):
            mod = Module("m", parent=top)

            def fast():
                for _ in range(3):
                    yield 10
                    order.append("fast")

            def slow():
                for _ in range(2):
                    yield 15
                    order.append("slow")

            mod.add_process(fast)
            mod.add_process(slow)

        sim, _ = build(builder)
        sim.run()
        # At t=30 both processes resume; the one whose timer was scheduled
        # first (slow, at t=15) is activated first — deterministic ordering.
        assert order == ["fast", "slow", "fast", "slow", "fast"]

    def test_stop_ends_run(self):
        count = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 10
                    count.append(1)
                    if len(count) == 5:
                        sim.stop()

            mod.add_process(proc)

        sim, _ = build(builder)
        sim.run()
        assert len(count) == 5

    def test_no_top_module_raises(self):
        sim = Simulator()
        with pytest.raises(SchedulerError):
            sim.run()

    def test_run_until(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 7

            mod.add_process(proc)

        sim, _ = build(builder)
        sim.run_until(100)
        assert sim.now <= 100
        with pytest.raises(SchedulerError):
            sim.run_until(sim.now - 1)

    def test_stats_accumulate(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                for _ in range(4):
                    yield 5

            mod.add_process(proc)

        sim, _ = build(builder)
        stats = sim.run()
        assert stats.process_activations >= 4
        assert stats.timed_steps >= 4
        assert stats.wallclock_seconds >= 0.0
        assert set(stats.as_dict()) >= {"delta_cycles", "timed_steps"}


class TestEvents:
    def test_event_wait_and_notify(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield WaitEvent(ev)
                log.append(("woke", sim.now))

            def notifier():
                yield 42
                ev.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [("woke", 42)]

    def test_yield_event_directly(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield ev
                log.append(sim.now)

            def notifier():
                yield 10
                ev.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [10]

    def test_timed_notification(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield ev
                log.append(sim.now)

            def notifier():
                yield 5
                ev.notify(20)

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [25]

    def test_earlier_notification_overrides_later(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield ev
                log.append(sim.now)

            def notifier():
                yield 5
                ev.notify(50)
                ev.notify(10)  # earlier, should win

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [15]

    def test_cancelled_notification_does_not_fire(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield ev
                log.append(sim.now)

            def canceller():
                yield 5
                ev.notify(10)
                yield 2
                ev.cancel()

            mod.add_process(waiter)
            mod.add_process(canceller)

        sim, _ = build(builder)
        sim.run()
        assert log == []

    def test_wait_any(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev_a = mod.add_event(Event("a"))
            ev_b = mod.add_event(Event("b"))

            def waiter():
                yield WaitAny(ev_a, ev_b)
                log.append(sim.now)

            def notifier():
                yield 30
                ev_b.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [30]

    def test_negative_delay_rejected(self):
        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def proc():
                yield 1
                ev.notify(-3)

            mod.add_process(proc)

        sim, _ = build(builder)
        with pytest.raises(ProcessError):
            sim.run()


class TestDeltaCycles:
    def test_delta_notification_wakes_at_the_same_time_one_delta_later(self):
        observed = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("ev"))

            def writer():
                yield 10
                ev.notify(0)
                observed.append(("notified", sim.now))
                yield 0
                observed.append(("writer, next delta", sim.now))

            def reader():
                yield ev
                observed.append(("reader woke", sim.now))

            mod.add_process(writer)
            mod.add_process(reader)

        sim, _ = build(builder)
        sim.run()
        # The notification and the direct delta wait land in one delta
        # cycle, in the order they were scheduled.
        assert observed == [("notified", 10), ("reader woke", 10),
                            ("writer, next delta", 10)]
        assert sim.stats.delta_cycles == 3

    def test_immediate_notification_wakes_within_the_same_time(self):
        observed = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("ev"))

            def watcher():
                while True:
                    yield ev
                    observed.append(sim.now)

            def notifier():
                for delay in (5, 5, 5):
                    yield delay
                    ev.notify()

            mod.add_process(watcher)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert observed == [5, 10, 15]


def periodic_trigger(top, period=10):
    """An event notified every ``period`` time units by a thread process."""
    tick = top.add_event(Event("tick"))

    def drive():
        while True:
            yield period
            tick.notify()

    top.add_process(drive)
    return tick


class TestMethodProcesses:
    def test_method_process_runs_on_each_trigger(self):
        counts = {"n": 0}

        def builder(top):
            tick = periodic_trigger(top)
            mod = Module("m", parent=top)

            def on_tick():
                counts["n"] += 1

            mod.add_method(on_tick, sensitivity=[tick])

        sim, _ = build(builder)
        sim.run(100)
        # Once at time zero (as in SystemC), then on every tick 10..100.
        assert counts["n"] == 11
        assert sim.now == 100

    def test_method_process_on_a_module_counts_a_free_running_trigger(self):
        class Counter(Module):
            def __init__(self, name, tick, parent=None):
                super().__init__(name, parent)
                self.value = 0
                self.add_method(self.count, sensitivity=[tick])

            def count(self):
                self.value += 1

        top = Module("top")
        tick = periodic_trigger(top)
        counter = Counter("counter", tick, parent=top)
        sim = Simulator(top)
        sim.run(105)
        assert counter.value == 11
        assert sim.now == 105

    def test_method_requires_sensitivity(self):
        mod = Module("m")
        with pytest.raises(Exception):
            mod.add_method(lambda: None, sensitivity=[])


class TestErrorHandling:
    def test_process_exception_is_wrapped(self):
        def builder(top):
            mod = Module("m", parent=top)

            def bad():
                yield 5
                raise ValueError("boom")

            mod.add_process(bad)

        sim, _ = build(builder)
        with pytest.raises(ProcessError):
            sim.run()

    def test_yielding_garbage_raises(self):
        def builder(top):
            mod = Module("m", parent=top)

            def bad():
                yield "not a wait request"

            mod.add_process(bad)

        sim, _ = build(builder)
        with pytest.raises(ProcessError):
            sim.run()

    def test_delta_cycle_limit(self):
        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("ping"))

            def ping_pong():
                while True:
                    ev.notify(0)
                    yield WaitDelta()

            mod.add_process(ping_pong)

        sim, _ = build(builder)
        with pytest.raises(DeltaCycleLimitExceeded):
            sim.run()


class TestModuleHierarchy:
    def test_full_names(self):
        top = Module("top")
        mid = Module("mid", parent=top)
        leaf = Module("leaf", parent=mid)
        assert leaf.full_name == "top.mid.leaf"
        assert top.find("mid.leaf") is leaf

    def test_duplicate_child_name_rejected(self):
        top = Module("top")
        Module("a", parent=top)
        with pytest.raises(Exception):
            Module("a", parent=top)

    def test_descendants_order(self):
        top = Module("top")
        a = Module("a", parent=top)
        b = Module("b", parent=top)
        c = Module("c", parent=a)
        names = [m.name for m in top.descendants()]
        assert names == ["top", "a", "c", "b"]
        assert a in top.children and b in top.children and c not in top.children

    def test_find_missing_raises(self):
        top = Module("top")
        with pytest.raises(Exception):
            top.find("ghost")
