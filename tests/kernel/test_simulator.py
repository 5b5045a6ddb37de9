"""Tests for the discrete-event scheduler, processes, events and modules."""

import pytest

from repro.kernel import (
    DeltaCycleLimitExceeded,
    Event,
    Module,
    ProcessError,
    SchedulerError,
    Simulator,
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

    def test_a_process_that_returns_ends_the_run(self):
        count = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                for _ in range(5):
                    yield 10
                    count.append(1)

            builder.process = mod.add_process(proc)

        sim, _ = build(builder)
        sim.run()
        assert len(count) == 5
        assert sim.now == 50
        assert builder.process.terminated
        assert not sim.pending_activity

    def test_run_continues_where_the_last_run_left_off(self):
        ticks = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 10
                    ticks.append(sim.now)

            mod.add_process(proc)

        sim, _ = build(builder)
        sim.run(25)
        assert (ticks, sim.now) == ([10, 20], 25)
        sim.run(30)
        assert (ticks, sim.now) == ([10, 20, 30, 40, 50], 55)

    def test_same_time_timers_wake_in_scheduling_order(self):
        order = []

        def builder(top):
            mod = Module("m", parent=top)

            def late_scheduler():
                yield 10
                yield 10  # due at 20, scheduled at 10
                order.append("late")

            def early_scheduler():
                yield 20  # due at 20, scheduled at 0
                order.append("early")

            mod.add_process(late_scheduler)
            mod.add_process(early_scheduler)

        sim, _ = build(builder)
        sim.run()
        assert order == ["early", "late"]

    def test_zero_wait_resumes_at_the_same_time_in_a_new_delta_cycle(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 5
                yield 0
                log.append(sim.now)

            mod.add_process(proc)

        sim, _ = build(builder)
        stats = sim.run()
        assert log == [5]
        # Delta cycles at 0, at 5 and after the zero wait at 5.
        assert (stats.delta_cycles, stats.timed_steps) == (3, 1)

    def test_no_top_module_raises(self):
        sim = Simulator()
        with pytest.raises(SchedulerError):
            sim.run()

    def test_add_top_after_elaboration_raises(self):
        sim = Simulator(Module("top"))
        sim.elaborate()
        with pytest.raises(SchedulerError):
            sim.add_top(Module("late"))

    def test_run_until_a_past_time_raises(self):
        sim = Simulator(Module("top"))
        sim.run(50)
        with pytest.raises(SchedulerError):
            sim.run_until(10)

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
                yield ev
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
                yield 20  # a later notify is the notifier's own timer
                ev.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [25]

    def test_waiting_on_one_of_two_events_ignores_the_other(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev_a = mod.add_event(Event("a"))
            ev_b = mod.add_event(Event("b"))

            def waiter():
                yield ev_b
                log.append(sim.now)

            def notifier():
                yield 10
                ev_a.notify()
                yield 20
                ev_b.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [30]

    def test_waiters_wake_in_the_order_they_waited(self):
        log = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter(name, delay):
                def body():
                    yield delay
                    yield ev
                    log.append(name)
                return body

            mod.add_process(waiter("second", 2), name="second")
            mod.add_process(waiter("first", 1), name="first")

            def notifier():
                yield 5
                ev.notify()

            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == ["first", "second"]

    def test_an_event_waited_on_is_bound_without_add_event(self):
        log = []
        ev = Event("loose")

        def builder(top):
            mod = Module("m", parent=top)

            def waiter():
                yield ev  # binds the event to the simulator
                log.append(sim.now)

            def notifier():
                yield 5
                ev.notify()

            mod.add_process(waiter)
            mod.add_process(notifier)

        sim, _ = build(builder)
        sim.run()
        assert log == [5]

    def test_notify_on_an_unbound_event_raises(self):
        with pytest.raises(RuntimeError, match="not attached"):
            Event("loose").notify()

    def test_notify_takes_no_delay(self):
        with pytest.raises(TypeError):
            Event("go").notify(5)


class TestDeltaCycles:
    def test_a_notify_and_a_delta_wait_wake_in_one_delta_cycle(self):
        observed = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("ev"))

            def writer():
                yield 10
                ev.notify()
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
        # The notified reader and the writer's delta wait land in one delta
        # cycle at 10, the immediate wake first.
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


class TestModuleProcesses:
    def test_process_on_a_module_counts_a_free_running_trigger(self):
        class Counter(Module):
            def __init__(self, name, tick, parent=None):
                super().__init__(name, parent)
                self.tick = tick
                self.value = 0
                self.add_process(self.count)

            def count(self):
                while True:
                    yield self.tick
                    self.value += 1

        top = Module("top")
        tick = periodic_trigger(top)
        counter = Counter("counter", tick, parent=top)
        sim = Simulator(top)
        sim.run(105)
        # One wake per tick at 10..100.
        assert counter.value == 10
        assert sim.now == 105
        assert [p.name for p in counter.processes] == ["top.counter.count"]

    def test_process_runs_on_each_trigger(self):
        counts = {"n": 0}

        def builder(top):
            tick = periodic_trigger(top)
            mod = Module("m", parent=top)

            def on_tick():
                while True:
                    yield tick
                    counts["n"] += 1

            mod.add_process(on_tick)

        sim, _ = build(builder)
        sim.run(100)
        # Once on every tick 10..100.
        assert counts["n"] == 10
        assert sim.now == 100

    def test_a_factory_returning_a_generator_is_a_process(self):
        log = []

        def wait_then_log(delay):
            yield delay
            log.append(sim.now)

        def builder(top):
            mod = Module("m", parent=top)
            builder.process = mod.add_process(lambda: wait_then_log(7),
                                              name="factory")

        sim, _ = build(builder)
        sim.run()
        assert log == [7]
        assert builder.process.name == "top.m.factory"
        assert builder.process.terminated

    def test_process_name_defaults_to_the_body_name(self):
        mod = Module("m", parent=Module("top"))

        def body():
            yield 1

        assert mod.add_process(body).name == "top.m.body"
        assert mod.add_process(body, name="other").name == "top.m.other"

    def test_add_process_takes_no_sensitivity(self):
        mod = Module("m")
        ev = mod.add_event(Event("go"))

        def body():
            yield ev

        with pytest.raises(TypeError):
            mod.add_process(body, sensitivity=[ev])

    def test_processes_start_at_time_zero_in_hierarchy_order(self):
        order = []

        def starter(name):
            def body():
                order.append((name, sim.now))
                yield 1
            return body

        top = Module("top")
        child = Module("child", parent=top)
        Module("grandchild", parent=child).add_process(
            starter("grandchild"), name="p")
        top.add_process(starter("top"), name="p")
        child.add_process(starter("child"), name="p")
        sim = Simulator(top)
        sim.run()
        # Depth-first over the hierarchy, each module's processes in
        # registration order.
        assert order == [("top", 0), ("child", 0), ("grandchild", 0)]


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

    def test_negative_wait_is_a_process_error_naming_the_process(self):
        def builder(top):
            mod = Module("m", parent=top)

            def bad():
                yield 5
                yield -1

            builder.process = mod.add_process(bad)

        sim, _ = build(builder)
        with pytest.raises(ProcessError,
                           match=r"'top\.m\.bad' yielded negative wait -1"):
            sim.run()
        assert builder.process.terminated
        assert sim.now == 5

    @pytest.mark.parametrize("request_", [True, 2.5, None, [3]])
    def test_any_other_yield_is_a_process_error(self, request_):
        def builder(top):
            mod = Module("m", parent=top)

            def bad():
                yield request_

            builder.process = mod.add_process(bad)

        sim, _ = build(builder)
        with pytest.raises(ProcessError, match=r"'top\.m\.bad' yielded "
                                               r"non-wait object"):
            sim.run()
        assert builder.process.terminated

    def test_factory_returning_no_generator_is_a_process_error(self):
        def builder(top):
            mod = Module("m", parent=top)
            builder.process = mod.add_process(lambda: 7, name="seven")

        sim, _ = build(builder)
        with pytest.raises(ProcessError,
                           match=r"'top\.m\.seven' raised TypeError"
                                 r".*returned int, not a generator"):
            sim.run()
        assert builder.process.terminated
        assert sim.stats.process_activations == 1

    def test_run_reentered_from_a_process_is_a_process_error(self):
        def builder(top):
            mod = Module("m", parent=top)

            def reenter():
                yield 1
                sim.run()

            mod.add_process(reenter)

        sim, _ = build(builder)
        with pytest.raises(ProcessError, match=r"raised SchedulerError"):
            sim.run()

    @pytest.mark.parametrize("fault", ["raise", "refuse"])
    def test_a_process_error_keeps_the_rest_of_its_batch(self, fault):
        """Two processes woken at t=1, the first fails: a later ``run()``
        still evaluates the second at t=1."""
        log = []

        def builder(top):
            mod = Module("m", parent=top)

            def bad():
                yield 1
                if fault == "raise":
                    raise ValueError("boom")
                yield -1

            def good():
                yield 1
                log.append(sim.now)

            mod.add_process(bad)
            mod.add_process(good)

        sim, _ = build(builder)
        with pytest.raises(ProcessError):
            sim.run()
        assert sim.now == 1 and log == []
        assert sim.pending_activity
        sim.run()
        assert log == [1]

    @pytest.mark.parametrize("first", ["delta_wait", "immediate_notify"])
    def test_a_recovered_process_error_ends_its_delta_cycle_first(self,
                                                                  first):
        """At t=1, p1 waits a delta (or notifies ``ev``, which w waits on),
        p2 fails and p3, the rest of the batch, wakes x at once and waits a
        delta.  A later ``run()`` evaluates p3 alone before the next delta
        cycle's wakes, so the trace and the four counters equal a run in
        which p2 returns instead of raising."""
        def scenario(fail):
            trace = []

            def builder(top):
                mod = Module("m", parent=top)
                ev = mod.add_event(Event("ev"))
                kick = mod.add_event(Event("kick"))

                def p1():
                    yield 1
                    trace.append("p1")
                    if first == "delta_wait":
                        yield 0
                        trace.append("p1 again")
                    else:
                        ev.notify()

                def p2():
                    yield 1
                    trace.append("p2")
                    if fail:
                        raise ValueError("boom")

                def p3():
                    yield 1
                    trace.append("p3")
                    kick.notify()
                    yield 0
                    trace.append("p3 again")

                def waiter(event, name):
                    def body():
                        yield event
                        trace.append(name)
                    return body

                for body in (p1, p2, p3):
                    mod.add_process(body)
                mod.add_process(waiter(ev, "w"), name="w")
                mod.add_process(waiter(kick, "x"), name="x")

            sim, _ = build(builder)
            if fail:
                with pytest.raises(ProcessError, match="boom"):
                    sim.run()
                assert trace == ["p1", "p2"]
            sim.run()
            stats = sim.stats
            return trace, sim.now, (stats.delta_cycles, stats.timed_steps,
                                    stats.process_activations,
                                    stats.events_fired)

        assert scenario(fail=True) == scenario(fail=False)

    def test_delta_cycle_limit(self):
        def builder(top):
            mod = Module("m", parent=top)

            def spin():
                while True:
                    yield 0

            mod.add_process(spin)

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
