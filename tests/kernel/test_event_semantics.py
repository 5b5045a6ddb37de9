"""Event notification semantics: overrides and end-time invariants.

Covers the corner cases the epoch-checked queues were introduced for:

* delta-overrides-timed (the stale timed heap entry must not fire — the
  historical double-wake);
* earlier-timed-overrides-later (with the stale later entry ignored);
* re-notification: a repeated request fires once, an immediate ``notify()``
  ends a pending one, and a fired event can be notified again;
* immediate ``notify()`` with and without waiters — the wake order, the
  ``sync`` probe's call sequence and ``events_fired`` — and a process
  woken exactly once per wait;
* ``run(duration)`` / ``run_until`` end-time invariants: ``now`` always
  lands on the requested deadline (SystemC ``sc_start`` semantics), and
  ``stats.end_time`` equals the final ``now``;
* ``int`` waits, including the task context's poll back-off.
"""

import pytest

from repro.kernel import Event, Module, Probes, Simulator


def build(top_builder):
    top = Module("top")
    top_builder(top)
    sim = Simulator(top)
    return sim


class TestNotificationOverrides:
    def test_delta_overrides_timed_no_double_wake(self):
        """The historical double-wake: a delta override leaves a stale timed
        heap entry behind; when it pops it must not fire the event again."""
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))
            builder.ev = ev

            # The watcher waits on the event again after every wake, so a
            # double fire is observable as a double wake.
            def watcher():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def arm():
                yield 2
                ev.notify(10)   # timed: heap entry @12
                ev.notify(0)    # delta override: fires next delta @2
                yield 5         # the stale @12 entry is still queued at 7
                builder.heap = list(sim._heap)
                yield 20        # run past the stale @12 entry

            mod.add_process(watcher)
            mod.add_process(arm)

        sim = build(builder)
        sim.run()
        # Exactly one notification wake at t=2 — nothing at t=12.
        assert wakes == [2]
        # White-box: the stale heap entry's epoch no longer matches.
        stale = [entry for entry in builder.heap if entry[2] is builder.ev]
        assert len(stale) == 1
        assert all(entry[3] != builder.ev._epoch for entry in stale)

    def test_earlier_timed_overrides_later_stale_entry_ignored(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 1
                ev.notify(50)  # heap entry @51
                ev.notify(5)   # earlier wins: fires @6
                yield 100      # run past the stale @51 entry

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [6]

    def test_later_timed_notification_is_ignored(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 1
                ev.notify(5)    # fires @6
                ev.notify(50)   # later: ignored entirely
                yield 100

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [6]

    def test_delta_pending_wins_over_new_timed(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 4
                ev.notify(0)    # delta pending
                ev.notify(3)    # timed after a pending delta: ignored
                yield 10

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [4]


class TestRenotify:
    """A notification fires once however often it is requested before it
    fires, an immediate ``notify()`` ends whatever was pending, and an event
    that fired can be notified again."""

    def test_repeated_delta_notification_fires_once(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 3
                ev.notify(0)
                ev.notify(0)  # already pending as a delta: no second entry
                yield 5

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [3]
        assert stats.events_fired == 3  # driver's two timers + one delta

    def test_immediate_notify_ends_a_pending_delta_notification(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 2
                ev.notify(0)  # delta entry, made stale by the next line
                ev.notify()
                yield 5

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [2]
        assert stats.events_fired == 3  # two timers + the immediate fire

    def test_immediate_notify_ends_a_pending_timed_notification(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 2
                ev.notify(10)  # heap entry @12, made stale by the next line
                ev.notify()
                yield 20

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [2]

    def test_event_fires_again_when_notified_after_it_fired(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                while True:
                    yield ev
                    wakes.append(sim.now)

            def driver():
                yield 1
                ev.notify(5)   # fires @6
                yield 10
                ev.notify(5)   # fires @16: the first one is no longer pending
                yield 10

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [6, 16]


class TestRunEndTimeInvariants:
    def test_run_duration_clamps_now_when_activity_drains(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 10  # single event, then nothing

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run(95)
        assert sim.now == 95
        assert stats.end_time == 95

    def test_run_until_lands_exactly_on_the_deadline(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 7

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run_until(100)
        assert sim.now == 100
        assert stats.end_time == 100
        # A second run continues from the clamped time.
        stats = sim.run(14)
        assert sim.now == 114
        assert stats.end_time == 114

    def test_run_without_duration_ends_at_last_activity(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 10
                yield 25

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run()
        assert sim.now == 35
        assert stats.end_time == 35

    def test_end_time_recorded_after_clamp(self):
        """stats.end_time must equal the *final* now, not the pre-clamp one
        (it used to be recorded before the post-loop clamp ran)."""
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 3

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run(50)
        assert (sim.now, stats.end_time) == (50, 50)

    def test_process_returning_early_still_ends_on_the_deadline(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                for _ in range(3):
                    yield 10  # then returns at 30

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run(1000)
        assert (sim.now, stats.end_time) == (1000, 1000)
        assert sim.last_activity_time == 30
        # Drain semantics on request: back to the last timed step.
        sim.trim_to_last_activity()
        assert (sim.now, sim.stats.end_time) == (30, 30)

    def test_trim_is_a_no_op_while_activity_is_pending(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 7

            mod.add_process(proc)

        sim = build(builder)
        sim.run(100)
        assert sim.pending_activity
        sim.trim_to_last_activity()
        assert (sim.now, sim.stats.end_time) == (100, 100)


class TestIntWaits:
    def test_an_int_wait_schedules_every_yield(self):
        times = []

        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                for _ in range(4):
                    yield 30  # the same int, yielded again and again
                    times.append(sim.now)

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run()
        assert times == [30, 60, 90, 120]
        assert stats.timed_steps == 4

    def test_task_context_poll_wait_is_the_interval_in_time_units(self):
        from repro.sw.task import TaskContext

        class _StubApi:
            calls = 0

        ctx = TaskContext(pe_id=0, apis=[_StubApi()], clock_period=10,
                          poll_interval_cycles=2)
        assert ctx._poll_wait == 20 and ctx._poll_wait.__class__ is int
        # The interval is at least one cycle.
        ctx = TaskContext(pe_id=0, apis=[_StubApi()], clock_period=10,
                          poll_interval_cycles=0)
        assert ctx._poll_wait == 10

    def test_wait_flag_backs_off_with_a_plain_int_wait(self):
        from repro.sw.task import TaskContext

        class _FlagApi:
            calls = 0

            def __init__(self, values):
                self.values = iter(values)

            def read(self, vptr, offset=0):
                return next(self.values)
                yield  # a generator, like the real API's read

        ctx = TaskContext(pe_id=0, apis=[_FlagApi([0, 0, 1])],
                          clock_period=10, poll_interval_cycles=3)
        flag = ctx.wait_flag(0x100)
        waits = []
        with pytest.raises(StopIteration) as done:
            while True:
                waits.append(next(flag))
        assert waits == [30, 30]
        assert done.value.value == 3  # the poll count


class TestDeltaWaitOrdering:
    def test_direct_delta_wait_interleaves_with_event_deltas(self):
        """Delta wakes preserve notification order across both mechanisms."""
        order = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def event_waiter():
                yield ev
                order.append("event")

            def delta_waiter():
                yield 1
                yield 0
                order.append("delta")

            def driver():
                yield 1
                ev.notify(0)

            mod.add_process(event_waiter)
            mod.add_process(delta_waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        # delta_waiter's delta wait is scheduled during its activation, which
        # precedes driver's notify(0) in the same evaluation phase — so the
        # direct delta wake fires first, exactly as the per-wait waker event
        # did before the fast path.
        assert order == ["delta", "event"]


class TestImmediateNotify:
    """``notify()`` with no delay: who wakes, what the ``sync`` probe sees
    and what ``events_fired`` counts."""

    def test_no_waiter_fires_counts_and_cancels_the_pending_one(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def late_waiter():
                yield 5
                yield ev
                wakes.append(sim.now)

            def driver():
                yield 2
                ev.notify(10)  # heap entry @12
                ev.notify()    # nobody waits: fires, and @12 is now stale
                yield 18
                ev.notify()    # @20

            mod.add_process(late_waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [20]
        # Three timer wakes and the two immediate fires; the stale @12
        # entry pops without firing.
        assert stats.events_fired == 5

    def test_a_woken_waiter_is_not_woken_again_by_its_old_event(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            a, c = mod.add_event(Event("a")), mod.add_event(Event("c"))

            def waiter():
                yield a
                wakes.append(("a", sim.now))
                yield c  # a's second fire must not resume this wait
                wakes.append(("c", sim.now))

            def driver():
                yield 1
                a.notify()
                yield 1
                a.notify()
                yield 1
                c.notify()

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [("a", 1), ("c", 3)]

    def test_a_looping_waiter_wakes_on_every_fire(self):
        runs = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def watcher():
                while True:
                    yield ev
                    runs.append(sim.now)

            def driver():
                for _ in range(3):
                    yield 4
                    ev.notify()

            mod.add_process(watcher)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert runs == [4, 8, 12]

    def test_a_finished_process_is_not_resumed(self):
        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def one_shot():
                yield ev  # then returns: terminated

            def driver():
                yield 3
                ev.notify()
                yield 3
                ev.notify()  # nobody waits any more

            builder.one_shot = mod.add_process(one_shot)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert builder.one_shot.terminated
        # t=0: one_shot, driver; t=3: driver, then one_shot returns;
        # t=6: driver returns.
        assert stats.process_activations == 5
        assert stats.events_fired == 4  # two timers + two immediate fires

    def test_immediate_wakes_run_ahead_of_that_cycles_delta_wakes(self):
        order = []

        def builder(top):
            mod = Module("m", parent=top)
            now_ev = mod.add_event(Event("now"))
            delta_ev = mod.add_event(Event("delta"))

            def delta_waiter():
                yield delta_ev
                order.append(("delta", sim.now))

            def immediate_waiter():
                yield now_ev
                order.append(("immediate", sim.now))

            def driver():
                yield 1
                delta_ev.notify(0)  # scheduled first ...
                now_ev.notify()     # ... but this waiter is runnable at once

            mod.add_process(delta_waiter)
            mod.add_process(immediate_waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert order == [("immediate", 1), ("delta", 1)]
        # One delta cycle at 0, one at 1 for the driver, and one more at 1
        # that runs both waiters together.
        assert stats.delta_cycles == 3

    def test_sync_probe_sees_one_notify_then_the_wakes_in_order(self):
        calls = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))
            idle = mod.add_event(Event("idle"))

            def first():
                yield ev

            def second():
                yield ev

            def driver():
                yield 1
                idle.notify()  # no waiter at all
                ev.notify()

            for body in (first, second, driver):
                mod.add_process(body)

        probes = Probes()
        probes.subscribe(sync=lambda kind, event, process: calls.append(
            (kind, event.name, process.name.rsplit(".", 1)[-1])))
        top = Module("top")
        builder(top)
        sim = Simulator(top, probes=probes)
        stats = sim.run()
        assert calls == [
            ("notify", "idle", "driver"),
            ("notify", "go", "driver"),
            ("wake", "go", "first"),    # waiters in the order they waited
            ("wake", "go", "second"),
        ]
        assert stats.events_fired == 3  # driver's timer + the two notifies
