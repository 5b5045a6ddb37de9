"""Event notification semantics: override, cancel and end-time invariants.

Covers the corner cases the epoch-checked queues were introduced for:

* cancel-then-renotify (a cancelled notification must never fire, the
  renotified one must fire exactly once at the right time);
* delta-overrides-timed (the stale timed heap entry must not fire — the
  historical double-wake);
* earlier-timed-overrides-later (with the stale later entry ignored);
* immediate ``notify()`` over every waiter-list shape (none, static-only,
  stale token, terminated, probed) — the wake order, the ``sync`` probe's
  call sequence and ``events_fired``;
* ``run(duration)`` / ``run_until`` end-time invariants: ``now`` always
  lands on the requested deadline (SystemC ``sc_start`` semantics), and
  ``stats.end_time`` equals the final ``now``.
"""

import pytest

from repro.kernel import (
    Event,
    Module,
    Probes,
    Simulator,
    WaitAny,
    WaitCycles,
    WaitDelta,
)


def build(top_builder):
    top = Module("top")
    top_builder(top)
    sim = Simulator(top)
    return sim


class TestCancelAndRenotify:
    def test_cancelled_delta_notification_does_not_fire(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def waiter():
                yield ev
                wakes.append(sim.now)

            def driver():
                yield 5
                ev.notify(0)
                ev.cancel()  # same evaluation: the delta must not fire
                yield 10

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == []

    def test_cancel_then_renotify_timed_fires_once_at_new_time(self):
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
                ev.notify(10)   # heap entry @12
                yield 1
                ev.cancel()     # @12 is now stale
                ev.notify(4)    # fires @7
                yield 20

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [7]

    def test_cancel_then_renotify_delta_fires_once(self):
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
                ev.cancel()
                ev.notify(0)  # only this delta notification may fire
                yield 5

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [3]


class TestNotificationOverrides:
    def test_delta_overrides_timed_no_double_wake(self):
        """The historical double-wake: a delta override leaves a stale timed
        heap entry behind; when it pops it must not fire the event again."""
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))
            builder.ev = ev

            def watcher():
                wakes.append(sim.now)

            # Static sensitivity: *every* fire of the event wakes the
            # watcher, so a double fire is observable as a double wake.
            def arm():
                yield 2
                ev.notify(10)   # timed: heap entry @12
                ev.notify(0)    # delta override: fires next delta @2
                yield 20        # run past the stale @12 entry

            method = mod.add_method(watcher, sensitivity=[ev])
            mod.add_process(arm)
            builder.method = method

        sim = build(builder)
        sim.run()
        # One wake at elaboration (SystemC runs methods once at time zero)
        # plus exactly one notification wake at t=2 — nothing at t=12.
        assert wakes == [0, 2]
        # White-box: the stale heap entry's epoch no longer matches.
        stale = [entry for entry in sim._timed_events._heap
                 if entry[2] is builder.ev]
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

    def test_stop_suppresses_the_deadline_clamp(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 10
                    if sim.now >= 30:
                        sim.stop()

            mod.add_process(proc)

        sim = build(builder)
        stats = sim.run(1000)
        assert sim.now == 30
        assert stats.end_time == 30

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


class TestWaitCycles:
    def test_wait_cycles_precomputes_duration(self):
        wait = WaitCycles(5, period=10)
        assert wait.duration == 50
        with pytest.raises(ValueError):
            WaitCycles(-1, period=10)
        with pytest.raises(ValueError):
            WaitCycles(1, period=0)

    def test_reused_wait_cycles_object_schedules_every_yield(self):
        times = []

        def builder(top):
            mod = Module("m", parent=top)
            wait = WaitCycles(3, period=10)

            def proc():
                for _ in range(4):
                    yield wait  # the same object, reused across yields
                    times.append(sim.now)

            mod.add_process(proc)

        sim = build(builder)
        sim.run()
        assert times == [30, 60, 90, 120]

    def test_task_context_wait_cycles_cache(self):
        from repro.sw.task import TaskContext

        class _StubApi:
            calls = 0

        ctx = TaskContext(pe_id=0, apis=[_StubApi()], clock_period=10)
        assert ctx.wait_cycles(2) is ctx.wait_cycles(2)
        assert ctx.wait_cycles(2).duration == 20


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
                yield WaitDelta()
                order.append("delta")

            def driver():
                yield 1
                ev.notify(0)

            mod.add_process(event_waiter)
            mod.add_process(delta_waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        # delta_waiter's WaitDelta is scheduled during its activation, which
        # precedes driver's notify(0) in the same evaluation phase — so the
        # direct delta wake fires first, exactly as the per-wait waker event
        # did before the fast path.
        assert order == ["delta", "event"]

class TestImmediateNotify:
    """``notify()`` with no delay: who wakes, what the ``sync`` probe sees
    and what ``events_fired`` counts — for every shape of waiter list the
    single wake loop in ``Simulator._trigger_event_now`` has to handle."""

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

    def test_static_only_wakes_on_every_fire(self):
        runs = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))
            mod.add_method(lambda: runs.append(sim.now), sensitivity=[ev])

            def driver():
                for _ in range(3):
                    yield 4
                    ev.notify()

            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert runs == [0, 4, 8, 12]  # once at time zero, then per fire

    def test_stale_token_waiter_is_not_woken(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            a, b, c = (mod.add_event(Event(n)) for n in "abc")

            def waiter():
                yield WaitAny(a, b)
                wakes.append(("any", sim.now))
                yield c  # b still holds the registration made above
                wakes.append(("c", sim.now))

            def driver():
                yield 1
                a.notify()
                yield 1
                b.notify()  # stale: the waiter moved on to c
                yield 1
                c.notify()

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert wakes == [("any", 1), ("c", 3)]

    def test_terminated_static_thread_is_skipped(self):
        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def one_shot():
                yield 1  # then returns: terminated, still statically listed

            def driver():
                yield 3
                ev.notify()

            builder.one_shot = mod.add_process(one_shot, sensitivity=[ev])
            mod.add_process(driver)

        sim = build(builder)
        sim.run()
        assert builder.one_shot.terminated
        assert sim.stats.process_activations == 4

    def test_sync_probe_sees_one_notify_then_the_wakes_in_order(self):
        calls = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))
            idle = mod.add_event(Event("idle"))
            mod.add_method(lambda: None, sensitivity=[ev], name="static")

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
            ("wake", "go", "static"),   # static sensitivities first,
            ("wake", "go", "first"),    # then waiters in registration order
            ("wake", "go", "second"),
        ]
        assert stats.events_fired == 3  # driver's timer + the two notifies
