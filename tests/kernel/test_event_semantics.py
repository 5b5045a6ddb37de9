"""Event notification semantics and end-time invariants.

Covers:

* re-notification: every notify fires and counts, a waiter wakes once per
  wait however often its event is notified, and a fired event can be
  notified again;
* immediate ``notify()`` with and without waiters — the wake order (ahead
  of that delta cycle's ``yield 0`` wakes), the ``sync`` probe's call
  sequence for watched processes (none for the others, and no hook code
  at all with nobody subscribed) and ``events_fired`` — a notify that
  nobody waits for is not remembered, and a process is woken exactly once
  per wait;
* delta waits woken in the order they were yielded;
* ``next_activity_time()``, which is exact: ``now`` while work is runnable
  at the current time, else the time the next timed wait resumes;
* ``run(duration)`` / ``run_until`` end-time invariants: ``now`` always
  lands on the requested deadline (SystemC ``sc_start`` semantics), and
  ``stats.end_time`` equals the final ``now``;
* ``int`` waits, including the task context's poll back-off.
"""

import pytest

from repro.kernel import Event, Module, ProcessError, Probes, Simulator


def build(top_builder):
    top = Module("top")
    top_builder(top)
    sim = Simulator(top)
    return sim


class TestRenotify:
    """Every notify fires and counts; a waiter wakes once per wait, and an
    event that fired can be notified again."""

    def test_repeated_notify_wakes_a_waiter_once_and_counts_each(self):
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
                ev.notify()
                ev.notify()  # the waiter is already runnable: wakes nobody
                yield 5

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [3]
        assert stats.events_fired == 4  # driver's two timers + two notifies

    def test_a_waiter_that_waits_again_wakes_on_a_later_notify_at_once(self):
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
                ev.notify()
                yield 0  # runs beside the woken waiter, which waits again
                ev.notify()

            mod.add_process(waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [3, 3]
        # One at 0; at 3 the driver, then the waiter with the driver's
        # delta wake, then the waiter again.
        assert stats.delta_cycles == 4
        assert stats.events_fired == 4  # a timer, a delta wake, two notifies

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
                yield 6
                ev.notify()
                yield 10
                ev.notify()
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
    def test_delta_waits_wake_in_the_order_they_were_yielded(self):
        order = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def delta_waiter(name, wait):
                def body():
                    yield wait
                    yield 0
                    order.append(name)
                return body

            # Registered first, but it yields 0 last: after the notify.
            mod.add_process(delta_waiter("c", ev), name="c")
            mod.add_process(delta_waiter("a", 1), name="a")

            def driver():
                yield 1
                ev.notify()
                yield 0
                order.append("b")

            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert order == ["a", "b", "c"]
        # One at 0; at 1 a and the driver, then c (woken at once) with
        # their delta wakes, then c's.
        assert stats.delta_cycles == 4


class TestNextActivityTime:
    """``next_activity_time()`` is exact: ``now`` while work is runnable
    at the current time, else when the next timed wait resumes."""

    def test_is_none_once_nothing_is_left(self):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                yield 10

            mod.add_process(proc)

        sim = build(builder)
        sim.run()
        assert sim.next_activity_time() is None

    @pytest.mark.parametrize("window, next_wake", [
        (5, 10),   # the window ends before the wake at 10
        (10, 20),  # it ends on the wake at 10, which waits again
        (15, 20),  # it ends between the wakes at 10 and 20
    ])
    def test_is_the_next_wake_after_a_window(self, window, next_wake):
        def builder(top):
            mod = Module("m", parent=top)

            def proc():
                while True:
                    yield 10

            mod.add_process(proc)

        sim = build(builder)
        sim.run(window)
        assert sim.now == window
        assert sim.next_activity_time() == next_wake

    def test_is_the_earliest_of_several_pending_times(self):
        def builder(top):
            mod = Module("m", parent=top)
            for name, wait in (("a", 30), ("b", 20), ("c", 50), ("d", 20)):
                def proc(wait=wait):
                    yield wait
                mod.add_process(proc, name=name)

        sim = build(builder)
        sim.run(0)
        assert sim.next_activity_time() == 20
        sim.run(20)
        assert sim.next_activity_time() == 30

    def test_a_process_parked_on_an_event_adds_no_time(self):
        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("never"))

            def parked():
                yield ev

            def timer():
                yield 40

            mod.add_process(parked)
            mod.add_process(timer)

        sim = build(builder)
        sim.run(0)
        assert sim.next_activity_time() == 40
        sim.run()
        assert sim.next_activity_time() is None
        assert not sim.pending_activity

    def test_is_now_while_a_failed_batch_waits_to_finish(self):
        def builder(top):
            mod = Module("m", parent=top)

            def failing():
                yield 6
                raise ValueError("boom")

            def rest():
                yield 6
                yield 10

            mod.add_process(failing)
            mod.add_process(rest)

        sim = build(builder)
        with pytest.raises(ProcessError, match="boom"):
            sim.run()
        assert (sim.now, sim.next_activity_time()) == (6, 6)
        sim.run(0)  # evaluates the rest of the batch, which waits 10
        assert sim.next_activity_time() == 16


class TestImmediateNotify:
    """``notify()``: who wakes, what the ``sync`` probe sees
    and what ``events_fired`` counts."""

    def test_no_waiter_fires_counts_and_is_not_remembered(self):
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
                ev.notify()    # nobody waits: fires, and nothing is kept
                yield 18
                ev.notify()    # @20

            mod.add_process(late_waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [20]
        # Three timer wakes and the two immediate fires.
        assert stats.events_fired == 5

    def test_a_notify_before_the_wait_in_one_delta_cycle_is_missed(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            ev = mod.add_event(Event("go"))

            def driver():
                yield 2
                ev.notify()  # evaluated first at 2: nobody waits yet
                yield 5
                ev.notify()  # @7

            def late_waiter():
                yield 2
                yield ev  # the same delta cycle, after the notify
                wakes.append(sim.now)

            mod.add_process(driver)
            mod.add_process(late_waiter)

        sim = build(builder)
        sim.run()
        assert wakes == [7]

    def test_a_notify_chain_costs_one_delta_cycle_per_link(self):
        wakes = []

        def builder(top):
            mod = Module("m", parent=top)
            links = [mod.add_event(Event(f"link{i}")) for i in range(3)]

            def relay(i):
                def body():
                    yield links[i]
                    wakes.append((i, sim.now))
                    if i + 1 < len(links):
                        links[i + 1].notify()
                return body

            for i in reversed(range(3)):  # registration order is irrelevant
                mod.add_process(relay(i), name=f"relay{i}")

            def driver():
                yield 4
                links[0].notify()

            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert wakes == [(0, 4), (1, 4), (2, 4)]
        # One at 0, one at 4 for the driver, then one per relay.
        assert stats.delta_cycles == 5
        assert stats.events_fired == 4  # the timer and three notifies

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

            def delta_waiter():
                yield 1
                yield 0  # queued first ...
                order.append(("delta", sim.now))

            def immediate_waiter():
                yield now_ev
                order.append(("immediate", sim.now))

            def driver():
                yield 1
                now_ev.notify()  # ... but this waiter is runnable at once

            mod.add_process(delta_waiter)
            mod.add_process(immediate_waiter)
            mod.add_process(driver)

        sim = build(builder)
        stats = sim.run()
        assert order == [("immediate", 1), ("delta", 1)]
        # One delta cycle at 0, one at 1 for the delta waiter and the
        # driver, and one more at 1 that runs both waiters together.
        assert stats.delta_cycles == 3

    @staticmethod
    def _sync_scene(probes):
        """``driver`` notifies ``idle`` (nobody waits) and ``go`` (``first``,
        ``second`` and ``third`` wait); ``bystander`` then notifies
        ``later`` (``first`` waits again) and ``quiet`` (``lurker``
        waits).  Watched: ``driver``, ``first`` and ``second``."""
        top = Module("top")
        mod = Module("m", parent=top)
        go, idle, later, quiet = (mod.add_event(Event(name)) for name in
                                  ("go", "idle", "later", "quiet"))

        def first():
            yield go
            yield later

        def second():
            yield go

        def third():
            yield go

        def lurker():
            yield quiet

        def driver():
            yield 1
            idle.notify()  # no waiter at all
            go.notify()

        def bystander():
            yield 2
            later.notify()
            quiet.notify()

        processes = {body.__name__: mod.add_process(body) for body in
                     (first, second, third, lurker, driver, bystander)}
        probes.watch(*(processes[name]
                       for name in ("driver", "first", "second")))
        return Simulator(top, probes=probes)

    def test_sync_probe_sees_one_notify_then_the_wakes_in_order(self):
        """A watched process's notify is seen, then the wakes of the watched
        waiters, in wait order; an unwatched process emits nothing, as
        notifier (``bystander``) or as waiter (``third``, ``lurker``), and
        a watched waiter's wake is seen whoever notified."""
        calls = []
        probes = Probes()
        probes.subscribe(sync=lambda kind, event, process: calls.append(
            (kind, event.name, process.name.rsplit(".", 1)[-1])))
        stats = self._sync_scene(probes).run()
        assert calls == [
            ("notify", "idle", "driver"),
            ("notify", "go", "driver"),
            ("wake", "go", "first"),    # waiters in the order they waited
            ("wake", "go", "second"),
            ("wake", "later", "first"),
        ]
        # Two timers and four notifies, watched or not.
        assert stats.events_fired == 6

    def test_sync_without_a_subscriber_runs_no_hook_code(self):
        """With nobody subscribed, a notify tests ``probes.sync`` and
        nothing else: the watched set is never consulted."""
        consulted = []

        class Spy(set):
            def __contains__(self, process):
                consulted.append(process)
                return super().__contains__(process)

        probes = Probes()
        probes.watched = Spy()
        stats = self._sync_scene(probes).run()
        assert probes.sync is None
        assert len(probes.watched) == 3
        assert consulted == []
        assert stats.events_fired == 6
