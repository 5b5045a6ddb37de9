"""Perf smoke test: the timer fast path must beat the Event-per-wait pattern.

A ``yield n`` queues the waiting process itself in the timed queue.  The
pattern it replaced — allocate a fresh :class:`Event`, notify it after
``n``, wait on it, and route the wake through the generic notification
machinery — is still expressible by hand, which gives an in-process A/B
measurement of the overhead the fast path removes:

* ``legacy``: one fresh Event per wait;
* ``fast``:   plain ``yield <int>`` (the timer fast path).

The assertion uses a *generous* margin (the observed gap is well above 2x;
we assert a fraction of it so a loaded CI host cannot flake), plus strict
semantic equivalence: both runs must produce identical scheduler counters
and end times.
"""

import time

from repro.kernel import Event, Module, Simulator

#: Number of timed waits per measured run.
WAITS = 30_000
#: Generous margin: the fast path must be at least this much faster.
MIN_SPEEDUP = 1.15


def run_legacy(waits):
    """One fresh event per timed wait — the pre-fast-path lowering."""
    top = Module("top")
    mod = Module("m", parent=top)
    sim = Simulator(top)

    def proc():
        for _ in range(waits):
            timer = Event("timer")
            timer._bind(sim)
            timer.notify(3)
            yield timer

    mod.add_process(proc)
    start = time.perf_counter()
    stats = sim.run()
    return time.perf_counter() - start, stats, sim.now


def run_fast(waits):
    """Plain integer yields — the per-process reusable timer fast path."""
    top = Module("top")
    mod = Module("m", parent=top)
    sim = Simulator(top)

    def proc():
        for _ in range(waits):
            yield 3

    mod.add_process(proc)
    start = time.perf_counter()
    stats = sim.run()
    return time.perf_counter() - start, stats, sim.now


def test_timer_fast_path_is_faster_with_identical_semantics():
    # Warm both paths once (bytecode caches, allocator warm-up) before
    # the measured runs.
    run_legacy(1_000)
    run_fast(1_000)

    legacy_seconds, legacy_stats, legacy_end = run_legacy(WAITS)
    fast_seconds, fast_stats, fast_end = run_fast(WAITS)

    # Semantics: the fast path schedules exactly what the event path did.
    assert fast_end == legacy_end == 3 * WAITS
    assert fast_stats.timed_steps == legacy_stats.timed_steps == WAITS
    assert fast_stats.delta_cycles == legacy_stats.delta_cycles
    assert fast_stats.process_activations == legacy_stats.process_activations
    assert fast_stats.events_fired == legacy_stats.events_fired == WAITS

    # Speed: generous margin under the observed (>2x) gap.
    assert fast_seconds > 0
    speedup = legacy_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"timer fast path only {speedup:.2f}x faster than the Event-per-wait "
        f"pattern (legacy {legacy_seconds:.4f}s, fast {fast_seconds:.4f}s)"
    )


def test_delta_fast_path_matches_event_delta_semantics():
    """Direct delta waits behave exactly like notify(0)-driven wakes."""
    results = {}
    for style in ("event", "direct"):
        top = Module("top")
        mod = Module("m", parent=top)
        sim = Simulator(top)
        log = []

        if style == "event":
            def proc():
                for index in range(100):
                    waker = Event("w")
                    waker._bind(sim)
                    waker.notify(0)
                    yield waker
                    log.append(index)
        else:
            def proc():
                for index in range(100):
                    yield 0
                    log.append(index)

        mod.add_process(proc)
        stats = sim.run()
        results[style] = (list(log), stats.delta_cycles, sim.now)

    assert results["event"] == results["direct"]
