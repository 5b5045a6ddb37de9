"""E2 — claim (III) of Section 1: the wrapper's overhead is low.

Compares three ways of giving the simulated software dynamic data, running
the *same* allocation-heavy workload (GSM frame buffers plus an
allocate/copy/free churn loop — the ``alloc_churn`` registry workload):

* ``wrapper``  — the paper's host-backed dynamic shared memory wrapper;
* ``modeled``  — the traditional fully-modelled dynamic memory (allocator
  metadata simulated inside the memory table);
* ``static``   — a lower bound: the same data movement against a plain
  static memory with pre-allocated buffers (no dynamic management at all).

The two dynamic variants are one scenario grid over ``memory_kind``; the
static lower bound has no dynamic memory to model, so it stays a bare
kernel-level testbench.  Reported: host wall-clock, simulated cycles and
simulation speed.  The shape the paper claims: wrapper ≈ static (low
overhead), modeled clearly slower.
"""

from __future__ import annotations

import time

from repro.api import ExperimentRunner, PlatformBuilder, scenario_grid
from repro.interconnect import SharedBus
from repro.kernel import Module, Simulator
from repro.memory import LatencyModel, StaticMemory
from repro.soc import MemoryKind
from repro.sw.gsm import FRAME_SAMPLES, PARAMETERS_PER_FRAME, generate_speech_like

from common import emit, format_rows, ledger

CHURN_ITERATIONS = 40
CHURN_BLOCK_WORDS = 64
GSM_FRAMES = 2
CHURN_SEED = 9


def make_dynamic_scenarios(iterations: int):
    """One scenario per dynamic-memory model, same ``alloc_churn`` workload."""
    base = (PlatformBuilder()
            .pes(1)
            .wrapper_memories(1)
            .capacity(1 << 20)
            .build())
    return scenario_grid(
        "churn", base, "alloc_churn",
        config_grid={"memory_kind": [MemoryKind.WRAPPER, MemoryKind.MODELED]},
        params={"iterations": iterations, "block_words": CHURN_BLOCK_WORDS,
                "gsm_frames": GSM_FRAMES, "seed": CHURN_SEED},
    )


class StaticWorkloadPe(Module):
    """The same data movement against a pre-allocated static memory."""

    def __init__(self, name, port, base, iterations, parent=None):
        super().__init__(name, parent)
        self.port = port
        self.base = base
        self.iterations = iterations
        self.finished = False
        self.add_process(self._run, name="program")

    def _run(self):
        samples = generate_speech_like(GSM_FRAMES, seed=CHURN_SEED)
        for frame in range(GSM_FRAMES):
            start = frame * FRAME_SAMPLES
            payload = [v & 0xFFFF for v in samples[start:start + FRAME_SAMPLES]]
            yield from self.port.burst_write(self.base, payload)
            fetched = yield from self.port.burst_read(self.base, FRAME_SAMPLES)
            yield from self.port.burst_write(
                self.base + 4 * FRAME_SAMPLES,
                fetched.burst_data[:PARAMETERS_PER_FRAME],
            )
        scratch = self.base + 0x2000
        for iteration in range(self.iterations):
            address = scratch + 4 * (iteration % CHURN_BLOCK_WORDS)
            yield from self.port.write(address, iteration)
            if iteration % 3 == 2:
                data = yield from self.port.burst_read(scratch, 8)
                yield from self.port.burst_write(scratch + 0x100, data.burst_data)
        self.finished = True


def run_static(iterations: int):
    top = Module("static_top")
    bus = SharedBus("bus", period=10, parent=top)
    memory = StaticMemory(1 << 16, latency=LatencyModel())
    bus.attach_slave("ram", 0x1000_0000, 1 << 16, memory)
    pe = StaticWorkloadPe("pe0", bus.master_port(0), 0x1000_0000, iterations,
                          parent=top)
    sim = Simulator(top)
    wall_start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall_start
    assert pe.finished
    return {"wall": wall, "cycles": sim.now // 10}


def test_e2_overhead_vs_baselines(benchmark, request):
    iterations = 10 if request.config.getoption("--quick") else CHURN_ITERATIONS
    scenarios = make_dynamic_scenarios(iterations)
    results = {}

    def run_all():
        recorder = ledger("e2_overhead_vs_baselines", request)
        dynamic = ExperimentRunner(scenarios, recorder=recorder).run()
        for result in dynamic:
            result.raise_for_status()
        results["wrapper"], results["modeled"] = [r.report for r in dynamic]
        results["static"] = run_static(iterations)
        recorder.record_cycles(
            "static-baseline", results["static"]["cycles"],
            params={"iterations": iterations})
        recorder.flush()
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    wrapper, modeled, static = results["wrapper"], results["modeled"], results["static"]
    rows = [
        {
            "memory model": "host-backed wrapper (paper)",
            "sim cycles": wrapper.simulated_cycles,
            "wall s": round(wrapper.wallclock_seconds, 4),
            "speed (cycles/s)": round(wrapper.simulation_speed),
        },
        {
            "memory model": "fully-modelled dynamic memory",
            "sim cycles": modeled.simulated_cycles,
            "wall s": round(modeled.wallclock_seconds, 4),
            "speed (cycles/s)": round(modeled.simulation_speed),
        },
        {
            "memory model": "static table (no dynamic data)",
            "sim cycles": static["cycles"],
            "wall s": round(static["wall"], 4),
            "speed (cycles/s)": round(static["cycles"] / max(static["wall"], 1e-9)),
        },
    ]
    wrapper_vs_modeled = modeled.wallclock_seconds / max(wrapper.wallclock_seconds, 1e-9)
    emit(
        "e2_overhead_vs_baselines",
        format_rows(rows)
        + f"\n\nfully-modelled / wrapper wall-clock ratio: {wrapper_vs_modeled:.2f}x"
        + "\npaper claim: the host-backed wrapper introduces very low overhead",
    )

    # Shape checks: the wrapper needs fewer simulated cycles than the
    # fully-modelled baseline for the same dynamic workload, and both models
    # agree functionally (checked elsewhere); the modelled baseline must not
    # be faster than the wrapper in simulated time.
    assert wrapper.all_pes_finished and modeled.all_pes_finished
    assert wrapper.simulated_cycles < modeled.simulated_cycles
