"""E8 — DMA offload crossover: core-driven memcpy vs. engine + overlap.

``repro.dev`` adds DMA engines as first-class fabric masters.  This bench
runs the ``dma_memcpy`` registry workload in both modes over a buffer-size
sweep, per interconnect topology:

* ``mode="pe"``: the core copies with its own burst transfers, then runs
  its local compute serially;
* ``mode="dma"``: the core programs a dedicated engine (one burst write),
  runs the same compute while the engine moves the data, and blocks on
  the completion interrupt.

Destination buffers are asserted bit-identical between modes at every
point (the workload's reference check also verifies them against the
generated data).  Reported per point: simulated cycles for both modes and
the offload speedup; every point lands in the ledger
(``common.ledger``), so CI's ledger gate pins the crossover's simulated
cycles.  Headline check: with enough compute to
overlap (~4096 cycles), the DMA path must win at the largest buffer on
every topology.
"""

from __future__ import annotations

from repro.api import (
    ExperimentRunner,
    PlatformBuilder,
    Scenario,
)

from common import emit, format_rows, ledger

PES = 2
MEMORIES = 2
COMPUTE_CYCLES = 4096
SIZES = [64, 256, 1024]
TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]
QUICK_SIZES = [64, 256]
QUICK_TOPOLOGIES = ["shared_bus"]


def _scenario(topology, mode, words):
    builder = PlatformBuilder().pes(PES).wrapper_memories(MEMORIES)
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh()
    if mode == "dma":
        builder = builder.dma(PES)
    return Scenario(
        name=f"{topology}-{mode}-{words}w",
        config=builder.build(),
        workload="dma_memcpy",
        params={"words": words, "mode": mode,
                "compute_cycles": COMPUTE_CYCLES, "seed": 7},
        seed=7,
    )


def make_scenarios(topologies, sizes):
    return [_scenario(topology, mode, words)
            for topology in topologies
            for words in sizes
            for mode in ("pe", "dma")]


def test_e8_dma_crossover(benchmark, request):
    quick = request.config.getoption("--quick")
    topologies = QUICK_TOPOLOGIES if quick else TOPOLOGIES
    sizes = QUICK_SIZES if quick else SIZES
    scenarios = make_scenarios(topologies, sizes)
    collected = {}

    def run_sweep():
        runner = ExperimentRunner(
            scenarios, recorder=ledger("e8_dma_crossover", request))
        collected["results"] = runner.run()
        return collected["results"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = {result.scenario: result for result in collected["results"]}
    for result in results.values():
        result.raise_for_status()

    rows = []
    for topology in topologies:
        for words in sizes:
            pe = results[f"{topology}-pe-{words}w"].report
            dma = results[f"{topology}-dma-{words}w"].report
            # The offload must not change a single destination word.
            assert pe.results == dma.results
            engines = [d for d in dma.device_reports if d["kind"] == "dma"]
            assert sum(e["words_copied"] for e in engines) == PES * words
            assert all(e["errors"] == 0 for e in engines)
            rows.append({
                "topology": topology,
                "words/PE": words,
                "pe cycles": pe.simulated_cycles,
                "dma cycles": dma.simulated_cycles,
                "speedup": f"{pe.simulated_cycles / dma.simulated_cycles:.2f}x",
            })

    emit(
        "e8_dma_crossover",
        format_rows(rows)
        + f"\n\ndestination buffers bit-identical per point; compute "
        f"overlap {COMPUTE_CYCLES} cycles per PE.",
    )

    for topology in topologies:
        largest = sizes[-1]
        pe = results[f"{topology}-pe-{largest}w"].report
        dma = results[f"{topology}-dma-{largest}w"].report
        # With ~4k compute cycles to hide the copy behind, offloading the
        # largest buffer must beat the core-driven copy on every topology.
        assert dma.simulated_cycles < pe.simulated_cycles, (
            f"{topology}: dma {dma.simulated_cycles} >= "
            f"pe {pe.simulated_cycles} at {largest} words"
        )
