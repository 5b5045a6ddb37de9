"""The perfbench workloads: platform, traffic, twin and why each exists.

Every workload is one registry workload on one platform, built only
through ``repro.api.PlatformBuilder``.  A workload may name a *twin* — the
same traffic on a related platform — whose repeated runs feed one ratio
metric and one bit-identity relation in the traced run.  ``smoke=True``
shrinks sizes to plumbing-test scale; the measured sizes are fixed (later
issues cite the numbers they produce) and must not be tuned per PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.api import PlatformBuilder, Scenario, scenario_grid

#: Shards of the sweep workloads' ``ExperimentRunner`` (= usable cores).
SWEEP_SHARDS = 2


@dataclass(frozen=True)
class Twin:
    """The same traffic on a related platform."""

    #: Span / golden label of the twin (``m1``, ``flat``, ``modeled``, ``p1``).
    label: str
    #: ``config(smoke) -> PlatformConfig``.
    config: Callable[[bool], object]
    #: Per-layer metric the pair feeds.
    ratio_name: str
    #: ``ratio(main, twin)`` over ``{"wall_s": median, "speed": median}``.
    ratio: Callable[[dict, dict], float]
    #: Signature fields (see ``child.signature``) that must equal the main
    #: run's: the bit-identity relation the pair is held to.
    same: Tuple[str, ...]


@dataclass(frozen=True)
class Spec:
    """One single-scenario workload."""

    #: ``config(smoke) -> PlatformConfig``.
    config: Callable[[bool], object]
    #: Registry workload name and its parameters (full size / smoke size).
    traffic: str
    params: Dict[str, object]
    smoke_params: Dict[str, object]
    twin: Optional[Twin] = None
    #: ``invariant(report) -> error string or None`` on the main report.
    invariant: Optional[Callable[[object], Optional[str]]] = None
    #: ``ladder(smoke) -> {rung: PlatformConfig}``: platforms the traced
    #: run pushes this workload's traffic through, one rep each.
    ladder: Optional[Callable[[bool], Dict[str, object]]] = None

    def scenario(self, name: str, seed: int, smoke: bool,
                 config: object = None) -> Scenario:
        """A fresh scenario; ``--seed`` is both the registry workload's
        ``seed`` param and ``Scenario.seed``."""
        params = dict(self.smoke_params if smoke else self.params, seed=seed)
        return Scenario(name=name,
                        config=self.config(smoke) if config is None else config,
                        workload=self.traffic, params=params, seed=seed)


# -- platforms -----------------------------------------------------------------

def _gsm(memories: int) -> Callable[[bool], object]:
    def config(smoke: bool):
        if smoke:
            return (PlatformBuilder().pes(2).wrapper_memories(min(memories, 2))
                    .cycle_driven(memory_work=1, pe_work=1)
                    .cost_model("fast").build())
        # The paper's Section-4 configuration.
        return (PlatformBuilder().pes(4).wrapper_memories(memories)
                .cycle_driven(memory_work=4, pe_work=12).build())
    return config


def _stencil_base(smoke: bool) -> PlatformBuilder:
    return PlatformBuilder().pes(2 if smoke else 8).wrapper_memories(
        2 if smoke else 4)


def _l1(builder: PlatformBuilder, policy: str) -> PlatformBuilder:
    return builder.l1_cache(sets=64, ways=2, line_bytes=32, policy=policy)


def _probed(builder: PlatformBuilder) -> PlatformBuilder:
    return builder.sanitize().trace().metrics(interval_cycles=1024)


def _mesh_flat(smoke: bool):
    return _stencil_base(smoke).mesh().build()


def _mesh_probed(smoke: bool):
    return _probed(_stencil_base(smoke).mesh()).build()


def _xbar_l1wb(smoke: bool):
    return _l1(_stencil_base(smoke).crossbar(), "write_back").build()


def _churn(modeled: bool) -> Callable[[bool], object]:
    def config(smoke: bool):
        builder = PlatformBuilder().pes(2 if smoke else 4)
        return (builder.modeled_memories(2) if modeled
                else builder.wrapper_memories(2)).build()
    return config


def _pdes(partitions: int) -> Callable[[bool], object]:
    """The ``bench_e11_pdes`` cut-free placements: every PE talks only to
    its own quadrant's memory, so partitioned runs are bit-identical."""
    def config(smoke: bool):
        if smoke:
            num_pes, rows = 4, 4
            pe_nodes, memory_nodes = (0, 2, 8, 10), (5, 7, 13, 15)
        else:
            # 8x8 mesh; PE i and memory i % 4 share quadrant i % 4.
            num_pes, rows = 16, 8
            pe_nodes = (9, 13, 41, 45, 10, 14, 42, 46,
                        17, 21, 49, 53, 18, 22, 50, 54)
            memory_nodes = (27, 31, 59, 63)
        builder = (PlatformBuilder().pes(num_pes).wrapper_memories(4)
                   .mesh(rows, rows, pe_nodes=pe_nodes,
                         memory_nodes=memory_nodes))
        if partitions > 1:
            builder = builder.partitions(partitions, epoch_cycles=256)
        return builder.build()
    return config


# -- the layer ladder (traced run of ``stencil_mesh_flat``) -----------------------

def ladder(smoke: bool) -> Dict[str, object]:
    """The ``stencil_mesh_flat`` traffic on one platform per rung, so each
    rung's marginal host cost over ``bus_flat`` is one subtraction."""
    def base():
        return _stencil_base(smoke)
    modeled = PlatformBuilder().pes(2 if smoke else 8).modeled_memories(
        2 if smoke else 4)
    return {
        "bus_flat": base().build(),
        "xbar_flat": base().crossbar().build(),
        "mesh_flat": base().mesh().build(),
        "bus_modeled": modeled.build(),
        "bus_l1wt": _l1(base(), "write_through").build(),
        "bus_l1wb": _l1(base(), "write_back").build(),
        "bus_probed": _probed(base()).build(),
    }


# -- invariants ------------------------------------------------------------------

def _no_findings(report) -> Optional[str]:
    if report.sanitizer_reports:
        return f"{len(report.sanitizer_reports)} sanitizer finding(s)"
    return None


def _no_leaks(report) -> Optional[str]:
    for memory in report.memory_reports:
        if (memory["live_allocations"] != 0
                or memory["total_allocations"] != memory["total_frees"]):
            return f"{memory['name']}: allocations leaked"
    return None


def _cut_free_processes(report) -> Optional[str]:
    pdes = report.pdes or {}
    if pdes.get("boundary_messages") != 0 or pdes.get("mode") != "process":
        return (f"pdes ran {pdes.get('mode')!r} with "
                f"{pdes.get('boundary_messages')} boundary message(s)")
    return None


# -- the single-scenario workloads -----------------------------------------------

_STENCIL_FLAT = {"size": 128, "iterations": 2}
_STENCIL_SMOKE = {"size": 16, "iterations": 1}

SPECS: Dict[str, Spec] = {
    "gsm_bus_cd": Spec(
        config=_gsm(4), traffic="gsm_encode",
        params={"frames": 1}, smoke_params={"frames": 1},
        twin=Twin("m1", _gsm(1), "soc.m4_over_m1_speed_ratio",
                  lambda main, twin: main["speed"] / twin["speed"],
                  same=("results_sha256",)),
    ),
    "stencil_mesh_flat": Spec(
        config=_mesh_flat, traffic="stencil",
        params=_STENCIL_FLAT, smoke_params=_STENCIL_SMOKE, ladder=ladder,
    ),
    "stencil_xbar_l1wb": Spec(
        config=_xbar_l1wb, traffic="stencil",
        params={"size": 256, "iterations": 8}, smoke_params=_STENCIL_SMOKE,
    ),
    "stencil_mesh_probed": Spec(
        config=_mesh_probed, traffic="stencil",
        params=_STENCIL_FLAT, smoke_params=_STENCIL_SMOKE,
        twin=Twin("flat", _mesh_flat, "obs.probed_over_flat_host_ratio",
                  lambda main, twin: main["wall_s"] / twin["wall_s"],
                  same=("simulated_cycles", "kernel", "results_sha256")),
        invariant=_no_findings,
    ),
    "churn_bus_wrapper": Spec(
        config=_churn(modeled=False), traffic="alloc_churn",
        params={"iterations": 800}, smoke_params={"iterations": 8},
        twin=Twin("modeled", _churn(modeled=True),
                  "memory.modeled_over_wrapper_host_ratio",
                  lambda main, twin: twin["wall_s"] / main["wall_s"],
                  same=("results_sha256",)),
        invariant=_no_leaks,
    ),
    "pdes_mesh_p2": Spec(
        config=_pdes(2), traffic="fir",
        params={"num_samples": 2048}, smoke_params={"num_samples": 32},
        twin=Twin("p1", _pdes(1), "pdes.speedup_p2_over_p1",
                  lambda main, twin: twin["wall_s"] / main["wall_s"],
                  same=("simulated_cycles", "results_sha256")),
        invariant=_cut_free_processes,
    ),
}

#: Both sweep workloads run this grid: ``sweep_store`` cold (fresh store,
#: all misses), ``sweep_store_warm`` warm (filled store, all hits).
#: ``{name: timed passes are warm}``.
SWEEPS = {"sweep_store": False, "sweep_store_warm": True}


def sweep_grid(seed: int, smoke: bool, base_config: object) -> list:
    """The 24-point ``fir`` grid (3 PE counts x 2 memory counts x 4 sizes)."""
    samples = [16, 24, 32, 48] if smoke else [1024, 2048, 3072, 4096]
    return scenario_grid(
        "sweep", base_config, "fir",
        config_grid={"num_pes": [1, 2, 4], "num_memories": [1, 2]},
        param_grid={"num_samples": samples},
        params={"seed": seed}, seed=seed)


def sweep_base_config(smoke: bool):
    return PlatformBuilder().pes(1).wrapper_memories(1).build()
