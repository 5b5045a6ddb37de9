"""Tests for the fluent platform builder."""

import re

import pytest

from repro.api import BuilderError, PlatformBuilder
from repro.fabric import POLICY_KINDS
from repro.memory import Endianness
from repro.soc import InterconnectKind, MemoryKind, PlatformConfig
from repro.sw import FAST_CORE
from repro.wrapper import WrapperDelays


class TestBuilderHappyPath:
    def test_defaults_match_platform_config(self):
        assert PlatformBuilder().build() == PlatformConfig()

    def test_fluent_chain(self):
        config = (PlatformBuilder()
                  .pes(4)
                  .crossbar()
                  .wrapper_memories(2)
                  .clock_period(20)
                  .cycle_driven(memory_work=3, pe_work=9)
                  .named("demo")
                  .build())
        assert config.num_pes == 4
        assert config.num_memories == 2
        assert config.memory_kind is MemoryKind.WRAPPER
        assert config.interconnect is InterconnectKind.CROSSBAR
        assert config.clock_period == 20
        assert config.idle_tick_memories is True
        assert config.idle_tick_work == 3
        assert config.pe_tick_work == 9
        assert config.name == "demo"

    def test_string_conveniences(self):
        config = (PlatformBuilder()
                  .pes(2)
                  .modeled_memories(1)
                  .shared_bus(arbitration="tdma")
                  .endianness("big")
                  .cost_model("fast")
                  .delays("sdram")
                  .build())
        assert config.memory_kind is MemoryKind.MODELED
        assert config.arbitration == "tdma"
        assert config.endianness is Endianness.BIG
        assert config.cost_model is FAST_CORE
        assert config.wrapper_delays == WrapperDelays.sdram_like()

    def test_from_config_round_trip(self):
        base = PlatformConfig(num_pes=3, num_memories=2,
                              interconnect=InterconnectKind.CROSSBAR)
        rebuilt = PlatformBuilder.from_config(base).build()
        assert rebuilt == base
        tweaked = PlatformBuilder.from_config(base).pes(5).build()
        assert tweaked.num_pes == 5
        assert tweaked.num_memories == 2

    def test_replace_escape_hatch(self):
        config = PlatformBuilder().replace(arbitration_cycles=3).build()
        assert config.arbitration_cycles == 3

    def test_address_map_allows_base_zero(self):
        config = PlatformBuilder().address_map(0, 0x1_0000).build()
        assert config.memory_base_address == 0
        assert config.memory_window_stride == 0x1_0000
        with pytest.raises(BuilderError):
            PlatformBuilder().address_map(-1, 0x1_0000).build()
        with pytest.raises(BuilderError):
            PlatformBuilder().address_map(0, 0).build()

    def test_build_platform(self):
        platform = PlatformBuilder().pes(2).wrapper_memories(2).build_platform()
        assert len(platform.memories) == 2
        assert platform.config.num_pes == 2


class TestArbitrationStaging:
    def test_kind_is_a_policy_kind_string(self):
        for kind in POLICY_KINDS:
            assert PlatformBuilder().arbitration(kind).build() \
                .arbitration == kind
            assert PlatformBuilder().shared_bus(kind).build() \
                .arbitration == kind

    @pytest.mark.parametrize("alias", ["rr", "priority", "weighted", "wrr"])
    def test_former_aliases_rejected_listing_the_kinds(self, alias):
        listed = re.escape(str(list(POLICY_KINDS)))
        with pytest.raises(BuilderError, match=listed):
            PlatformBuilder().arbitration(alias)
        with pytest.raises(BuilderError, match=listed):
            PlatformBuilder().shared_bus(alias)

    def test_parameters_are_staged_as_tuples(self):
        config = (PlatformBuilder().pes(3)
                  .arbitration("weighted_round_robin", weights=[4, 2, 1])
                  .build())
        assert config.arbitration_weights == (4, 2, 1)
        config = (PlatformBuilder().pes(3)
                  .arbitration("tdma", schedule=[0, 0, 1, 2])
                  .build())
        assert config.arbitration_schedule == (0, 0, 1, 2)
        config = (PlatformBuilder().pes(3)
                  .arbitration("fixed_priority", priority_order=[2, 1, 0])
                  .build())
        assert config.arbitration_priority == (2, 1, 0)

    def test_weight_mapping_fills_gaps_with_one(self):
        config = (PlatformBuilder().pes(4)
                  .arbitration("weighted_round_robin", weights={0: 5, 3: 2})
                  .build())
        assert config.arbitration_weights == (5, 1, 1, 2)

    def test_spec_resolution_uses_pe_count_defaults(self):
        spec = PlatformBuilder().pes(3).arbitration("tdma").build() \
            .arbitration_spec()
        assert spec.kind == "tdma"
        assert spec.schedule == (0, 1, 2)
        spec = (PlatformBuilder().pes(4).arbitration("weighted_round_robin")
                .build().arbitration_spec())
        assert spec.weights == (4, 3, 2, 1)

    def test_applies_to_every_topology(self):
        for stage in ("crossbar", "mesh", "shared_bus"):
            builder = PlatformBuilder().pes(2).arbitration("fixed_priority")
            config = getattr(builder, stage)().build()
            assert config.arbitration == "fixed_priority"

    def test_shared_bus_keeps_staged_policy(self):
        # shared_bus() without an explicit policy must not reset a staged
        # one; with one it delegates to arbitration() (same kinds).
        config = (PlatformBuilder().arbitration("tdma").shared_bus().build())
        assert config.arbitration == "tdma"
        config = PlatformBuilder().shared_bus("weighted_round_robin").build()
        assert config.arbitration == "weighted_round_robin"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(BuilderError, match="unknown arbitration"):
            PlatformBuilder().arbitration("lottery")
        with pytest.raises(BuilderError, match="unknown arbitration"):
            PlatformBuilder().arbitration(3)
        with pytest.raises(BuilderError, match="not be empty"):
            PlatformBuilder().arbitration("weighted_round_robin", weights={})
        with pytest.raises(BuilderError, match="weights must be >= 1"):
            PlatformBuilder().arbitration("weighted_round_robin",
                                          weights=(0,)).build()

    def test_weight_mapping_keys_must_be_master_ids(self):
        # Regression: string keys used to escape as a raw TypeError and
        # negative ids were silently dropped from the expanded tuple.
        with pytest.raises(BuilderError, match="master ids"):
            PlatformBuilder().arbitration("weighted_round_robin", weights={"0": 5})
        with pytest.raises(BuilderError, match="master ids"):
            PlatformBuilder().arbitration("weighted_round_robin", weights={-1: 9, 1: 2})


class TestBuilderValidation:
    @pytest.mark.parametrize("count", [0, -1, 1.5, True])
    def test_bad_pe_count(self, count):
        with pytest.raises(BuilderError):
            PlatformBuilder().pes(count).build()

    def test_bad_memory_count(self):
        with pytest.raises(BuilderError):
            PlatformBuilder().wrapper_memories(0).build()

    def test_unknown_memory_kind(self):
        with pytest.raises(BuilderError, match="unknown memory kind"):
            PlatformBuilder().memories(1, "quantum")

    def test_unknown_arbitration(self):
        with pytest.raises(BuilderError, match="unknown arbitration"):
            PlatformBuilder().shared_bus(arbitration="coin_flip")

    def test_unknown_delay_preset(self):
        with pytest.raises(BuilderError, match="unknown delay preset"):
            PlatformBuilder().delays("hbm")

    def test_unknown_cost_model(self):
        with pytest.raises(BuilderError, match="unknown cost model"):
            PlatformBuilder().cost_model("cray")

    def test_unknown_endianness(self):
        with pytest.raises(BuilderError, match="unknown endianness"):
            PlatformBuilder().endianness("middle")

    def test_replace_unknown_field(self):
        with pytest.raises(BuilderError, match="unexpected keyword argument"):
            PlatformBuilder().replace(num_cores=4).build()

    def test_negative_cycle_work(self):
        with pytest.raises(BuilderError):
            PlatformBuilder().cycle_driven(memory_work=-1).build()

    def test_build_surfaces_config_invariants(self):
        # PlatformConfig's own validation is re-raised as BuilderError.
        with pytest.raises(BuilderError, match="invalid platform description"):
            PlatformBuilder().replace(idle_tick_work=-5).build()

    def test_empty_name(self):
        with pytest.raises(BuilderError):
            PlatformBuilder().named("").build()


#: Inputs the builder must reject, at least one per rule.  Unknown names,
#: loop counts and layer configs raise while staging; every other bad
#: value raises from build().
REJECTED = {
    "from_config": lambda b: PlatformBuilder.from_config("mpsoc"),
    "pes(0)": lambda b: b.pes(0),
    "pes(1.5)": lambda b: b.pes(1.5),
    "pes(True)": lambda b: b.pes(True),
    "memories(0)": lambda b: b.wrapper_memories(0),
    "memory kind": lambda b: b.memories(1, "quantum"),
    "capacity(0)": lambda b: b.capacity(0),
    "capacity(1.5)": lambda b: b.capacity(1.5),
    "partitions(0)": lambda b: b.partitions(0),
    "partitions(6)": lambda b: b.mesh().partitions(6),
    "epoch_cycles(0)": lambda b: b.mesh().partitions(2, epoch_cycles=0),
    "arbitration name": lambda b: b.arbitration("lottery"),
    "arbitration type": lambda b: b.arbitration(3),
    "shared_bus arbitration": lambda b: b.shared_bus(arbitration="coin_flip"),
    "empty weights": lambda b: b.arbitration("weighted_round_robin", weights={}),
    "weight key": lambda b: b.arbitration("weighted_round_robin", weights={"0": 5}),
    "weight id": lambda b: b.arbitration("weighted_round_robin", weights={-1: 9}),
    "weight value": lambda b: b.arbitration("weighted_round_robin", weights=(0,)),
    "mesh": lambda b: b.mesh(flit_bytes=0),
    "write policy": lambda b: b.l1_cache(policy="write_sometimes"),
    "cache geometry": lambda b: b.l1_cache(sets=0),
    "sanitizer": lambda b: b.sanitize(max_reports=0),
    "trace categories": lambda b: b.trace(categories=["nope"]),
    "trace max_events": lambda b: b.trace(max_events=0),
    "metrics(0)": lambda b: b.metrics(0),
    "trace().metrics(0)": lambda b: b.trace().metrics(0),
    "metrics(1.5)": lambda b: b.trace().metrics(1.5),
    "two controllers": lambda b: b.irq_controller().irq_controller(),
    "controller lines": lambda b: b.irq_controller(lines=33),
    "dma(0)": lambda b: b.dma(0),
    "dma burst": lambda b: b.dma(1, burst_words=0),
    "dma count with line": lambda b: b.dma(2, irq_line=3),
    "timer(0)": lambda b: b.timer(compare_cycles=0),
    "timer(1.5)": lambda b: b.timer(compare_cycles=1.5),
    "clock_period(0)": lambda b: b.clock_period(0),
    "memory_work": lambda b: b.cycle_driven(memory_work=-1),
    "pe_work": lambda b: b.cycle_driven(pe_work=-1),
    "delay preset": lambda b: b.delays("hbm"),
    "delays type": lambda b: b.delays(42),
    "endianness": lambda b: b.endianness("middle"),
    "cost model": lambda b: b.cost_model("cray"),
    "address base": lambda b: b.address_map(-1, 0x1_0000),
    "address stride": lambda b: b.address_map(0, 0),
    "empty name": lambda b: b.named(""),
    "name type": lambda b: b.named(5),
    "unknown field": lambda b: b.replace(num_cores=4),
    "config invariant": lambda b: b.replace(idle_tick_work=-5),
}


@pytest.mark.parametrize("stage", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_by_build_at_the_latest(stage):
    with pytest.raises(BuilderError):
        stage(PlatformBuilder()).build()
