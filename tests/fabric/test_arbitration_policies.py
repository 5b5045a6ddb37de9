"""Parametrized arbitration-policy suite across all three topologies.

Policies are verified at three levels:

* pure policy objects — exact grant sequences for static requester sets;
* fabric level — every grant decision a running bus/crossbar/mesh makes is
  recorded (requesters, winner) and checked against the policy's exact
  semantics: lowest/priority-ranked wins for fixed priority, slot owner
  for TDMA, rotation for round-robin, budgeted rotation for weighted RR —
  plus starvation-freedom for the rotating policies;
* platform level — ``PlatformBuilder.arbitration(...)`` selects the policy
  on every topology and the workload still produces correct results.
"""

import random
import re

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, Scenario
from repro.fabric import (
    POLICY_KINDS,
    ArbitrationPolicy,
    ArbitrationSpec,
    BusOp,
    BusResponse,
    BusSlave,
    FixedPriorityArbiter,
    ResponseStatus,
    RoundRobinArbiter,
    TdmaArbiter,
    WeightedRoundRobinArbiter,
)
from repro.interconnect import Crossbar, SharedBus
from repro.kernel import Module, Simulator
from repro.noc import MeshNoc, NocConfig

TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]


# -- test fixtures -----------------------------------------------------------------
class ScratchSlave(BusSlave):
    """A tiny word-addressable RAM with configurable access latency."""

    def __init__(self, words=256, cycles=1):
        self.storage = [0] * words
        self.cycles = cycles

    def serve(self, request, offset):
        index = offset // 4
        if request.op is BusOp.WRITE:
            self.storage[index] = request.data
            return BusResponse(), self.cycles
        return BusResponse(data=self.storage[index]), self.cycles


class MasterHarness(Module):
    """Issues ``count`` back-to-back scalar reads and records completions."""

    def __init__(self, name, port, count, parent=None):
        super().__init__(name, parent)
        self.port = port
        self.count = count
        self.responses = []
        self.add_process(self._run, name="driver")

    def _run(self):
        for i in range(self.count):
            response = yield from self.port.read(4 * i)
            self.responses.append(response)


class RecordingPolicy(ArbitrationPolicy):
    """Delegating wrapper logging every (requesters, winner) decision."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    @property
    def grant_counts(self):
        return getattr(self.inner, "grant_counts", {})

    def grant(self, requesters):
        winner = self.inner.grant(requesters)
        if winner is not None:
            self.log.append((tuple(requesters), winner))
        return winner

    def reset(self):
        self.inner.reset()


def build_fabric(topology, arbitration, top, slave, instrument_log=None):
    """One fabric of ``topology`` with a single slave at [0, 0x1000)."""
    if topology == "shared_bus":
        fabric = SharedBus("bus", period=10, arbitration=arbitration,
                           parent=top)
    elif topology == "crossbar":
        fabric = Crossbar("xbar", period=10, arbitration=arbitration,
                          parent=top)
    else:
        fabric = MeshNoc("noc", period=10,
                         config=NocConfig(rows=2, cols=2),
                         arbitration=arbitration, parent=top)
    if instrument_log is not None:
        if topology == "shared_bus":
            fabric.channel.arbiter = RecordingPolicy(fabric.channel.arbiter,
                                                     instrument_log)
        else:
            original = fabric.new_policy
            fabric.new_policy = (
                lambda: RecordingPolicy(original(), instrument_log))
    fabric.attach_slave("ram", 0x0, 0x1000, slave)
    return fabric


def run_contended(topology, arbitration, masters=3, requests=6,
                  slave_cycles=6):
    """``masters`` PEs hammering one slow slave; returns the grant log,
    the per-master completion order and the fabric."""
    top = Module("top")
    log = []
    slave = ScratchSlave(cycles=slave_cycles)
    fabric = build_fabric(topology, arbitration, top, slave,
                          instrument_log=log)
    completions = []
    fabric.add_snooper(
        lambda request, response: completions.append(request.master_id))
    harnesses = [
        MasterHarness(f"m{i}", fabric.master_port(i), requests, parent=top)
        for i in range(masters)
    ]
    sim = Simulator(top)
    sim.run()
    for harness in harnesses:
        assert len(harness.responses) == requests
        assert all(r.status is ResponseStatus.OK for r in harness.responses)
    return log, completions, fabric


def assert_contention(log):
    assert any(len(requesters) > 1 for requesters, _ in log), \
        "the scenario never contended; the policy was not exercised"


# -- pure policy objects ------------------------------------------------------------
class TestWeightedRoundRobinUnit:
    def test_budgeted_rotation_sequence(self):
        arb = WeightedRoundRobinArbiter(weights=(3, 1, 2))
        grants = [arb.grant([0, 1, 2]) for _ in range(12)]
        assert grants == [0, 0, 0, 1, 2, 2, 0, 0, 0, 1, 2, 2]

    def test_unlisted_master_gets_default_weight(self):
        arb = WeightedRoundRobinArbiter(weights={0: 2})
        assert arb.weight_of(0) == 2
        assert arb.weight_of(7) == 1
        grants = [arb.grant([0, 7]) for _ in range(6)]
        assert grants == [0, 0, 7, 0, 0, 7]

    def test_idle_owner_forfeits_budget(self):
        arb = WeightedRoundRobinArbiter(weights=(4, 1))
        assert arb.grant([0, 1]) == 0
        # Master 0 goes idle mid-budget; on return it gets a fresh budget
        # only after the rotation came around.
        assert arb.grant([1]) == 1
        assert arb.grant([0, 1]) == 0

    def test_starvation_freedom_under_extreme_weights(self):
        arb = WeightedRoundRobinArbiter(weights=(100, 1))
        grants = [arb.grant([0, 1]) for _ in range(101)]
        assert 1 in grants

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter(weights=(0,))
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter(weights={2: -1})
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter(default_weight=0)

    def test_reset_clears_rotation_and_counts(self):
        arb = WeightedRoundRobinArbiter(weights=(2, 1))
        for _ in range(3):
            arb.grant([0, 1])
        arb.reset()
        assert arb.grant_counts == {}
        assert arb.grant([0, 1]) == 0


class TestRoundRobinAgainstReference:
    """``RoundRobinArbiter.grant`` answers a lone requester without sorting;
    the sort-everything rotation it must stay indistinguishable from is
    kept here as the reference."""

    @staticmethod
    def reference_grant(state, requesters):
        if not requesters:
            return None
        ordered = sorted(requesters)
        after = ([m for m in ordered if m > state["last"]]
                 if state["last"] is not None else [])
        winner = after[0] if after else ordered[0]
        state["last"] = winner
        state["counts"][winner] = state["counts"].get(winner, 0) + 1
        return winner

    @pytest.mark.parametrize("seed", range(8))
    def test_random_requester_sequences(self, seed):
        rng = random.Random(seed)
        arb = RoundRobinArbiter()
        state = {"last": None, "counts": {}}
        previous = [0]
        for step in range(400):
            shape = rng.random()
            if shape < 0.45:      # singleton: the fast path
                requesters = [rng.randrange(6)]
            elif shape < 0.55:    # the same requesters again
                requesters = list(previous)
            elif shape < 0.60:
                requesters = []
            else:                 # several, unsorted
                requesters = rng.sample(range(6), rng.randint(2, 6))
            previous = requesters
            expected = self.reference_grant(state, requesters)
            assert arb.grant(requesters) == expected, (seed, step, requesters)
            assert arb._last_granted == state["last"]
            assert arb.grant_counts == state["counts"]
            if rng.random() < 0.01:
                arb.reset()
                state = {"last": None, "counts": {}}


class TestArbitrationSpec:
    def test_coerce(self):
        assert ArbitrationSpec.coerce(None).kind == "round_robin"
        for kind in POLICY_KINDS:
            assert ArbitrationSpec.coerce(kind).kind == kind
        spec = ArbitrationSpec(kind="tdma", schedule=[1, 0])
        assert ArbitrationSpec.coerce(spec) is spec
        assert spec.schedule == (1, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arbitration policy"):
            ArbitrationSpec(kind="lottery")
        with pytest.raises(TypeError):
            ArbitrationSpec.coerce(42)

    @pytest.mark.parametrize("alias", ["rr", "priority", "weighted", "wrr"])
    def test_former_aliases_rejected_listing_the_kinds(self, alias):
        with pytest.raises(ValueError, match=re.escape(str(list(POLICY_KINDS)))):
            ArbitrationSpec(kind=alias)

    def test_create_maps_kinds_to_policies(self):
        assert isinstance(ArbitrationSpec("round_robin").create(),
                          RoundRobinArbiter)
        assert isinstance(ArbitrationSpec("fixed_priority").create(),
                          FixedPriorityArbiter)
        assert isinstance(
            ArbitrationSpec("weighted_round_robin", weights=(2, 1)).create(),
            WeightedRoundRobinArbiter)
        assert isinstance(ArbitrationSpec("tdma", schedule=(0, 1)).create(),
                          TdmaArbiter)

    def test_tdma_without_schedule_rejected_at_create(self):
        with pytest.raises(ValueError, match="schedule"):
            ArbitrationSpec("tdma").create()


# -- fabric level -------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestPolicySemanticsOnFabric:
    def test_fixed_priority_exact_grant_order(self, topology):
        log, _completions, _fabric = run_contended(
            topology, ArbitrationSpec("fixed_priority"))
        assert_contention(log)
        for requesters, winner in log:
            assert winner == min(requesters)

    def test_fixed_priority_explicit_order(self, topology):
        order = (2, 0, 1)
        log, _completions, _fabric = run_contended(
            topology, ArbitrationSpec("fixed_priority",
                                      priority_order=order))
        assert_contention(log)
        for requesters, winner in log:
            ranked = [m for m in order if m in requesters]
            assert winner == (ranked[0] if ranked else min(requesters))

    def test_tdma_exact_slot_order(self, topology):
        schedule = (1, 2, 0)
        log, _completions, _fabric = run_contended(
            topology, ArbitrationSpec("tdma", schedule=schedule))
        assert_contention(log)
        fallback = RoundRobinArbiter()
        for slot, (requesters, winner) in enumerate(log):
            owner = schedule[slot % len(schedule)]
            if owner in requesters:
                assert winner == owner
            else:
                # Work-conserving fallback: round-robin over the requesters
                # (the real policy advances its fallback only on misses).
                assert winner == fallback.grant(requesters)

    def test_round_robin_rotation_and_starvation_freedom(self, topology):
        log, completions, fabric = run_contended(
            topology, ArbitrationSpec("round_robin"))
        assert_contention(log)
        last = None
        for requesters, winner in log:
            ordered = sorted(requesters)
            if last is None:
                expected = ordered[0]
            else:
                after = [m for m in ordered if m > last]
                expected = after[0] if after else ordered[0]
            assert winner == expected
            last = winner
        # Starvation-freedom: every master got exactly its share through.
        for master in range(3):
            assert fabric.stats.master(master).transactions == 6
        assert completions.count(0) == completions.count(1) \
            == completions.count(2) == 6

    def test_weighted_budgets_and_starvation_freedom(self, topology):
        weights = (3, 1, 1)
        log, _completions, fabric = run_contended(
            topology, ArbitrationSpec("weighted_round_robin",
                                      weights=weights), requests=8)
        assert_contention(log)
        # No master ever exceeds its budget while someone else is waiting.
        streak_owner, streak = None, 0
        for requesters, winner in log:
            if winner == streak_owner:
                streak += 1
            else:
                streak_owner, streak = winner, 1
            if len(requesters) > 1:
                assert streak <= weights[winner], (
                    f"master {winner} held the grant {streak} times with "
                    f"rivals waiting (budget {weights[winner]})"
                )
        # Starvation-freedom: everyone finished all transfers.
        for master in range(3):
            assert fabric.stats.master(master).transactions == 8

    def test_grant_counts_surface_in_interconnect_stats(self, topology):
        _log, _completions, fabric = run_contended(
            topology, ArbitrationSpec("fixed_priority"))
        block = fabric.interconnect_stats(0)
        assert block["arbitration"]["kind"] == "fixed_priority"
        assert block["arbitration"]["grant_counts"] == {0: 6, 1: 6, 2: 6}


# -- exact completion order on the serialized topologies ----------------------------
@pytest.mark.parametrize("topology", ["shared_bus", "crossbar"])
class TestOneShotCompletionOrder:
    """All masters post exactly once at t=0; the single channel then drains
    the static requester set in exact policy order."""

    def run_one_shot(self, topology, arbitration):
        top = Module("top")
        slave = ScratchSlave(cycles=3)
        fabric = build_fabric(topology, arbitration, top, slave)
        order = []
        fabric.add_snooper(
            lambda request, response: order.append(request.master_id))
        for master in range(3):
            MasterHarness(f"m{master}", fabric.master_port(master), 1,
                          parent=top)
        Simulator(top).run()
        return order

    def test_priority_order(self, topology):
        spec = ArbitrationSpec("fixed_priority", priority_order=(2, 0, 1))
        assert self.run_one_shot(topology, spec) == [2, 0, 1]

    def test_tdma_schedule_order(self, topology):
        spec = ArbitrationSpec("tdma", schedule=(1, 2, 0))
        assert self.run_one_shot(topology, spec) == [1, 2, 0]

    def test_round_robin_id_order(self, topology):
        assert self.run_one_shot(topology, "round_robin") == [0, 1, 2]


# -- platform level -----------------------------------------------------------------
POLICY_BUILDS = {
    "round_robin": {},
    "fixed_priority": {},
    "weighted_round_robin": {"weights": (4, 2, 1)},
    "tdma": {"schedule": (0, 1, 2)},
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("policy", sorted(POLICY_BUILDS))
def test_policies_selectable_on_every_topology(topology, policy):
    builder = (PlatformBuilder().pes(3).wrapper_memories(2)
               .arbitration(policy, **POLICY_BUILDS[policy]))
    if topology == "crossbar":
        builder = builder.crossbar()
    elif topology == "mesh":
        builder = builder.mesh(rows=2, cols=2)
    scenario = Scenario(name=f"{topology}-{policy}", config=builder.build(),
                        workload="fir", params={"num_samples": 12, "seed": 2},
                        seed=2)
    [result] = ExperimentRunner([scenario]).run()
    result.raise_for_status()
    arbitration = result.report.interconnect_stats["arbitration"]
    assert arbitration["kind"] == policy
    # Every master was granted (none starved, whatever the policy).
    assert set(arbitration["grant_counts"]) == {0, 1, 2}
    assert all(count > 0 for count in arbitration["grant_counts"].values())
