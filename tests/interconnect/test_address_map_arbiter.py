"""Tests for address decoding and arbitration policies."""

import pytest
from hypothesis import given, strategies as st

from repro.fabric import (
    AddressDecodeError,
    AddressMap,
    AddressMapConflict,
    ArbitrationSpec,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
)


class TestAddressMap:
    def make_map(self):
        amap = AddressMap()
        amap.add_region("mem0", 0x0000, 0x1000, "slave0")
        amap.add_region("mem1", 0x2000, 0x800, "slave1")
        return amap

    def test_decode_inside_region(self):
        amap = self.make_map()
        slave, offset, region = amap.decode(0x10)
        assert slave == "slave0"
        assert offset == 0x10
        assert region.name == "mem0"

    def test_decode_offset_is_relative(self):
        amap = self.make_map()
        slave, offset, _ = amap.decode(0x2004)
        assert slave == "slave1"
        assert offset == 4

    def test_decode_unmapped_raises(self):
        amap = self.make_map()
        with pytest.raises(AddressDecodeError):
            amap.decode(0x1800)

    def test_overlap_rejected(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("bad", 0x0800, 0x1000, "slave2")

    def test_duplicate_name_rejected(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("mem0", 0x8000, 0x100, "slave2")

    def test_adjacent_regions_allowed(self):
        amap = self.make_map()
        amap.add_region("mem2", 0x1000, 0x1000, "slave2")
        assert amap.decode(0x1000)[0] == "slave2"

    def test_base_of(self):
        amap = self.make_map()
        assert amap.base_of("slave1") == 0x2000
        with pytest.raises(KeyError):
            amap.base_of("ghost")

    def test_slaves_and_totals(self):
        amap = self.make_map()
        assert amap.slaves() == ["slave0", "slave1"]
        assert len(amap) == 2

    def test_invalid_region_parameters(self):
        amap = AddressMap()
        with pytest.raises(ValueError):
            amap.add_region("neg", -4, 16, "s")
        with pytest.raises(ValueError):
            amap.add_region("empty", 0, 0, "s")

    @given(st.integers(min_value=0, max_value=0x2FFF))
    def test_decode_matches_contains(self, address):
        amap = self.make_map()
        region = amap.find_region(address)
        if region is None:
            with pytest.raises(AddressDecodeError):
                amap.decode(address)
        else:
            slave, offset, found = amap.decode(address)
            assert found is region
            assert 0 <= offset < region.size


class TestAddressMapBoundaries:
    """Out-of-range and exact-boundary validation edge cases."""

    def make_map(self):
        amap = AddressMap()
        amap.add_region("mem0", 0x0000, 0x1000, "slave0")
        amap.add_region("mem1", 0x2000, 0x800, "slave1")
        return amap

    def test_decode_at_region_end_is_out_of_range(self):
        amap = self.make_map()
        assert amap.decode(0x0FFF)[0] == "slave0"  # last byte is in
        with pytest.raises(AddressDecodeError):
            amap.decode(0x2800)  # first byte after mem1 is out

    def test_decode_above_all_regions(self):
        amap = self.make_map()
        with pytest.raises(AddressDecodeError):
            amap.decode(0xFFFF_FFFF)
        assert amap.find_region(0xFFFF_FFFF) is None

    def test_single_byte_region_boundaries(self):
        amap = AddressMap()
        amap.add_region("bit", 0x42, 1, "s")
        assert amap.decode(0x42)[1] == 0
        with pytest.raises(AddressDecodeError):
            amap.decode(0x41)
        with pytest.raises(AddressDecodeError):
            amap.decode(0x43)

    def test_overlap_one_byte_at_start(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("tail", 0x0FFF, 0x100, "s")  # overlaps last byte

    def test_overlap_fully_contained_region(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("inner", 0x2100, 0x10, "s")

    def test_overlap_fully_containing_region(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("outer", 0x1000, 0x4000, "s")

    def test_overlap_identical_window_different_name(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("twin", 0x2000, 0x800, "s")

    def test_failed_add_leaves_map_unchanged(self):
        amap = self.make_map()
        with pytest.raises(AddressMapConflict):
            amap.add_region("bad", 0x0800, 0x1000, "s")
        assert len(amap) == 2
        assert amap.find_region(0x1800) is None

    @given(st.integers(min_value=0, max_value=0x4000),
           st.integers(min_value=1, max_value=0x1000))
    def test_overlap_check_matches_interval_arithmetic(self, base, size):
        amap = self.make_map()
        intervals = [(0x0000, 0x1000), (0x2000, 0x2800)]
        overlaps = any(base < end and lo < base + size
                       for lo, end in intervals)
        if overlaps:
            with pytest.raises(AddressMapConflict):
                amap.add_region("probe", base, size, "s")
        else:
            amap.add_region("probe", base, size, "s")
            assert amap.decode(base)[0] == "s"


class TestRoundRobinArbiter:
    def test_rotation(self):
        arb = RoundRobinArbiter()
        grants = [arb.grant([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_idle_masters(self):
        arb = RoundRobinArbiter()
        assert arb.grant([1, 3]) == 1
        assert arb.grant([1, 3]) == 3
        assert arb.grant([1, 3]) == 1

    def test_empty_requesters(self):
        arb = RoundRobinArbiter()
        assert arb.grant([]) is None

    def test_reset(self):
        arb = RoundRobinArbiter()
        arb.grant([0, 1])
        arb.reset()
        assert arb.grant([0, 1]) == 0
        assert arb.grant_counts == {0: 1}

    def test_fairness_over_many_rounds(self):
        arb = RoundRobinArbiter()
        for _ in range(300):
            arb.grant([0, 1, 2])
        counts = arb.grant_counts
        assert counts[0] == counts[1] == counts[2] == 100

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1), min_size=1, max_size=50))
    def test_grant_always_a_requester(self, rounds):
        arb = RoundRobinArbiter()
        for requesters in rounds:
            winner = arb.grant(sorted(requesters))
            assert winner in requesters


class TestFixedPriorityArbiter:
    def test_lowest_id_wins_by_default(self):
        arb = FixedPriorityArbiter()
        assert arb.grant([3, 1, 2]) == 1

    def test_explicit_priority_order(self):
        arb = FixedPriorityArbiter(priority_order=[2, 0, 1])
        assert arb.grant([0, 1, 2]) == 2
        assert arb.grant([0, 1]) == 0

    def test_requester_not_in_order_falls_back(self):
        arb = FixedPriorityArbiter(priority_order=[5])
        assert arb.grant([7, 9]) == 7

    def test_starvation_is_possible(self):
        arb = FixedPriorityArbiter()
        for _ in range(10):
            assert arb.grant([0, 1]) == 0
        assert 1 not in arb.grant_counts


class TestTdmaArbiter:
    def test_slot_owner_wins(self):
        arb = TdmaArbiter(schedule=[0, 1])
        assert arb.grant([0, 1]) == 0
        assert arb.grant([0, 1]) == 1
        assert arb.grant([0, 1]) == 0

    def test_fallback_when_owner_idle(self):
        arb = TdmaArbiter(schedule=[0, 1])
        assert arb.grant([1]) == 1  # slot 0's owner idle → fallback
        assert arb.slot_misses == 1

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            TdmaArbiter(schedule=[])

    def test_empty_requesters_advances_slot(self):
        arb = TdmaArbiter(schedule=[0, 1])
        assert arb.grant([]) is None
        assert arb.grant([1]) == 1  # now slot 1

    def test_reset(self):
        arb = TdmaArbiter(schedule=[0, 1, 2])
        arb.grant([0])
        arb.reset()
        assert arb.grant([0, 1, 2]) == 0


class TestTdmaSlotWraparound:
    """Slot-counter wraparound edge cases of the TDMA schedule."""

    def test_slot_wraps_after_last_schedule_entry(self):
        arb = TdmaArbiter(schedule=[0, 1, 2])
        grants = [arb.grant([0, 1, 2]) for _ in range(7)]
        # Slots 0,1,2 then wrap to 0,1,2,0 — never an IndexError.
        assert grants == [0, 1, 2, 0, 1, 2, 0]

    def test_wraparound_with_idle_slots_between(self):
        arb = TdmaArbiter(schedule=[0, 1])
        assert arb.grant([0, 1]) == 0      # slot 0
        assert arb.grant([]) is None       # slot 1 elapses idle
        assert arb.grant([0, 1]) == 0      # wrapped back to slot 0
        assert arb.grant([0, 1]) == 1      # slot 1 again

    def test_idle_only_rounds_wrap_the_slot_counter(self):
        arb = TdmaArbiter(schedule=[0, 1, 2])
        for _ in range(3 * 5 + 1):         # 5 full idle cycles + 1 slot
            assert arb.grant([]) is None
        assert arb.grant([0, 1, 2]) == 1   # counter sits on slot 1

    def test_single_slot_schedule_always_wraps_to_owner(self):
        arb = TdmaArbiter(schedule=[7])
        assert arb.grant([7, 9]) == 7
        assert arb.grant([7, 9]) == 7
        assert arb.slot_misses == 0
        assert arb.grant([9]) == 9          # owner idle -> fallback
        assert arb.slot_misses == 1

    def test_fallback_at_wraparound_does_not_shift_schedule(self):
        arb = TdmaArbiter(schedule=[0, 1])
        assert arb.grant([0, 1]) == 0      # slot 0
        assert arb.grant([0]) == 0         # slot 1's owner idle -> fallback
        assert arb.slot_misses == 1
        # The miss consumed slot 1: the wrapped slot 0 still belongs to 0.
        assert arb.grant([0, 1]) == 0

    def test_repeated_owner_schedule_wraps(self):
        arb = TdmaArbiter(schedule=[0, 0, 1])
        grants = [arb.grant([0, 1]) for _ in range(6)]
        assert grants == [0, 0, 1, 0, 0, 1]

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_slot_counter_stays_in_schedule_bounds(self, pattern):
        arb = TdmaArbiter(schedule=[0, 1, 2])
        for busy in pattern:
            arb.grant([0, 1, 2] if busy else [])
            assert 0 <= arb._slot < 3


class TestFactory:
    """``ArbitrationSpec.create`` is the one policy factory."""

    def test_make_round_robin(self):
        assert isinstance(ArbitrationSpec("round_robin").create(),
                          RoundRobinArbiter)

    def test_make_fixed_priority(self):
        arb = ArbitrationSpec("fixed_priority", priority_order=[1, 0]).create()
        assert isinstance(arb, FixedPriorityArbiter)
        assert arb.grant([0, 1]) == 1

    def test_make_tdma(self):
        assert isinstance(ArbitrationSpec("tdma", schedule=[0, 1]).create(),
                          TdmaArbiter)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ArbitrationSpec("magic")
