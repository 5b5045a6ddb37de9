"""Tests for the translator, the delay parameters and the cycle-true FSM."""

import pytest
from hypothesis import given, strategies as st

from repro.memory import DataType, Endianness, HostMemory, MemOpcode, to_signed
from repro.wrapper import (
    S_ACCESS,
    S_DECODE,
    S_HOST_CALL,
    S_IDLE,
    S_RESPOND,
    S_TABLE,
    S_TRANSFER,
    TranslationError,
    Translator,
    WrapperDelays,
    WrapperFsm,
)


class TestTranslator:
    def test_calloc_and_free(self):
        host = HostMemory()
        translator = Translator(host)
        block = translator.host_calloc(16, DataType.UINT32)
        assert block.size == 64
        translator.host_free(block)
        assert host.check_all_freed()
        assert translator.stats.host_allocs == 1
        assert translator.stats.host_frees == 1

    def test_invalid_calloc(self):
        translator = Translator(HostMemory())
        with pytest.raises(TranslationError):
            translator.host_calloc(0, DataType.UINT32)

    def test_host_limit_surfaces_as_translation_error(self):
        translator = Translator(HostMemory(limit_bytes=16))
        with pytest.raises(TranslationError):
            translator.host_calloc(100, DataType.UINT32)

    def test_scalar_element_roundtrip(self):
        translator = Translator(HostMemory())
        block = translator.host_calloc(8, DataType.INT16)
        translator.store_element(block, 4, -321, DataType.INT16)
        assert translator.load_element(block, 4, DataType.INT16) == -321

    def test_endianness_changes_host_bytes(self):
        little = Translator(HostMemory(), Endianness.LITTLE)
        big = Translator(HostMemory(), Endianness.BIG)
        block_l = little.host_calloc(1, DataType.UINT32)
        block_b = big.host_calloc(1, DataType.UINT32)
        little.store_element(block_l, 0, 0x11223344, DataType.UINT32)
        big.store_element(block_b, 0, 0x11223344, DataType.UINT32)
        assert block_l.read_bytes(0, 4) == b"\x44\x33\x22\x11"
        assert block_b.read_bytes(0, 4) == b"\x11\x22\x33\x44"

    def test_array_roundtrip(self):
        translator = Translator(HostMemory())
        block = translator.host_calloc(16, DataType.UINT16)
        values = [1, 2, 70000 & 0xFFFF, 9]
        translator.store_array(block, 0, values, DataType.UINT16)
        assert translator.load_array(block, 0, 4, DataType.UINT16) == values
        assert translator.stats.array_elements_moved == 8

    def test_to_signed(self):
        assert to_signed(0xFFFE, DataType.INT16) == -2

    @given(st.lists(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
                    min_size=1, max_size=32))
    def test_int32_array_property(self, values):
        translator = Translator(HostMemory())
        block = translator.host_calloc(len(values), DataType.INT32)
        translator.store_array(block, 0, [v & 0xFFFFFFFF for v in values],
                               DataType.INT32)
        loaded = translator.load_array(block, 0, len(values), DataType.INT32)
        assert [to_signed(v, DataType.INT32) for v in loaded] == values


class TestWrapperDelays:
    def test_defaults_are_positive(self):
        delays = WrapperDelays()
        assert delays.decode_cycles >= 1
        assert delays.as_dict()["host_call_cycles"] == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WrapperDelays(table_cycles=-1)

    def test_extra_hook(self):
        delays = WrapperDelays(data_dependent=lambda op, nbytes: nbytes // 8)
        assert delays.extra(MemOpcode.ALLOC, 64) == 8
        assert WrapperDelays().extra(MemOpcode.ALLOC, 64) == 0

    def test_negative_hook_rejected(self):
        delays = WrapperDelays(data_dependent=lambda op, nbytes: -5)
        with pytest.raises(ValueError):
            delays.extra(MemOpcode.READ, 4)

    def test_presets_ordering(self):
        assert (WrapperDelays.sdram_like().host_call_cycles
                > WrapperDelays.sram_like().host_call_cycles)


def run_length(schedule, state):
    """Total cycles ``schedule`` spends in ``state``."""
    return sum(cycles for name, cycles in schedule if name == state)


def total_cycles(schedule):
    return sum(cycles for _, cycles in schedule)


class TestWrapperFsm:
    def test_alloc_schedule_contents(self):
        fsm = WrapperFsm(WrapperDelays())
        schedule = fsm.schedule_for(MemOpcode.ALLOC, words=0, byte_count=64)
        assert schedule[0] == (S_DECODE, 1)
        assert (S_HOST_CALL, 2) in schedule
        assert schedule[-1] == (S_RESPOND, 1)

    def test_array_schedule_scales_with_words(self):
        fsm = WrapperFsm(WrapperDelays())
        short = fsm.schedule_for(MemOpcode.READ_ARRAY, words=2, byte_count=8)
        long = fsm.schedule_for(MemOpcode.READ_ARRAY, words=32, byte_count=128)
        assert total_cycles(long) - total_cycles(short) == 30
        assert (S_TRANSFER, 32) in long
        assert len(long) == len(short)  # one run however long the transfer

    def test_scalar_schedule_has_no_transfer_state(self):
        fsm = WrapperFsm(WrapperDelays())
        schedule = fsm.schedule_for(MemOpcode.READ, words=0, byte_count=4)
        assert run_length(schedule, S_TRANSFER) == 0

    def test_free_recompacts_in_table_state(self):
        fsm = WrapperFsm(WrapperDelays(table_cycles=2))
        schedule = fsm.schedule_for(MemOpcode.FREE, words=0, byte_count=0)
        assert run_length(schedule, S_TABLE) == 4  # lookup + re-compaction

    def test_zero_cycle_phases_are_dropped(self):
        fsm = WrapperFsm(WrapperDelays(table_cycles=0, access_cycles=0))
        schedule = fsm.schedule_for(MemOpcode.READ_ARRAY, words=0, byte_count=0)
        assert schedule == [(S_DECODE, 1), (S_RESPOND, 1)]

    def test_run_operation_counts_cycles_and_occupancy(self):
        fsm = WrapperFsm(WrapperDelays())
        cycles = fsm.run_operation(MemOpcode.ALLOC, byte_count=64)
        assert cycles == total_cycles(fsm.schedule_for(MemOpcode.ALLOC, 0, 64))
        occupancy = fsm.occupancy()
        assert occupancy[S_DECODE] == WrapperDelays().decode_cycles
        assert fsm.cycles == cycles
        assert fsm.operations["ALLOC"] == 1
        assert fsm.state == S_IDLE

    def test_data_dependent_hook_lengthens_schedule(self):
        base = WrapperFsm(WrapperDelays())
        hooked = WrapperFsm(WrapperDelays(data_dependent=lambda op, n: 5))
        assert (total_cycles(hooked.schedule_for(MemOpcode.READ, 0, 4))
                == total_cycles(base.schedule_for(MemOpcode.READ, 0, 4)) + 5)

    def test_busy_fraction(self):
        fsm = WrapperFsm(WrapperDelays())
        assert fsm.busy_fraction() == 0.0
        fsm.run_operation(MemOpcode.READ)
        assert fsm.busy_fraction() == 1.0
        fsm.account_idle(fsm.cycles)
        assert fsm.busy_fraction() == 0.5
        assert fsm.occupancy()[S_IDLE] * 2 == fsm.cycles


# ---------------------------------------------------------------------------
# Reference model: the per-cycle FSM the run-length schedule replaced.  One
# list entry per busy cycle, one step per entry — kept here, and only here,
# to be compared against.
# ---------------------------------------------------------------------------


def reference_schedule(d, opcode, words, byte_count):
    """The state the FSM occupies in each cycle of one operation."""
    schedule = [S_DECODE] * max(1, d.decode_cycles)
    if opcode == MemOpcode.ALLOC:
        schedule += [S_TABLE] * d.table_cycles
        schedule += [S_HOST_CALL] * d.host_call_cycles
    elif opcode == MemOpcode.FREE:
        schedule += [S_TABLE] * d.table_cycles
        schedule += [S_HOST_CALL] * d.host_call_cycles
        schedule += [S_TABLE] * d.table_cycles
    elif opcode in (MemOpcode.READ, MemOpcode.WRITE):
        schedule += [S_TABLE] * d.table_cycles
        schedule += [S_ACCESS] * d.access_cycles
    elif opcode in (MemOpcode.READ_ARRAY, MemOpcode.WRITE_ARRAY):
        schedule += [S_TABLE] * d.table_cycles
        schedule += [S_ACCESS] * d.access_cycles
        schedule += [S_TRANSFER] * (d.per_word_cycles * max(0, words))
    elif opcode in (MemOpcode.RESERVE, MemOpcode.RELEASE, MemOpcode.QUERY):
        schedule += [S_TABLE] * d.table_cycles
    schedule += [S_ACCESS] * d.extra(opcode, byte_count)
    schedule += [S_RESPOND] * max(1, d.respond_cycles)
    return schedule


class ReferenceFsm:
    """Steps through ``reference_schedule`` one cycle at a time."""

    def __init__(self, delays):
        self.delays = delays
        self.state = S_IDLE
        self.cycles = 0
        self.occupancy = {}

    def step(self, next_state):
        self.cycles += 1
        self.occupancy[self.state] = self.occupancy.get(self.state, 0) + 1
        self.state = next_state

    def run_operation(self, opcode, words, byte_count):
        schedule = reference_schedule(self.delays, opcode, words, byte_count)
        # The request arrival edge moves the FSM out of IDLE.
        self.state = schedule[0]
        for next_state in schedule[1:] + [S_IDLE]:
            self.step(next_state)
        return len(schedule)

    def idle(self, cycles):
        for _ in range(cycles):
            self.step(S_IDLE)

    def busy_fraction(self):
        if self.cycles == 0:
            return 0.0
        return 1.0 - self.occupancy.get(S_IDLE, 0) / self.cycles


phase_cycles = st.integers(min_value=0, max_value=6)
hooks = st.sampled_from([
    None,
    lambda op, nbytes: 0,
    lambda op, nbytes: 3,
    lambda op, nbytes: nbytes // 32,
    lambda op, nbytes: int(op) % 3,
])
operations = st.tuples(st.sampled_from(list(MemOpcode)),
                       st.integers(min_value=0, max_value=256),
                       st.integers(min_value=0, max_value=4))


class TestRunLengthAgainstPerCycleReference:
    @given(decode=phase_cycles, table=phase_cycles, host_call=phase_cycles,
           access=phase_cycles, per_word=phase_cycles, respond=phase_cycles,
           hook=hooks, ops=st.lists(operations, min_size=1, max_size=6))
    def test_cycles_occupancy_and_state_match(self, decode, table, host_call,
                                              access, per_word, respond, hook,
                                              ops):
        delays = WrapperDelays(decode_cycles=decode, table_cycles=table,
                               host_call_cycles=host_call, access_cycles=access,
                               per_word_cycles=per_word, respond_cycles=respond,
                               data_dependent=hook)
        fsm, reference = WrapperFsm(delays), ReferenceFsm(delays)
        for opcode, words, idle in ops:
            byte_count = words * 4
            schedule = fsm.schedule_for(opcode, words, byte_count)
            expanded = [state for state, cycles in schedule
                        for _ in range(cycles)]
            assert all(cycles > 0 for _, cycles in schedule)
            assert expanded == reference_schedule(delays, opcode, words,
                                                  byte_count)
            assert (fsm.run_operation(opcode, words, byte_count)
                    == reference.run_operation(opcode, words, byte_count))
            if idle:
                fsm.account_idle(idle)
                reference.idle(idle)
            assert fsm.state == reference.state == S_IDLE
            assert fsm.cycles == reference.cycles
            assert fsm.occupancy() == reference.occupancy
            assert list(fsm.occupancy()) == list(reference.occupancy)
            assert fsm.busy_fraction() == reference.busy_fraction()
