"""Tests for the pointer table: Vptr generation, lookup, capacity.

The reservation rule lives in the protocol, not the table: see
``tests/memory/test_protocol_rules.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import DATA_TYPE_SIZES, DataType, HostMemory
from repro.wrapper import PointerTable, PointerTableError


def make_table(capacity=None, base_vptr=0):
    host = HostMemory()
    table = PointerTable(capacity_bytes=capacity, base_vptr=base_vptr)
    return table, host


def insert(table, host, dim, data_type=DataType.UINT32):
    block = host.calloc(dim, 4)
    return table.insert(block, dim, data_type)


class TestVptrGeneration:
    def test_first_vptr_is_zero(self):
        table, host = make_table()
        entry = insert(table, host, 10)
        assert entry.vptr == 0

    def test_vptr_is_cumulative_sum(self):
        table, host = make_table()
        first = insert(table, host, 10)          # 40 bytes
        second = insert(table, host, 3)          # 12 bytes
        third = insert(table, host, 1)
        assert first.vptr == 0
        assert second.vptr == 40
        assert third.vptr == 52

    def test_element_size_affects_vptr(self):
        table, host = make_table()
        first = table.insert(host.calloc(10, 2), 10, DataType.INT16)   # 20 bytes
        second = insert(table, host, 1)
        assert second.vptr == first.vptr + 20

    def test_base_vptr_offsets_the_window(self):
        table, host = make_table(base_vptr=0x1000)
        entry = insert(table, host, 4)
        assert entry.vptr == 0x1000

    def test_vptr_restarts_from_last_survivor_after_free(self):
        table, host = make_table()
        insert(table, host, 10)                  # vptr 0
        b = insert(table, host, 10)              # vptr 40
        table.remove(b.vptr)
        c = insert(table, host, 2)
        assert c.vptr == 40  # last survivor ends at 40

    def test_vptr_zero_after_all_freed(self):
        table, host = make_table()
        a = insert(table, host, 10)
        table.remove(a.vptr)
        b = insert(table, host, 1)
        assert b.vptr == 0


class TestLookupAndResolve:
    def test_exact_lookup(self):
        table, host = make_table()
        entry = insert(table, host, 8)
        assert table.lookup(entry.vptr) is entry

    def test_lookup_unknown_is_none(self):
        table, _ = make_table()
        assert table.lookup(0x40) is None

    def test_resolve_interior_pointer(self):
        table, host = make_table()
        insert(table, host, 10)                  # [0, 40)
        entry = insert(table, host, 10)          # [40, 80)
        assert table.containing(52) is entry
        assert entry.locate(52, 0, 1) == 3  # byte 12 is element 3

    def test_resolve_out_of_range_is_none(self):
        table, host = make_table()
        insert(table, host, 4)
        assert table.containing(100) is None

    def test_remove_keeps_other_vptrs(self):
        table, host = make_table()
        a = insert(table, host, 4)
        b = insert(table, host, 4)
        c = insert(table, host, 4)
        table.remove(b.vptr)
        assert table.lookup(a.vptr).vptr == a.vptr
        assert table.lookup(c.vptr).vptr == c.vptr
        assert table.lookup(b.vptr) is None

    def test_remove_unknown_raises(self):
        table, _ = make_table()
        with pytest.raises(PointerTableError):
            table.remove(0)


class TestCapacity:
    def test_capacity_enforced(self):
        table, host = make_table(capacity=100)
        insert(table, host, 20)                  # 80 bytes
        assert not table.would_fit(40)
        with pytest.raises(PointerTableError):
            insert(table, host, 10)

    def test_free_restores_capacity(self):
        table, host = make_table(capacity=100)
        entry = insert(table, host, 20)
        table.remove(entry.vptr)
        assert table.would_fit(80)
        insert(table, host, 20)

    def test_unlimited_capacity(self):
        table, host = make_table(capacity=None)
        assert table.would_fit(1 << 40)
        insert(table, host, 10_000)

    def test_used_and_free_bytes(self):
        table, host = make_table(capacity=200)
        insert(table, host, 10)
        assert table.live_bytes == 40
        assert table.would_fit(160) and not table.would_fit(161)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PointerTable(capacity_bytes=0)

    def test_invalid_dimension(self):
        table, host = make_table()
        block = host.calloc(1, 4)
        with pytest.raises(PointerTableError):
            table.insert(block, 0, DataType.UINT32)


class TestStatsAndConsistency:
    def test_counters(self):
        table, host = make_table()
        a = insert(table, host, 4)
        insert(table, host, 4)
        table.remove(a.vptr)
        assert table.total_allocations == 2
        assert table.total_frees == 1
        assert table.peak_entries == 2
        assert table.peak_used_bytes == 32
        assert len(table.rows) == 1

    def test_consistency_check_passes(self):
        table, host = make_table(capacity=1024)
        for dim in (3, 7, 1, 12):
            insert(table, host, dim)
        table.check_consistency()

    def test_consistency_check_catches_a_stale_index_and_counter(self):
        table, host = make_table()
        insert(table, host, 4)
        insert(table, host, 4)
        table.live_bytes += 1
        with pytest.raises(PointerTableError, match="counter"):
            table.check_consistency()
        table.live_bytes -= 1
        table.bases[1] += 4
        with pytest.raises(PointerTableError, match="index"):
            table.check_consistency()
        table.bases[1] -= 4
        table.rows.reverse()
        table.bases.reverse()
        with pytest.raises(PointerTableError, match="starts below"):
            table.check_consistency()


class NaiveTable:
    """Reference model: the unindexed list the pointer table used to be.

    Every question is answered by walking ``rows`` and every byte count by
    re-summing them, so it is obviously right and obviously linear.
    """

    def __init__(self, capacity=None, base_vptr=0):
        self.capacity, self.base_vptr = capacity, base_vptr
        self.rows = []  # [vptr, size_bytes], oldest first
        self.peak_entries = self.peak_used_bytes = 0

    def used_bytes(self):
        return sum(size for _, size in self.rows)

    def insert(self, dim, data_type):
        size = dim * DATA_TYPE_SIZES[data_type]
        if self.capacity is not None and self.used_bytes() + size > self.capacity:
            raise PointerTableError("full")
        vptr = self.rows[-1][0] + self.rows[-1][1] if self.rows else self.base_vptr
        self.rows.append([vptr, size])
        self.peak_entries = max(self.peak_entries, len(self.rows))
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes())
        return vptr

    def lookup(self, vptr):
        for row in self.rows:
            if row[0] == vptr:
                return row
        raise PointerTableError("unknown")

    def remove(self, vptr):
        self.rows.remove(self.lookup(vptr))
        return vptr

    def resolve(self, vptr):
        for base, size in self.rows:
            if base <= vptr < base + size:
                return base, vptr - base
        raise PointerTableError("outside")


def row_of(entry):
    """A table entry in the model's row shape."""
    return [entry.vptr, entry.size_bytes]


def outcome(call):
    """What a table call produced: its value, or that it was refused."""
    try:
        return call()
    except PointerTableError:
        return PointerTableError


#: One step of a random program: (operation, pointer source, pick, delta).  The pointer is a live base, a live base plus ``delta`` (interior,
#: or past the end into the next range or a gap), a live range's end (the next
#: base, a gap, or one past the table), a Vptr freed earlier (stale, or
#: reissued since), or ``base_vptr + pick - 8`` (mostly never issued,
#: sometimes below the window).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "alloc", "free", "free", "lookup", "resolve"]),
        st.sampled_from(["base", "base", "base", "interior", "end", "freed", "raw"]),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=70),
    ),
    min_size=1, max_size=80,
)
ELEMENT_TYPES = (DataType.UINT8, DataType.INT16, DataType.UINT32)


class TestAgainstNaiveModel:
    @settings(max_examples=150, deadline=None)
    @given(STEPS, st.sampled_from([None, 96, 400]), st.sampled_from([0, 0x1000]))
    def test_live_ranges_never_overlap(self, steps, capacity, base_vptr):
        """Property: every step agrees with the naive model — same Vptrs,
        offsets, refusals and byte/entry peaks — and the invariants (live
        ranges of the paper's Vptr generation never overlap) hold throughout.
        """
        table, host = make_table(capacity, base_vptr)
        model = NaiveTable(capacity, base_vptr)
        freed = []
        for operation, source, pick, delta in steps:
            if source in ("base", "interior", "end") and model.rows:
                vptr, size = model.rows[pick % len(model.rows)]
                vptr += {"base": 0, "interior": delta, "end": size}[source]
            elif source == "freed" and freed:
                vptr = freed[pick % len(freed)]
            else:
                vptr = base_vptr + pick - 8
            if operation == "alloc":
                dim, data_type = 1 + delta % 16, ELEMENT_TYPES[pick % 3]
                got = outcome(lambda: insert(table, host, dim, data_type).vptr)
                want = outcome(lambda: model.insert(dim, data_type))
            elif operation == "free":
                got = outcome(lambda: table.remove(vptr).vptr)
                want = outcome(lambda: model.remove(vptr))
                if want == vptr:
                    freed.append(vptr)
            elif operation == "lookup":
                entry = table.lookup(vptr)
                got = PointerTableError if entry is None else row_of(entry)
                want = outcome(lambda: model.lookup(vptr))
            else:
                entry = table.containing(vptr)
                got = (PointerTableError if entry is None
                       else (entry.vptr, vptr - entry.vptr))
                want = outcome(lambda: model.resolve(vptr))
            assert got == want, (operation, vptr)
            table.check_consistency()
            assert [row_of(entry) for entry in table.rows] == model.rows
            assert table.live_bytes == model.used_bytes()
            if capacity is not None:
                free = capacity - model.used_bytes()
                assert table.would_fit(free) and not table.would_fit(free + 1)
            assert table.peak_used_bytes == model.peak_used_bytes
            assert table.peak_entries == model.peak_entries


LIVE = 4096
#: Generous O(log n): bisect needs 13 comparisons at 4096 entries.
LOG_BOUND = 4 * LIVE.bit_length()


def counted_int():
    """A fresh ``int`` subclass counting every comparison and arithmetic
    operation made on its instances — by Python code and by ``bisect``'s C
    loop alike — in ``ops``.  Sums, differences and products stay counted,
    so Vptrs derived from a counted base and counted dimensions are too.
    """

    class Counted(int):
        ops = 0

    def counting(name, keep):
        plain = getattr(int, name)

        def method(self, other):
            Counted.ops += 1
            result = plain(self, other)
            return Counted(result) if keep and result is not NotImplemented else result
        return method

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
        setattr(Counted, name, counting(name, keep=False))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        setattr(Counted, name, counting(name, keep=True))
    return Counted


class TestCostDoesNotGrowWithLiveEntries:
    """Counts, not timings: operations on the table's integers with 4 096
    live entries.  A linear scan or re-sum needs thousands."""

    @pytest.fixture()
    def filled(self):
        number = counted_int()
        host = HostMemory()
        table = PointerTable(capacity_bytes=number(1 << 30), base_vptr=number(0x100))
        entries = [table.insert(host.calloc(3, 4), number(3), DataType.UINT32)
                   for _ in range(LIVE)]
        number.ops = 0
        return table, entries, number, host

    def test_exact_lookup_compares_logarithmically_many(self, filled):
        table, entries, number, _ = filled
        for entry in (entries[0], entries[LIVE // 2], entries[-1]):
            number.ops = 0
            assert table.lookup(entry.vptr) is entry
            assert 1 <= number.ops <= LOG_BOUND
        number.ops = 0
        assert table.lookup(entries[-1].vptr + number(4)) is None
        assert 1 <= number.ops <= LOG_BOUND

    def test_interior_resolve_compares_logarithmically_many(self, filled):
        table, entries, number, _ = filled
        for entry in (entries[0], entries[LIVE // 2], entries[-1]):
            number.ops = 0
            assert table.containing(entry.vptr + number(8)) is entry
            assert 1 <= number.ops <= LOG_BOUND
        number.ops = 0
        assert table.containing(entries[-1].end_vptr) is None
        assert 1 <= number.ops <= LOG_BOUND

    def test_byte_accounting_touches_no_entry(self, filled):
        table, _, number, _ = filled
        used = table.live_bytes
        assert number.ops == 0
        fits = table.would_fit(number(8))
        assert number.ops <= 3
        assert (used, fits) == (LIVE * 12, True)

    def test_insert_and_remove_touch_no_other_entry(self, filled):
        table, entries, number, host = filled
        entry = table.insert(host.calloc(5, 4), number(5), DataType.UINT32)
        assert entry.vptr == entries[-1].end_vptr
        assert 1 <= number.ops <= 16
        number.ops = 0
        assert table.remove(entries[LIVE // 2].vptr) is entries[LIVE // 2]
        assert 1 <= number.ops <= LOG_BOUND
