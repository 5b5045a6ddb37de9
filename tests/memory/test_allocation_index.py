"""``AllocationIndex`` against a naive list of rows.

The wrapper's pointer table only ever appends (its Vptr rule puts every new
row past the last), so its model test never reaches the bisected insert.
Here rows arrive in any order, as a first-fit heap reuses freed payloads and
a shadow map replays ALLOCs, and every answer is compared with a linear walk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.shadow import NO_ROWS
from repro.memory import DataType
from repro.memory.dynamic_base import Allocation, AllocationIndex

ELEMENT_TYPES = (DataType.UINT8, DataType.INT16, DataType.UINT32)

#: One step: (operation, pointer source, pick, dim, type pick).  ``add``
#: places a row of ``dim`` elements at ``pick`` when it overlaps no live
#: row.  The others take a live row's base, its base plus ``dim`` bytes
#: (interior, or past its end), its end (the next base, a gap, or past the
#: last row), or ``pick`` itself (mostly a gap).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "lookup", "containing"]),
        st.sampled_from(["base", "base", "interior", "end", "raw"]),
        st.integers(min_value=0, max_value=160),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1, max_size=60,
)


class NaiveRows:
    """Reference model: the rows in arrival order, every answer a walk."""

    def __init__(self):
        self.rows = []

    def fits(self, row):
        return all(row.end_vptr <= other.vptr or other.end_vptr <= row.vptr
                   for other in self.rows)

    def lookup(self, vptr):
        return next((row for row in self.rows if row.vptr == vptr), None)

    def containing(self, vptr):
        return next((row for row in self.rows
                     if row.vptr <= vptr < row.end_vptr), None)

    def live_bytes(self):
        return sum(row.size_bytes for row in self.rows)


@settings(max_examples=200, deadline=None)
@given(STEPS)
def test_index_agrees_with_a_walk_of_its_rows(steps):
    index, model = AllocationIndex(), NaiveRows()
    for operation, source, pick, dim, type_pick in steps:
        vptr = pick
        if source != "raw" and model.rows:
            row = model.rows[pick % len(model.rows)]
            vptr = {"base": row.vptr, "interior": row.vptr + dim,
                    "end": row.end_vptr}[source]
        if operation == "add":
            row = Allocation(pick, dim, ELEMENT_TYPES[type_pick])
            if model.fits(row):  # the invariant is the caller's to keep
                index.add(row)
                model.rows.append(row)
        elif operation == "remove":
            row = model.lookup(vptr)
            assert index.remove(vptr) is row
            if row is not None:
                model.rows.remove(row)
        elif operation == "lookup":
            assert index.lookup(vptr) is model.lookup(vptr)
        else:
            assert index.containing(vptr) is model.containing(vptr)
        ordered = sorted(model.rows, key=lambda row: row.vptr)
        assert index.rows == ordered
        assert index.bases == [row.vptr for row in ordered]
        assert index.live_bytes == model.live_bytes()


def test_the_shared_empty_index_refuses_an_add():
    with pytest.raises(AttributeError):
        NO_ROWS.add(Allocation(0, 1, DataType.UINT8))
    assert (NO_ROWS.bases, NO_ROWS.rows, NO_ROWS.live_bytes) == ((), (), 0)
    assert NO_ROWS.remove(0) is None and NO_ROWS.containing(0) is None
