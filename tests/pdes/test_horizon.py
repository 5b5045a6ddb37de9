"""The horizon rule as a pure function.

Every partition worker computes the next window's horizon itself from
the bounds it exchanged with its peers, so the rule lives in one pure
function, :func:`repro.pdes.coordinator.next_horizon`.  It is checked two
ways: table cases for each branch, and a ``hypothesis`` property against
the fold the coordinator used to run inline between rounds — kept here
verbatim as the model (the randomized-stimulus-vs-model idiom).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdes.coordinator import next_horizon

EPOCH = 320


@pytest.mark.parametrize("bounds,emitted,frontier,max_time,expected", [
    # Every partition drained and nothing in flight: the run is over.
    ([None, None], [None, None], 900, None, None),
    ([None], [None], 0, 5_000, None),
    # The earliest bound plus the lookahead.
    ([1_000, 400, None], [None, None, None], 0, None, 400 + EPOCH),
    # A flit emitted in the last window lands before anything else
    # happens anywhere — even when every kernel is otherwise drained.
    ([2_000, 3_000], [None, 1_500], 1_180, None, 1_500 + EPOCH),
    ([None, None], [700, None], 380, None, 700 + EPOCH),
    # The horizon is clipped to the deadline...
    ([4_900, None], [None, None], 4_000, 5_000, 5_000),
    ([5_000, None], [None, None], 4_000, 5_000, 5_000),
    # ...and when nothing can happen before the deadline the clocks are
    # padded to it once, then the run stops.
    ([6_000, None], [None, 7_000], 4_000, 5_000, 5_000),
    ([6_000, None], [None, 7_000], 5_000, 5_000, None),
])
def test_horizon_table(bounds, emitted, frontier, max_time, expected):
    assert next_horizon(bounds, emitted, frontier, EPOCH,
                        max_time) == expected


def model_horizon(bounds, inbound, frontier, lookahead, max_time):
    """The inline fold of the old coordinator round loop (``break`` is
    ``return None``); ``inbound[dest]`` lists the flits routed to each
    destination partition."""
    count = len(bounds)
    effective = list(bounds)
    for dest in range(count):
        for flit in inbound[dest]:
            if (effective[dest] is None
                    or flit.deliver_time < effective[dest]):
                effective[dest] = flit.deliver_time
    alive = [bound for bound in effective if bound is not None]
    if not alive:
        return None
    earliest = min(alive)
    if max_time is not None and earliest > max_time:
        if frontier >= max_time:
            return None
        # Nothing more can happen before the deadline: pad every
        # partition's clock to it, exactly like sc_start.
        horizon = max_time
    else:
        horizon = earliest + lookahead
        if max_time is not None and horizon > max_time:
            horizon = max_time
    return horizon


_TIMES = st.integers(min_value=0, max_value=20_000)


@st.composite
def exchanges(draw):
    """One round's state: per-partition bounds plus the flits in flight,
    each with the partition that emitted it and the one it is routed to."""
    count = draw(st.integers(min_value=1, max_value=4))
    partition = st.integers(min_value=0, max_value=count - 1)
    bounds = draw(st.lists(st.none() | _TIMES, min_size=count,
                           max_size=count))
    flits = draw(st.lists(st.tuples(partition, partition, _TIMES),
                          max_size=8))
    return count, bounds, flits


@settings(max_examples=300, deadline=None)
@given(exchanges(), _TIMES, st.integers(min_value=1, max_value=4_000),
       st.none() | _TIMES)
def test_horizon_matches_the_old_inline_fold(exchange, frontier, lookahead,
                                             max_time):
    count, bounds, flits = exchange
    # The old coordinator saw the flits sorted by destination; a worker
    # now learns only each source's earliest deliver time.
    inbound = [[] for _ in range(count)]
    emitted = [None] * count
    for source, dest, deliver_time in flits:
        inbound[dest].append(SimpleNamespace(deliver_time=deliver_time))
        if emitted[source] is None or deliver_time < emitted[source]:
            emitted[source] = deliver_time
    assert (next_horizon(bounds, emitted, frontier, lookahead, max_time)
            == model_horizon(bounds, inbound, frontier, lookahead, max_time))
