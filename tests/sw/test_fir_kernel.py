"""The FIR kernel shared by the PE task and the check.

The workload's arithmetic runs tap by tap over shifted samples; it must
equal the filter's per-sample definition, restated here, for any samples
(negative, wider than a word, none) and any taps (negative, zero, more taps
than samples).
"""

from hypothesis import given, settings, strategies as st

from repro.sw.workloads.fir import _fir_kernel, fir_reference


def per_sample(samples, taps):
    """Output ``i`` is ``sum(taps[k] * samples[i - k] for k <= i)``, masked."""
    output = []
    for index in range(len(samples)):
        accumulator = 0
        for tap_index, tap in enumerate(taps):
            if index - tap_index >= 0:
                accumulator += tap * samples[index - tap_index]
        output.append(accumulator & 0xFFFFFFFF)
    return output


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(st.integers(min_value=-(1 << 33), max_value=1 << 34),
                        max_size=12),
       taps=st.lists(st.integers(min_value=-(1 << 31), max_value=1 << 31),
                     max_size=16))
def test_kernel_equals_the_per_sample_definition(samples, taps):
    expected = per_sample(samples, taps)
    assert _fir_kernel(samples, taps) == expected
    assert fir_reference(samples, taps) == expected


def test_edge_cases():
    assert _fir_kernel([], [3, -1]) == []
    assert _fir_kernel([5, 6], []) == [0, 0]
    assert _fir_kernel([1, 2], [0, 0, 0, 4]) == [0, 0]  # more taps than samples
    assert _fir_kernel([1 << 32, -1], [1, -2]) == [0, 0xFFFFFFFF]
