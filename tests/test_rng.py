"""The vectorized counter generator against the documented Python-int formula."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph.rng import Stream, u01

from rng_reference import reference_u01

seeds = st.integers(-(2**63), 2**64 - 1)
streams = st.integers(0, 2**32)
counters = st.integers(0, 2**62)

# (seed, stream, counter) -> u01, pinned from the scalar Python-int generator
# that preceded the array form.
KNOWN_ANSWERS = [
    ((0, 0, 0), 0.7497482413580301),
    ((7, 3, 12345), 0.9562969487792845),
    ((2**64 - 1, 2**32, 2**62), 0.46254451355211723),
    ((-(2**63), 5, 2**40 + 3), 0.5069589845762859),
]


@pytest.mark.parametrize("triple,expected", KNOWN_ANSWERS)
def test_known_answers(triple, expected):
    seed, stream, counter = triple
    assert u01(seed, stream, [counter])[0] == expected
    assert reference_u01(seed, stream, counter) == expected


@settings(max_examples=200, deadline=None)
@given(seeds, streams, st.lists(counters, max_size=8))
def test_matches_reference(seed, stream, cs):
    got = u01(seed, stream, np.array(cs, dtype=np.uint64))
    assert got.dtype == np.float64
    assert got.tolist() == [reference_u01(seed, stream, c) for c in cs]


@settings(max_examples=20, deadline=None)
@given(seeds, streams, counters, st.sampled_from([0, 1, 4096]))
def test_matches_reference_at_fixed_lengths(seed, stream, start, length):
    cs = start + np.arange(length, dtype=np.uint64)
    got = u01(seed, stream, cs)
    assert got.shape == (length,)
    assert got.tolist() == [reference_u01(seed, stream, int(c)) for c in cs]


@settings(max_examples=50, deadline=None)
@given(seeds, streams, st.integers(0, 300))
def test_counters_follow_stream(seed, stream, k):
    lane = Stream(seed, stream)
    assert u01(seed, stream, np.arange(k)).tolist() == [lane.uniform() for _ in range(k)]


def test_scalar_counter_is_batch_of_one():
    assert u01(3, 1, 5).shape == (1,)
    assert u01(3, 1, 5)[0] == reference_u01(3, 1, 5)
