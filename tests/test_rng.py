"""The vectorized counter generator against the documented Python-int formula."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph.rng import FIRST_REFILL, REFILL_WORDS, Stream, u01

from rng_reference import reference_u01, reference_word

# any integer seed is taken mod 2**64, so the strategy reaches past both ends
seeds = st.integers(-(2**70), 2**70)
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


def refill_starts(stop):
    """The counters, below ``stop``, at which a ``Stream`` reads a new refill."""
    starts, read = [], 0
    while read < stop:
        starts.append(read)
        read += min(max(read, FIRST_REFILL), REFILL_WORDS)
    return starts


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -(2**63), 2**64 + 5, -(2**64) - 1])
def test_stream_words_across_refills(seed):
    # up to two refills of the largest size, so every refill size is crossed
    starts = refill_starts(4 * REFILL_WORDS)
    assert starts[-1] - starts[-2] == starts[-2] - starts[-3] == REFILL_WORDS
    lane = Stream(seed, 3)
    words = [lane._next_raw() for _ in range(starts[-1] + 2)]
    at_refills = sorted({c + d for c in starts[1:] for d in (-1, 0, 1)} | {0})
    assert [words[c] for c in at_refills] == [reference_word(seed, 3, c) for c in at_refills]
    assert (words[0] >> 11) * 2.0 ** -53 == u01(seed, 3, 0)[0]


def test_scalar_counter_is_batch_of_one():
    assert u01(3, 1, 5).shape == (1,)
    assert u01(3, 1, 5)[0] == reference_u01(3, 1, 5)


@pytest.mark.parametrize("draw, argument", [("integer_below", 0), ("gamma", 0.0)])
def test_out_of_domain_argument_raises(draw, argument):
    lane = Stream(0, 0)
    with pytest.raises(ValueError, match="must be positive"):
        getattr(lane, draw)(argument)
