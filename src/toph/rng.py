"""Counter-based pseudorandom numbers with a fully specified algorithm.

Everything random in this package flows through this module so that any
output is reproducible bit-for-bit from ``(seed, stream, counter)`` alone,
on any platform, in any implementation language.

The generator is the SplitMix64 finalizer applied to a counter:

    state(seed, stream)   = mix(seed) XOR mix(stream * GAMMA + 1)
    value(state, counter) = mix(state + (counter + 1) * GAMMA)   (mod 2**64)

where ``mix`` is the standard SplitMix64 avalanche function

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

and GAMMA = 0x9E3779B97F4A7C15.  Uniform doubles take the top 53 bits:
``u = (value >> 11) * 2**-53`` lies in [0, 1); the open variant maps to
(0, 1].  Normal and gamma variates are derived by Box-Muller and the
Marsaglia-Tsang method, both of which consume the stream sequentially.

``_words`` evaluates the formula, element-wise in numpy ``uint64``, whose
wrap-around is the ``mod 2**64`` above; it is the only place SplitMix64 is
computed.  ``u01`` maps the words of an array of counters to doubles.
``Stream`` reads counters 0, 1, 2, ... of its lane in refills of
``_words`` and hands the words out one at a time as Python integers, so
its variates' arithmetic (``math.log``, ``**``) is libm's, per element.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: A lane reads ``FIRST_REFILL`` words at first, then as many as it has read so far, at
#: most ``REFILL_WORDS``: a short lane costs one small evaluation, a long one few large ones.
FIRST_REFILL, REFILL_WORDS = 16, 4096


def _words(state, counters) -> np.ndarray:
    """``value(state, counter)`` for ``uint64`` arrays ``state`` and ``counters``, broadcast."""
    z = (counters + 1) * _GAMMA + state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _state(seed: int, stream: int) -> int:
    """``mix(seed) XOR mix(stream * GAMMA + 1)``, the seed taken mod 2**64."""
    # mix(x) is value(x - GAMMA, 0)
    starts = [(seed - _GAMMA) & _MASK64, ((stream - 1) * _GAMMA + 1) & _MASK64]
    mixed = _words(np.array(starts, dtype=np.uint64), 0)
    return int(mixed[0] ^ mixed[1])


def _lane(seed: int, stream: int) -> Iterator[int]:
    """The words of counters 0, 1, 2, ... of one lane, as Python integers."""
    state, read = _state(seed, stream), 0
    while True:
        size = min(max(read, FIRST_REFILL), REFILL_WORDS)
        yield from _words(state, np.arange(read, read + size, dtype=np.uint64)).tolist()
        read += size


def u01(seed: int, stream: int, counter) -> np.ndarray:
    """Uniform doubles in [0, 1), one per entry of the integer array ``counter``.

    Counters are non-negative and below 2**64; the result has the shape of
    ``counter``, at least one-dimensional.  Only array operations touch
    ``uint64`` values (numpy warns on ``uint64`` scalar overflow, never on
    array wrap-around).
    """
    words = _words(_state(seed, stream), np.array(counter, dtype=np.uint64, ndmin=1))
    return (words >> 11) * 2.0 ** -53


class Stream:
    """Sequential view of one (seed, stream) lane.

    Each call consumes one or more counter positions; the mapping from
    draw method to number of positions is part of the documented
    algorithm (uniform: 1, normal: 2, gamma: variable via rejection).
    """

    def __init__(self, seed: int, stream: int = 0):
        self._next_raw = _lane(seed, stream).__next__  # the next word, a Python integer

    def uniform(self) -> float:
        """Uniform in [0, 1)."""
        return (self._next_raw() >> 11) * 2.0 ** -53

    def uniform_open(self) -> float:
        """Uniform in (0, 1]."""
        return ((self._next_raw() >> 11) + 1) * 2.0 ** -53

    def integer_below(self, n: int) -> int:
        """Uniform integer in [0, n); unbiased via rejection on 64-bit words."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self._next_raw()
            if v < limit:
                return v % n

    def normal(self) -> float:
        """Standard normal via Box-Muller (cosine branch, no spare cached)."""
        u1 = self.uniform_open()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) via Marsaglia-Tsang; shape < 1 uses the boost trick."""
        if shape <= 0.0:
            raise ValueError("shape must be positive")
        if shape < 1.0:
            # Gamma(a) = Gamma(a+1) * U^(1/a)
            return self.gamma(shape + 1.0) * self.uniform_open() ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = self.uniform_open()
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integer_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
