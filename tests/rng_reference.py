"""The documented SplitMix64 counter formula in plain Python integers.

It shares no code path with ``toph.rng``: every step is a Python-int
operation reduced ``mod 2**64`` by masking, one counter at a time, exactly
as the module docstring writes it.  The tests compare the library's numpy
``uint64`` evaluation, and the words a ``Stream`` reads, against it.
"""

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z):
    """The SplitMix64 avalanche function on one 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_word(seed, stream, counter):
    """The 64-bit word at ``(seed, stream, counter)``; any integer seed is taken mod 2**64."""
    state = mix(seed) ^ mix((stream * GAMMA + 1) & MASK64)
    return mix((state + (counter + 1) * GAMMA) & MASK64)


def reference_u01(seed, stream, counter):
    """Uniform double in [0, 1) at ``(seed, stream, counter)``."""
    return (reference_word(seed, stream, counter) >> 11) * 2.0 ** -53
