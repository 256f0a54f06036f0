"""Probability vectors and the entropy/divergence math built on them.

All entropies and divergences are in nats (natural log throughout), with
the convention 0*ln(0) = 0: exact zeros are skipped in every sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    EmptySubset,
    GammaOutOfRange,
    IndexOutOfRange,
    NegativeProbability,
    NonFiniteValue,
    NonPositiveTemperature,
    NormalizationOutOfTolerance,
    ZeroMassSubset,
)

#: Inputs whose mass deviates from 1 by more than this are rejected;
#: anything closer is silently renormalized to machine precision.
INPUT_MASS_TOLERANCE = 1e-6

#: Post-construction guarantee on the total mass.
MASS_TOLERANCE = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProbabilityDistribution:
    """A validated probability vector over a vocabulary of size n."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen(self.probs))

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])


@dataclass(frozen=True)
class SubsetDistribution:
    """Renormalized restriction of a parent distribution to a token subset.

    ``parent_indices`` keeps the caller's order; ``q[i]`` is the renormalized
    probability of token ``parent_indices[i]`` and ``gamma`` is the parent
    mass of the subset.
    """

    parent_n: int
    parent_indices: tuple[int, ...]
    q: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q))


def validate_block(values: np.ndarray, mode: str, temperatures: Sequence[float]) -> np.ndarray:
    """Validate a ``(B, n)`` block of rows at once; return them as read-only probabilities.

    ``mode="probs"``: each row must be non-negative with a finite sum
    within ``INPUT_MASS_TOLERANCE`` of 1.  A row off by more than
    ``MASS_TOLERANCE`` is divided by its sum; the others keep their bits.
    ``mode="logits"``: row ``r`` becomes softmax(values[r] /
    temperatures[r]), max-shifted for stability; a temperature must be > 0
    and finite, and a ``-inf`` logit gives probability 0 (``temperatures``
    is read in logits mode only).  The checks are reductions over the whole
    block.

    ``values`` is a float64 array the caller hands over; it may be
    overwritten.  The first bad row raises its typed error (``EmptyInput``,
    ``NegativeProbability``, ``NonFiniteValue``,
    ``NormalizationOutOfTolerance`` or ``NonPositiveTemperature``) with the
    row's index in the error's ``row`` attribute.  ``NonFiniteValue``
    covers a NaN or +inf entry, all logits ``-inf``, a logit that overflows
    once divided by its temperature, and a temperature of +inf.
    """
    if values.shape[1] == 0:
        raise _row_error(EmptyInput("need a non-empty 1-d vector"), 0)
    if mode == "probs":
        total = values.sum(axis=1)
        drift = np.abs(total - 1.0)
        negative = (values < 0.0).any(axis=1)
        bad = negative | ~(drift <= INPUT_MASS_TOLERANCE)
        if bad.any():
            r = int(bad.argmax())
            t = float(total[r])
            if negative[r]:
                error = NegativeProbability("probabilities must be non-negative")
            elif not math.isfinite(t):
                error = NonFiniteValue(f"probabilities must be finite, got sum {t!r}")
            else:
                error = NormalizationOutOfTolerance(
                    f"mass {t!r} deviates from 1 by more than {INPUT_MASS_TOLERANCE}")
            raise _row_error(error, r)
        renormalize_rows(values, total)
        return _frozen(values)
    if mode == "logits":
        temps = np.asarray(temperatures, dtype=np.float64)
        # a bad temperature, overflow and inf - inf surface below as bad rows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scaled = values / temps[:, None]
            scaled -= scaled.max(axis=1, keepdims=True)
            np.exp(scaled, out=scaled)
        normalizer = scaled.sum(axis=1)
        bad = ~(temps > 0.0) | ~np.isfinite(temps) | ~np.isfinite(normalizer)
        if bad.any():
            r = int(bad.argmax())
            t, z = float(temps[r]), float(normalizer[r])
            if not t > 0.0:
                error = NonPositiveTemperature(f"temperature must be > 0, got {t!r}")
            elif not math.isfinite(t):
                error = NonFiniteValue(f"temperature must be finite, got {t!r}")
            else:
                error = NonFiniteValue(
                    f"softmax normalizer is {z!r}; logits / temperature "
                    "must be finite and not all -inf")
            raise _row_error(error, r)
        scaled /= normalizer[:, None]
        return _frozen(scaled)
    raise ValueError(f"unknown mode {mode!r}; expected 'probs' or 'logits'")


def _row_error(error: ValueError, row: int) -> ValueError:
    error.row = row
    return error


def renormalize_rows(rows: np.ndarray, total: np.ndarray) -> None:
    """Divide each row of ``rows`` whose mass ``total[r]`` is off 1 by more
    than ``MASS_TOLERANCE`` by that mass, in place; the others keep their bits."""
    cut = np.abs(total - 1.0) > MASS_TOLERANCE
    if cut.any():
        rows[cut] /= total[cut, None]


def make_distribution(
    values: Sequence[float],
    mode: str = "probs",
    temperature: float = 1.0,
) -> ProbabilityDistribution:
    """Build a distribution from raw probabilities or from logits.

    ``validate_block`` on a block of one row: the same checks, errors and
    bits.  ``temperature`` is ignored in probs mode.  ``values`` is copied:
    the caller's array stays writeable and unshared.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise EmptyInput("need a non-empty 1-d vector")
    return ProbabilityDistribution(validate_block(arr[None, :], mode, [temperature])[0])


def uniform_distribution(n: int) -> ProbabilityDistribution:
    if n < 1:
        raise EmptyInput("n must be >= 1")
    return ProbabilityDistribution(np.full(n, 1.0 / n))


def row_entropies(rows: np.ndarray) -> list[float]:
    """-sum p ln p of every row of a ``(B, n)`` block of probability rows.

    One ``log`` and one stacked ``matmul``, which numpy evaluates as one
    BLAS ``ddot`` per row: each entry has the bits of ``np.dot``, taken from
    +0.0 so that one token gives +0.0, not -0.0.  A zero entry (of either
    sign, anywhere) has log -inf and makes its row's sum nan; such a row is
    summed again over its positive entries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 0.0 - np.matmul(rows[:, None, :], np.log(rows)[:, :, None]).ravel()
    for r in np.flatnonzero(np.isnan(h)).tolist():
        pos = rows[r][rows[r] > 0.0]
        h[r] = 0.0 - np.dot(pos, np.log(pos))
    return h.tolist()


def _entropy_of(values: np.ndarray) -> float:
    """``row_entropies`` of one row."""
    return row_entropies(values[None, :])[0]


def entropy(dist: Union[ProbabilityDistribution, SubsetDistribution]) -> float:
    """Shannon entropy -sum p ln p in nats; lies in [0, ln n]."""
    return _entropy_of(dist.q if isinstance(dist, SubsetDistribution) else dist.probs)


def renormalize(
    p: ProbabilityDistribution, indices: Iterable[int]
) -> SubsetDistribution:
    """Restrict ``p`` to ``indices`` and renormalize by the subset mass.

    The subset mass is returned exactly as the partial sum of the selected
    entries; the caller's index order is preserved.
    """
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise EmptySubset("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange("subset indices must be distinct")
    arr = np.asarray(idx, dtype=np.intp)
    if arr.min() < 0 or arr.max() >= p.n:
        raise IndexOutOfRange(f"index out of range for vocabulary of size {p.n}")
    selected = p.probs[arr]
    gamma = float(np.sum(selected))
    if gamma <= 0.0:
        raise ZeroMassSubset("subset carries zero probability mass")
    return SubsetDistribution(
        parent_n=p.n, parent_indices=idx, q=selected / gamma, gamma=gamma
    )


def _kl(a: np.ndarray, b: np.ndarray) -> float:
    mask = a > 0.0
    # b >= a/2 > 0 wherever a > 0 by construction of the midpoint
    assert np.all(b[mask] > 0.0)
    return float(np.dot(a[mask], np.log(a[mask] / b[mask])))


def jsd_direct(p: ProbabilityDistribution, subset: SubsetDistribution) -> float:
    """Jensen-Shannon divergence between ``p`` and its renormalized subset.

    Computed from the definition: 0.5*KL(p||M) + 0.5*KL(q||M) with
    M = (p + q)/2 and q extended by zeros off the subset.  Result is in
    [0, ln 2].
    """
    if subset.parent_n != p.n:
        raise DimensionMismatch(
            f"subset parent size {subset.parent_n} != vocabulary size {p.n}"
        )
    qfull = np.zeros(p.n)
    qfull[np.asarray(subset.parent_indices, dtype=np.intp)] = subset.q
    m = 0.5 * (p.probs + qfull)
    return 0.5 * _kl(p.probs, m) + 0.5 * _kl(qfull, m)


def jsd_closed_form(gamma: float) -> float:
    """Closed form of the divergence as a function of the subset mass alone:

        ln 2 + (gamma*ln(gamma) - (1+gamma)*ln(1+gamma)) / 2

    Strictly decreasing on (0, 1]; equals 0 at gamma = 1.  Partial sums of
    a validated vector can overshoot 1 by a few ulps, so inputs within the
    mass tolerance above 1 are clamped to 1.
    """
    if not 0.0 < gamma <= 1.0 + MASS_TOLERANCE:
        raise GammaOutOfRange(f"gamma must be in (0, 1], got {gamma!r}")
    gamma = min(gamma, 1.0)
    return math.log(2.0) + 0.5 * (
        gamma * math.log(gamma) - (1.0 + gamma) * math.log(1.0 + gamma)
    )

