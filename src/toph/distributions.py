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

    def __len__(self) -> int:
        return self.n


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

    @property
    def size(self) -> int:
        return len(self.parent_indices)


def make_distribution(
    values: Sequence[float],
    mode: str = "probs",
    temperature: float = 1.0,
) -> ProbabilityDistribution:
    """Build a distribution from raw probabilities or from logits.

    ``mode="probs"``: entries must be non-negative and sum to 1 within
    ``INPUT_MASS_TOLERANCE``; the vector is renormalized exactly.
    ``mode="logits"``: returns softmax(values / temperature), computed with
    the usual max-shift for stability; ``temperature`` must be positive and
    is ignored in probs mode.  A ``-inf`` logit gives probability 0.

    Raises ``NonFiniteValue`` when the probability sum or the softmax
    normalizer is not finite: a NaN or +inf entry, every logit ``-inf``,
    or a logit that overflows once divided by the temperature.

    ``values`` is copied: the caller's array stays writeable and unshared.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("need a non-empty 1-d vector")
    if mode == "probs":
        if np.any(arr < 0.0):
            raise NegativeProbability("probabilities must be non-negative")
        total = float(arr.sum())
        if not math.isfinite(total):
            raise NonFiniteValue(f"probabilities must be finite, got sum {total!r}")
        if abs(total - 1.0) > INPUT_MASS_TOLERANCE:
            raise NormalizationOutOfTolerance(
                f"mass {total!r} deviates from 1 by more than {INPUT_MASS_TOLERANCE}"
            )
        if abs(total - 1.0) <= MASS_TOLERANCE:
            # already compliant: keep entries bit-exact
            return ProbabilityDistribution(arr)
        return ProbabilityDistribution(arr / total)
    if mode == "logits":
        if not temperature > 0.0:
            raise NonPositiveTemperature(f"temperature must be > 0, got {temperature!r}")
        # overflow and inf - inf surface below as a non-finite normalizer
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = arr / temperature
            scaled = scaled - scaled.max()
            ex = np.exp(scaled)
        normalizer = float(ex.sum())
        if not math.isfinite(normalizer):
            raise NonFiniteValue(
                f"softmax normalizer is {normalizer!r}; logits / temperature "
                "must be finite and not all -inf"
            )
        return ProbabilityDistribution(ex / normalizer)
    raise ValueError(f"unknown mode {mode!r}; expected 'probs' or 'logits'")


def uniform_distribution(n: int) -> ProbabilityDistribution:
    if n < 1:
        raise EmptyInput("n must be >= 1")
    return ProbabilityDistribution(np.full(n, 1.0 / n))


def _entropy_of(values: np.ndarray) -> float:
    pos = values[values > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-np.dot(pos, np.log(pos)))


def entropy(dist: Union[ProbabilityDistribution, SubsetDistribution]) -> float:
    """Shannon entropy -sum p ln p in nats; lies in [0, ln n]."""
    if isinstance(dist, SubsetDistribution):
        return _entropy_of(dist.q)
    return _entropy_of(dist.probs)


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

