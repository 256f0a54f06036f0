"""Truncation samplers: the entropy-budgeted greedy rule and four baselines.

Every method works on a common footing: tokens are ordered by descending
probability (ties broken by ascending index), the vocabulary is pre-cut to
the ``candidate_cap`` most probable tokens and renormalized, and the method
then picks a prefix or threshold set of that order.  Entropies reported in
the result refer to the capped, renormalized working distribution.

``TruncationConfig`` validates every parameter range when it is built,
whatever the method, so the method functions take their parameters as
given.

Conventions that pin down exact outputs:

- the greedy rule stops at the first token whose inclusion pushes the
  subset entropy strictly above ``alpha * H(p)``; equality keeps the
  token, and the over-budget token is rolled back by subtraction.
  Equality is decided on the running entropy ``ln G - h/G`` in float64;
  the direct ``-sum q ln q`` of the same prefix can round one ulp the
  other way (uniform(65), candidate cap 64, alpha 1/3: the 4-token prefix,
  entropy ln 4, is kept here and is one ulp over budget the direct way);
- cumulative-mass truncation treats "exceeds" inclusively (first prefix
  with mass >= the target);
- sampling is an inverse CDF over the subset in its stored order: a
  uniform picks the first token whose in-order cumulative sum is strictly
  above it, and the last token when none is;
- scaled-max truncation keeps tokens with p >= p_base * max(p);
- the entropy-scaled rule keeps tokens with p >= min(eta, sqrt(eta) *
  exp(-H(p))), following the eta-sampling rule from the literature, and
  always keeps the top token.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    MASS_TOLERANCE,
    EntropyAccumulator,
    ProbabilityDistribution,
    SubsetDistribution,
    _entropy_of,
)
from .errors import (
    AlphaOutOfRange,
    EtaOutOfRange,
    NucleusOutOfRange,
    PBaseOutOfRange,
    ZeroK,
)
from .rng import u01


class Method(str, enum.Enum):
    TOP_H = "top_h"
    TOP_K = "top_k"
    TOP_P = "top_p"
    MIN_P = "min_p"
    ETA = "eta"


@dataclass(frozen=True)
class TruncationConfig:
    """Parameters for all methods; only the chosen method's fields are read.

    Every field is validated at construction, whatever the method, and an
    out-of-range value raises its typed error: alpha in (0, 1), k >= 1,
    p_nucleus in (0, 1], p_base in (0, 1), eta in (0, 1) and
    candidate_cap >= 1.  Defaults follow the common experimental settings:
    alpha 0.4, k 20, nucleus mass 0.9, base threshold 0.1, eta 2e-4,
    candidate cap 100.
    """

    method: Method = Method.TOP_H
    alpha: float = 0.4
    k: int = 20
    p_nucleus: float = 0.9
    p_base: float = 0.1
    eta: float = 0.0002
    candidate_cap: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise AlphaOutOfRange(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.k < 1:
            raise ZeroK(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.p_nucleus <= 1.0:
            raise NucleusOutOfRange(f"p_nucleus must be in (0, 1], got {self.p_nucleus!r}")
        if not 0.0 < self.p_base < 1.0:
            raise PBaseOutOfRange(f"p_base must be in (0, 1), got {self.p_base!r}")
        if not 0.0 < self.eta < 1.0:
            raise EtaOutOfRange(f"eta must be in (0, 1), got {self.eta!r}")
        if self.candidate_cap < 1:
            raise ZeroK(f"candidate_cap must be >= 1, got {self.candidate_cap}")


@dataclass(frozen=True)
class TraceStep:
    """One greedy step: the token just kept, and the running mass/entropy."""

    index: int
    gamma: float
    entropy: float


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of a truncation call.

    ``selected`` lists original token indices in descending-probability
    order (ascending index among ties); ``threshold`` is alpha * H(p) for
    the entropy-budgeted method and None otherwise.
    """

    selected: tuple[int, ...]
    subset: SubsetDistribution
    h_p: float
    h_q: float
    threshold: float | None = None
    trace: tuple[TraceStep, ...] | None = None


def _descending_order(probs: np.ndarray) -> np.ndarray:
    # primary key: probability descending; secondary: index ascending
    return np.lexsort((np.arange(probs.shape[0]), -probs))


def _capped_view(
    p: ProbabilityDistribution, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Descending-order original indices and capped renormalized probabilities."""
    order = _descending_order(p.probs)[: min(cap, p.n)]
    kept = p.probs[order]
    total = float(np.sum(kept))
    if abs(total - 1.0) <= MASS_TOLERANCE:
        # cap did not bite (or only cut exact zeros): keep entries bit-exact
        return order, kept
    return order, kept / total


def _result_from_prefix(
    order: np.ndarray,
    work: np.ndarray,
    count: int,
    parent_n: int,
    h_p: float,
    h_q: float | None = None,
    threshold: float | None = None,
    trace: tuple[TraceStep, ...] | None = None,
) -> TruncationResult:
    sel = order[:count]
    chunk = work[:count]
    gamma = float(np.sum(chunk))
    subset = SubsetDistribution(
        parent_n=parent_n,
        parent_indices=tuple(int(i) for i in sel),
        q=chunk / gamma,
        gamma=gamma,
    )
    if h_q is None:
        h_q = _entropy_of(subset.q)
    return TruncationResult(
        selected=subset.parent_indices,
        subset=subset,
        h_p=h_p,
        h_q=h_q,
        threshold=threshold,
        trace=trace,
    )


def top_h_truncate(
    p: ProbabilityDistribution,
    config: TruncationConfig,
    collect_trace: bool = False,
) -> TruncationResult:
    """Greedy prefix selection under the entropy budget alpha * H(p).

    Tokens are appended in descending-probability order; after each append
    the subset entropy is recomputed and the first token that pushes it
    strictly over the budget is removed, ending the scan.  At least one
    token is always selected (a singleton has entropy 0).  The budget is
    recomputed from the working distribution on every call.

    "Equality keeps the token" holds for the entropy as this scan computes
    it, ``ln G - h/G`` with running mass ``G`` and ``h = sum p ln p``.  A
    prefix whose exact entropy equals the budget can come out one ulp
    either side of it, and ``-sum q ln q`` may round the other way from
    the running form (uniform(65) at candidate cap 64 and alpha 1/3 keeps
    4 tokens here; the direct form would keep 3).
    """
    order, work = _capped_view(p, config.candidate_cap)
    h_p = _entropy_of(work)
    threshold = config.alpha * h_p

    acc = EntropyAccumulator()
    count = 0
    h_q = 0.0
    steps: list[TraceStep] = []
    for pos in range(work.shape[0]):
        p_j = float(work[pos])
        if p_j <= 0.0:
            break
        acc.push(p_j)
        h = acc.entropy()
        if h > threshold and count > 0:
            acc.pop(p_j)
            break
        count += 1
        h_q = h
        if collect_trace:
            steps.append(TraceStep(index=int(order[pos]), gamma=acc.gamma, entropy=h))
    return _result_from_prefix(
        order,
        work,
        count,
        p.n,
        h_p,
        h_q=h_q,
        threshold=threshold,
        trace=tuple(steps) if collect_trace else None,
    )


def top_k_truncate(p: ProbabilityDistribution, config: TruncationConfig) -> TruncationResult:
    """Keep the k most probable tokens (all of them when k >= n)."""
    order, work = _capped_view(p, config.candidate_cap)
    count = min(config.k, work.shape[0])
    return _result_from_prefix(order, work, count, p.n, _entropy_of(work))


def top_p_truncate(p: ProbabilityDistribution, config: TruncationConfig) -> TruncationResult:
    """Shortest descending-order prefix whose cumulative mass reaches p_nucleus."""
    order, work = _capped_view(p, config.candidate_cap)
    cum = np.cumsum(work)
    count = int(np.searchsorted(cum, config.p_nucleus, side="left")) + 1
    count = min(count, work.shape[0])
    return _result_from_prefix(order, work, count, p.n, _entropy_of(work))


def min_p_truncate(p: ProbabilityDistribution, config: TruncationConfig) -> TruncationResult:
    """Keep tokens with p >= p_base * max(p); the top token always survives."""
    order, work = _capped_view(p, config.candidate_cap)
    cutoff = config.p_base * float(work[0])
    count = max(1, int(np.count_nonzero(work >= cutoff)))
    return _result_from_prefix(order, work, count, p.n, _entropy_of(work))


def eta_truncate(p: ProbabilityDistribution, config: TruncationConfig) -> TruncationResult:
    """Entropy-scaled cutoff: keep p >= min(eta, sqrt(eta) * exp(-H(p)))."""
    order, work = _capped_view(p, config.candidate_cap)
    h_p = _entropy_of(work)
    epsilon = min(config.eta, math.sqrt(config.eta) * math.exp(-h_p))
    count = max(1, int(np.count_nonzero(work >= epsilon)))
    return _result_from_prefix(order, work, count, p.n, h_p)


_DISPATCH = {
    Method.TOP_K: top_k_truncate,
    Method.TOP_P: top_p_truncate,
    Method.MIN_P: min_p_truncate,
    Method.ETA: eta_truncate,
}


def truncate(
    p: ProbabilityDistribution,
    config: TruncationConfig,
    collect_trace: bool = False,
) -> TruncationResult:
    """Dispatch to the configured truncation method."""
    if config.method == Method.TOP_H:
        return top_h_truncate(p, config, collect_trace=collect_trace)
    return _DISPATCH[config.method](p, config)


def draw_tokens(result: TruncationResult, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF tokens of the truncated distribution, one per uniform in ``u``.

    The cumulative sums run over the subset in its stored
    (descending-probability) order, adding in sequence; a uniform picks the
    first token whose cumulative sum is strictly above it, so a uniform
    exactly on a boundary picks the next token, and one at or above the
    last sum (which can be 1 - ulp) picks the last token.
    """
    cum = np.cumsum(result.subset.q)
    pos = np.searchsorted(cum, u, side="right")
    np.minimum(pos, cum.shape[0] - 1, out=pos)
    return np.asarray(result.subset.parent_indices)[pos]


def sample_token(result: TruncationResult, seed: int, draw_index: int = 0) -> int:
    """Draw one token from the truncated distribution, reproducibly.

    ``draw_tokens`` on a batch of one, driven by the documented
    counter-based generator: the uniform variate for a draw is
    ``u01(seed, stream=0, counter=draw_index)``.  Identical (seed,
    draw_index, result) triples give identical tokens on every platform,
    and the token equals entry ``draw_index`` of the batched draw
    ``draw_tokens(result, u01(seed, 0, np.arange(n)))`` for any larger n.
    """
    return int(draw_tokens(result, u01(seed, 0, draw_index))[0])
