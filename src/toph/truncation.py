"""Truncation samplers: the entropy-budgeted greedy rule and four baselines.

Every method works on a common footing: tokens are ordered by descending
probability (ties broken by ascending index), the vocabulary is pre-cut to
the ``candidate_cap`` most probable tokens and renormalized, and the method
then picks a prefix or threshold set of that order.  Entropies reported in
the result refer to the capped, renormalized working distribution.

All five methods run through one selection pass over a chunk of records
with equal vocabulary size ``n``: one stable sort orders every row, the
capped rows are gathered into one ``(B, c)`` work matrix and renormalized
together, and each method's count rule picks every row's prefix.  A chunk
holds at most ``max(1, CHUNK_ELEMENTS // n)`` records, so large
vocabularies go one record at a time.  ``select_chunks`` cuts a list of
distributions into such chunks and ``truncate`` is a chunk of one; both
run ``config.method``.  Every per-row figure equals the one the record
gets on its own.

``TruncationConfig`` validates every parameter range when it is built,
whatever the method, so the selection pass takes its parameters as given.

Conventions that pin down exact outputs:

- the greedy rule stops at the first token whose inclusion pushes the
  subset entropy strictly above ``alpha * H(p)``; equality keeps the
  token (``truncate`` says how an exact tie rounds), and the over-budget
  token is never added;
- the reported mass ``gamma`` is ``np.sum`` over the selected prefix of the
  working distribution, not the scan's running sum;
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
from typing import Iterator, Sequence

import numpy as np

from .distributions import (
    MASS_TOLERANCE,
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

#: Element budget of one selection chunk: a chunk of records with ``n``
#: tokens each holds at most ``max(1, CHUNK_ELEMENTS // n)`` of them, so
#: the chunk's arrays stay small and a large vocabulary is never stacked.
CHUNK_ELEMENTS = 2**14

#: Why the top-H scan ended: the next token would have pushed the entropy
#: over the budget, the next token has probability 0, or no candidate was left.
STOP_BUDGET = "budget"
STOP_ZERO_TAIL = "zero_tail"
STOP_CAP_EXHAUSTED = "cap_exhausted"


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


@dataclass(frozen=True)
class SelectionBlock:
    """The selections of one chunk of records, row ``r`` for record ``r``.

    Row ``r`` selects the first ``counts[r]`` tokens of ``order[r]``, whose
    working (capped, renormalized) probabilities are the same entries of
    ``work[r]``.  ``stop_reason`` says why the top-H scan ended (None for
    the other methods); ``dropped_mass`` (the input mass of the tokens the
    candidate cap cut) and ``trace`` are filled only when a trace was asked
    for.
    """

    n: int
    order: np.ndarray
    work: np.ndarray
    counts: list[int]
    gamma: list[float]
    h_p: list[float]
    h_q: list[float]
    threshold: list[float | None]
    stop_reason: list[str | None]
    dropped_mass: list[float] | None = None
    trace: list[tuple[TraceStep, ...]] | None = None

    def __len__(self) -> int:
        return len(self.counts)

    def selected(self, r: int) -> list[int]:
        """Row ``r``'s selected token indices, in descending-probability order."""
        return self.order[r, : self.counts[r]].tolist()

    def result(self, r: int) -> TruncationResult:
        """Row ``r`` as the result of a scalar call."""
        count, gamma = self.counts[r], self.gamma[r]
        subset = SubsetDistribution(
            parent_n=self.n,
            parent_indices=tuple(self.selected(r)),
            q=self.work[r, :count] / gamma,
            gamma=gamma,
        )
        return TruncationResult(
            selected=subset.parent_indices,
            subset=subset,
            h_p=self.h_p[r],
            h_q=self.h_q[r],
            threshold=self.threshold[r],
            trace=None if self.trace is None else self.trace[r],
        )

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF tokens: entry ``[r, j]`` is row ``r``'s token for ``u[r, j]``."""
        q = self.work[:, : max(self.counts)] / np.asarray(self.gamma)[:, None]
        return _inverse_cdf(q, self.order, self.counts, u)


def _inverse_cdf(q: np.ndarray, tokens: np.ndarray, counts: Sequence[int],
                 u: np.ndarray) -> np.ndarray:
    """Entry ``[r, j]`` is the token of row ``r`` that the uniform ``u[r, j]`` picks.

    Row ``r`` draws from the first ``counts[r]`` entries of ``q[r]`` and
    ``tokens[r]``, with cumulative sums that run in sequence along the row.
    """
    cum = np.cumsum(q, axis=1)
    pos = np.empty(u.shape, dtype=np.intp)
    for r, count in enumerate(counts):
        pos[r] = cum[r, :count].searchsorted(u[r], side="right")
    np.minimum(pos, np.asarray(counts)[:, None] - 1, out=pos)
    return np.take_along_axis(tokens, pos, axis=1)


def _descending_order(probs: np.ndarray) -> np.ndarray:
    # probability descending along the last axis; the stable sort keeps
    # ties in index order
    return (-probs).argsort(kind="stable")


def _top_h_scan(row: np.ndarray, threshold: float, order: np.ndarray | None):
    """The greedy scan over one working row: (count, h_q, stop reason, steps).

    ``order`` is the row's token indices, given only when the steps are
    traced.
    """
    gamma = h = h_q = 0.0
    count = 0
    steps = []
    stop = STOP_CAP_EXHAUSTED
    for p_j in row.tolist():
        if p_j <= 0.0:
            stop = STOP_ZERO_TAIL
            break
        g = gamma + p_j
        s = h + p_j * math.log(p_j)
        entropy = math.log(g) - s / g
        if entropy > threshold and count > 0:
            stop = STOP_BUDGET
            break
        gamma, h, h_q = g, s, entropy
        count += 1
        if order is not None:
            steps.append(TraceStep(index=int(order[count - 1]), gamma=gamma, entropy=entropy))
    return count, h_q, stop, tuple(steps)


def _select(
    dists: Sequence[ProbabilityDistribution],
    config: TruncationConfig,
    collect_trace: bool = False,
) -> SelectionBlock:
    """One selection pass over a chunk of distributions with equal ``n``."""
    n = dists[0].n
    probs = dists[0].probs[None, :] if len(dists) == 1 else np.stack([d.probs for d in dists])
    full = _descending_order(probs)
    c = min(config.candidate_cap, n)
    # a copy, so the full ordering is released with this function
    order = full if c == n else full[:, :c].copy()
    rows = range(len(dists))
    work = probs[np.arange(len(dists))[:, None], order]
    total = work.sum(axis=1)
    cut = [abs(t - 1.0) > MASS_TOLERANCE for t in total.tolist()]
    if any(cut):
        # rows whose cap bit; the others (the cap cut nothing, or only exact
        # zeros) keep their entries bit-exact
        work[cut] /= total[cut, None]
    dropped = None
    if collect_trace:
        dropped = [0.0] * len(dists) if c == n else \
            np.take_along_axis(probs, full[:, c:], axis=1).sum(axis=1).tolist()
    del full

    h_p = [_entropy_of(work[r]) for r in rows]
    threshold: list[float | None] = [None] * len(dists)
    stop: list[str | None] = [None] * len(dists)
    h_q: list[float] | None = None
    traces = None
    if config.method == Method.TOP_H:
        threshold = [config.alpha * h for h in h_p]
        scans = [
            _top_h_scan(work[r], threshold[r], order[r] if collect_trace else None)
            for r in rows
        ]
        counts = [s[0] for s in scans]
        h_q = [s[1] for s in scans]
        stop = [s[2] for s in scans]
        if collect_trace:
            traces = [s[3] for s in scans]
    elif config.method == Method.TOP_K:
        counts = [min(config.k, c)] * len(dists)
    elif config.method == Method.TOP_P:
        # searchsorted(cum, target, "left") + 1 on each non-decreasing row
        reached = (np.cumsum(work, axis=1) < config.p_nucleus).sum(axis=1)
        counts = [min(r + 1, c) for r in reached.tolist()]
    else:
        if config.method == Method.MIN_P:
            cutoff = config.p_base * work[:, :1]
        else:
            root = math.sqrt(config.eta)
            cutoff = np.array([[min(config.eta, root * math.exp(-h))] for h in h_p])
        # the top token always survives
        counts = [max(1, kept) for kept in (work >= cutoff).sum(axis=1).tolist()]

    gamma = [float(np.add.reduce(work[r, : counts[r]])) for r in rows]
    if h_q is None:
        h_q = [_entropy_of(work[r, : counts[r]] / gamma[r]) for r in rows]
    return SelectionBlock(
        n=n, order=order, work=work, counts=counts, gamma=gamma, h_p=h_p, h_q=h_q,
        threshold=threshold, stop_reason=stop, dropped_mass=dropped, trace=traces,
    )


def select_chunks(
    dists: Sequence[ProbabilityDistribution],
    config: TruncationConfig,
    collect_trace: bool = False,
) -> Iterator[SelectionBlock]:
    """Selections of ``dists`` under ``config.method``, one block per chunk, in order.

    A chunk is a run of consecutive equal-``n`` distributions within the
    element budget.
    """
    start = 0
    while start < len(dists):
        n = dists[start].n
        limit = min(len(dists), start + max(1, CHUNK_ELEMENTS // n))
        stop = start + 1
        while stop < limit and dists[stop].n == n:
            stop += 1
        yield _select(dists[start:stop], config, collect_trace)
        start = stop


def truncate(
    p: ProbabilityDistribution,
    config: TruncationConfig,
    collect_trace: bool = False,
) -> TruncationResult:
    """Run ``config.method`` on one distribution; ``collect_trace`` traces top-H steps.

    Top-H keeps at least one token (a singleton has entropy 0), and a
    zero-probability token ends its scan.  "Equality keeps the token"
    holds for the entropy as the top-H scan computes it, ``ln G - h/G``
    with running mass ``G`` and ``h = sum p ln p``.  A prefix whose exact
    entropy equals the budget can come out one ulp either side of it, and
    ``-sum q ln q`` may round the other way from the running form
    (uniform(65) at candidate cap 64 and alpha 1/3 keeps 4 tokens here;
    the direct form would keep 3).
    """
    return _select([p], config, collect_trace).result(0)


def draw_tokens(result: TruncationResult, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF tokens of the truncated distribution, one per uniform in ``u``.

    ``SelectionBlock.draw`` on a block of one.
    """
    q = result.subset.q
    tokens = np.asarray(result.subset.parent_indices)
    return _inverse_cdf(q[None, :], tokens[None, :], [q.shape[0]], np.asarray(u)[None, :])[0]


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
