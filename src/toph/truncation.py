"""Truncation samplers: the entropy-budgeted greedy rule and four baselines.

Every method works on a common footing: tokens are ordered by descending
probability (ties broken by ascending index), the vocabulary is pre-cut to
the ``candidate_cap`` most probable tokens and renormalized, and the method
then picks a prefix or threshold set of that order.  Entropies reported in
the result refer to the capped, renormalized working distribution.

All five methods run through one selection pass, ``select_block``, over a
``(B, n)`` matrix of probability rows: one sort orders every row, and only
the ``c = min(candidate_cap, n)`` places the cap keeps are put in the order
a stable sort gives (ties in index order); the capped rows are gathered
into one ``(B, c)`` work matrix and renormalized together, and each
method's count rule picks every row's prefix.  ``truncate`` is a
block of one row; both run ``config.method``.  Every per-row figure equals
the one the record gets on its own, so how the caller cuts its records into
blocks (``toph.synthgen`` does it for the CLI) changes no output.

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
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    ProbabilityDistribution,
    SubsetDistribution,
    renormalize_rows,
    row_entropies,
)
from .errors import (
    AlphaOutOfRange,
    EtaOutOfRange,
    NucleusOutOfRange,
    PBaseOutOfRange,
    ZeroK,
)
from .rng import u01

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
    candidate_cap >= 1.  ``k`` and ``candidate_cap`` must be integers and
    the other four real numbers; a boolean is neither, and raises the
    field's error too.  Defaults follow the common experimental settings:
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
        for name, kind, noun, error in _FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, (bool, np.bool_)):
                raise error(f"{name} must be {noun}, got {value!r}")
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


#: (field, number type, its name, the field's error) for every numeric field.
_FIELD_TYPES = (
    ("alpha", numbers.Real, "a real number", AlphaOutOfRange),
    ("k", numbers.Integral, "an integer", ZeroK),
    ("p_nucleus", numbers.Real, "a real number", NucleusOutOfRange),
    ("p_base", numbers.Real, "a real number", PBaseOutOfRange),
    ("eta", numbers.Real, "a real number", EtaOutOfRange),
    ("candidate_cap", numbers.Integral, "an integer", ZeroK),
)


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
    """The selections of one block of records, row ``r`` for record ``r``.

    Row ``r`` selects the first ``counts[r]`` tokens of ``order[r]``, whose
    working (capped, renormalized) probabilities are the same entries of
    ``work[r]``.  ``stop_reason`` says why the top-H scan ended (None for
    the other methods); ``dropped_mass`` (the input mass of the tokens the
    candidate cap cut), ``h_p_full`` (the entropy of the uncapped input row,
    which is ``h_p`` when the cap covers the vocabulary) and ``trace`` are
    filled only when a trace was asked for.
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
    h_p_full: list[float] | None = None
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

    def draw(self, u: np.ndarray, start: int = 0) -> np.ndarray:
        """Inverse-CDF tokens of rows ``start`` on: entry ``[i, j]`` is row
        ``start + i``'s token for ``u[i, j]``."""
        rows = slice(start, start + len(u))
        counts = self.counts[rows]
        q = self.work[rows, : max(counts)] / np.asarray(self.gamma[rows])[:, None]
        return _inverse_cdf(q, self.order[rows], counts, u)


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
    return _gather(tokens, pos)


def _gather(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``rows[r, columns[r, j]]`` at ``[r, j]``: one flat ``take``, row ``r``'s offset added."""
    if len(rows) > 1:  # a large vocabulary comes a row at a time: no new index array
        columns = columns + rows.shape[1] * np.arange(len(rows))[:, None]
    return rows.ravel().take(columns)


def _descending_order(probs: np.ndarray, c: int) -> np.ndarray:
    """The first ``c`` of each row's token indices by descending probability,
    ties in ascending index order, for a ``(B, n)`` matrix and ``1 <= c <= n``.

    The contract: the result is exactly ``(-probs).argsort(kind="stable")[:, :c]``,
    so everything built from it is bit for bit what the stable sort gives.
    Equal values form one run (``0.0`` equals ``-0.0``).  numpy's default
    sort is several times faster than the stable one on large rows but
    leaves each run in some order.  Its ascending order, read from the end,
    puts the right values in the ``c`` head places; only those are gathered
    and repaired.  The tokens of the head's runs of two or more are sorted
    again by the unique key ``run start << b | index`` (``2**b >= n``; the
    keys fit int64 while ``B * c * 2**b < 2**63``): runs keep their place
    and come out in index order, whatever sort orders the keys.  A run that
    straddles the boundary (place ``c + 1`` holds the value of place ``c``)
    holds only some of its tokens in the head, so its head places take the
    smallest indices of all the row's tokens of that value.
    """
    size, n = probs.shape
    ascending = probs.argsort()
    if c < n:
        order = ascending[:, n - 1 : n - c - 1 : -1].copy()
        # the value at place c + 1, where a run that straddles the boundary goes on
        after = _gather(probs, ascending[:, n - c - 1 : n - c])[:, 0]
    else:
        order, after = ascending[:, ::-1].copy(), None
    del ascending
    values = _gather(probs, order)
    flat_values = values.reshape(-1)
    # starts[i]: a run starts at place i (every row starts one); the last closes the final run
    starts = np.empty(flat_values.size + 1, dtype=bool)
    starts[0] = True
    np.not_equal(flat_values[1:], flat_values[:-1], out=starts[1:-1])
    starts[c::c] = True
    if not starts.all():
        # the places in runs of two or more, and where in them each run starts
        tied = np.flatnonzero(~(starts[:-1] & starts[1:]))
        heads = np.flatnonzero(starts[tied])
        bits = (n - 1).bit_length()
        keys = np.repeat(tied[heads], np.diff(heads, append=tied.size)) << bits
        flat = order.reshape(-1)  # a view: writes land in order
        keys |= flat[tied]
        keys.sort()
        keys &= (1 << bits) - 1
        flat[tied] = keys
    if after is not None:
        edge = values[:, -1]
        for r in np.flatnonzero(edge == after).tolist():
            run = np.count_nonzero(values[r] == edge[r])
            order[r, c - run:] = np.flatnonzero(probs[r] == edge[r])[:run]
    return order


#: How many leading work entries ``select_block`` converts for every top-H
#: row at once; a row that keeps them all goes on from the rest of its row.
_HEAD = 16


def _top_h_scan(row: list[float], threshold: float, order: np.ndarray | None,
                start=(0, 0.0, STOP_CAP_EXHAUSTED, (), 0.0, 0.0)):
    """The greedy scan over (a stretch of) one working row: (count, h_q, stop
    reason, steps, gamma, sum p ln p).

    ``row`` is a list of the row's working probabilities from entry
    ``start[0]`` on, and ``start`` the result of the scan of the entries
    before them; a scan that uses them all reports ``STOP_CAP_EXHAUSTED``,
    and the caller decides whether the row has more.  ``order`` is the
    row's token indices, given only when the steps are traced.
    """
    count, h_q, stop, steps, gamma, h = start
    steps = list(steps)
    for p_j in row:
        if p_j <= 0.0:
            stop = STOP_ZERO_TAIL
            break
        g = gamma + p_j
        s = h + p_j * math.log(p_j)
        # one token has entropy 0 (the running form can leave an ulp of it)
        # and is always kept: a near-one-hot row may hold an entry above 1,
        # whose h_p, and so its budget, is an ulp below 0
        entropy = math.log(g) - s / g if count else 0.0
        if count and entropy > threshold:
            stop = STOP_BUDGET
            break
        gamma, h, h_q = g, s, entropy
        count += 1
        if order is not None:
            steps.append(TraceStep(index=int(order[count - 1]), gamma=gamma, entropy=entropy))
    return count, h_q, stop, tuple(steps), gamma, h


def select_block(
    probs: np.ndarray,
    config: TruncationConfig,
    collect_trace: bool = False,
) -> SelectionBlock:
    """One selection pass over a ``(B, n)`` matrix whose rows are probability vectors.

    The rows are taken as validated (``distributions.validate_block``); row
    ``r`` of the result is record ``r``'s selection under ``config.method``.
    Only the ``c`` capped places of each row are ordered; the traced
    ``dropped_mass`` sums the rest of the row's values, sorted.  ``h_p`` is
    ``distributions.row_entropies`` of the work matrix, and the traced
    ``h_p_full`` that of ``probs``.  Top-H scans each row's first
    ``_HEAD`` work entries, converted for the whole block at once, and goes
    on over the rest of a row only when it kept that whole head and the row
    has more.  The rows are then grouped by their count k: one sum over
    the first k columns gives each group's ``gamma``, and the baselines'
    ``h_q`` is ``row_entropies`` of each group's kept entries over its
    ``gamma``.  A row sum is pairwise over the row, as a one-row sum is, so
    every figure has the bits of the row on its own.
    """
    size, n = probs.shape
    c = min(config.candidate_cap, n)
    order = _descending_order(probs, c)
    work = _gather(probs, order)
    # a row the cap cut mass from is divided by its mass; the others (the cap
    # cut nothing, or only exact zeros) keep their entries bit-exact
    renormalize_rows(work, np.add.reduce(work, axis=1))
    dropped = h_p_full = None
    if collect_trace:
        dropped = [0.0] * size
        if c < n:
            # the row's values, largest first, hold the stable order's place for
            # place but for the sign of a zero, which changes no sum: so the sum
            # over places c on, a contiguous row, has the stable order's bits
            values = np.negative(probs)
            values.sort(axis=1)
            np.negative(values, out=values)  # negation is exact
            dropped = np.add.reduce(values[:, c:], axis=1).tolist()
            del values

    h_p = row_entropies(work)
    if collect_trace:
        h_p_full = h_p if c == n else row_entropies(probs)
    threshold: list[float | None] = [None] * size
    stop: list[str | None] = [None] * size
    h_q: list[float] | None = None
    traces = None
    if config.method == Method.TOP_H:
        threshold = [config.alpha * h for h in h_p]
        scans = []
        for r, head in enumerate(work[:, :_HEAD].tolist()):
            tokens = order[r] if collect_trace else None
            scan = _top_h_scan(head, threshold[r], tokens)
            if c > _HEAD and scan[2] == STOP_CAP_EXHAUSTED:
                # the scan kept the whole head and the row goes on
                scan = _top_h_scan(work[r, _HEAD:].tolist(), threshold[r], tokens, scan)
            scans.append(scan)
        counts = [s[0] for s in scans]
        h_q = [s[1] for s in scans]
        stop = [s[2] for s in scans]
        if collect_trace:
            traces = [s[3] for s in scans]
    elif config.method == Method.TOP_K:
        counts = [min(config.k, c)] * size
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

    groups: dict[int, list[int]] = {}
    for r, count in enumerate(counts):
        groups.setdefault(count, []).append(r)
    gamma = [0.0] * size
    baseline = h_q is None
    if baseline:
        h_q = [0.0] * size
    for count, members in groups.items():
        # one group (a block of one row, or top-k) sums a view, not a copy
        kept = work[:, :count] if len(members) == size else work[members, :count]
        sums = np.add.reduce(kept, axis=1)
        for r, g in zip(members, sums.tolist()):
            gamma[r] = g
        if baseline:
            for r, h in zip(members, row_entropies(kept / sums[:, None])):
                h_q[r] = h
    return SelectionBlock(
        n=n, order=order, work=work, counts=counts, gamma=gamma, h_p=h_p, h_q=h_q,
        threshold=threshold, stop_reason=stop, dropped_mass=dropped, h_p_full=h_p_full,
        trace=traces,
    )


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
    return select_block(p.probs[None, :], config, collect_trace).result(0)


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
