"""Exact solutions of the entropy-constrained mass-maximization problem.

For small vocabularies the optimum is found by an exhaustive search over
every non-empty subset, so the greedy selector can be scored against the
true optimum; the batch harness aggregates the per-instance mass ratio
greedy/optimal into a plot-ready report.  The searches never build a
``2**n`` table: ``key_range_subsets`` sorts a key of the low ``BLOCK_BITS``
bits of the masks once and looks up, per high mask, the lows in a key
range (``exact_ecmm`` keys them by a log-free entropy screen,
``toph.hardness`` by weight), with sums bit-identical to ``subset_sums``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .distributions import ProbabilityDistribution, _entropy_of
from .errors import AlphaOutOfRange, EmptyInput, VocabularyTooLarge
from .truncation import Method, TruncationConfig, truncate

#: Exhaustive search is refused above this vocabulary size (2**20 subsets).
ENUMERATION_LIMIT = 20

#: Ratios below 1 - RATIO_TIE_EPS count as suboptimal instances.
RATIO_TIE_EPS = 1e-12

#: The exhaustive searches split masks after this many low bits: low tables
#: of 2**BLOCK_BITS entries (128 KiB per 8-byte column) stay in cache.
BLOCK_BITS = 14

#: Slack of the ``exact_ecmm`` screens: over the budget, in nats, and
#: below the mass of the heaviest feasible prefix.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class EcmmInstance:
    """One problem instance: a distribution and a finite budget coefficient >= 0."""

    p: ProbabilityDistribution
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise AlphaOutOfRange(f"alpha must be finite and >= 0, got {self.alpha!r}")


@dataclass(frozen=True)
class EcmmSolution:
    indices: tuple[int, ...]
    gamma: float
    entropy: float


@dataclass(frozen=True)
class GapRow:
    instance_id: str
    n: int
    alpha: float
    gamma_greedy: float
    gamma_optimal: float
    ratio: float


@dataclass(frozen=True)
class GapReport:
    rows: tuple[GapRow, ...]

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray([r.ratio for r in self.rows])

    @property
    def mean(self) -> float:
        return float(self.ratios.mean())

    @property
    def variance(self) -> float:
        # population variance, matching a plain second-moment report
        return float(self.ratios.var())

    @property
    def minimum(self) -> float:
        return float(self.ratios.min())

    @property
    def count_suboptimal(self) -> int:
        return int(np.count_nonzero(self.ratios < 1.0 - RATIO_TIE_EPS))


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over every subset mask, in ``values.dtype``.

    Entry ``m`` is the sum over the set bits of ``m`` (bit i = value i),
    added in ascending bit order.  Built by doubling, so the whole table
    costs O(2**n) arithmetic and O(2**n) memory; the exhaustive searches
    use it for at most ``BLOCK_BITS`` items at a time.
    """
    n = values.shape[0]
    out = np.zeros(2**n, dtype=values.dtype)
    for i in range(n):
        out[2**i : 2 ** (i + 1)] = out[: 2**i] + values[i]
    return out


def add_high_bits(buf: np.ndarray, high_values: np.ndarray, high: int) -> np.ndarray:
    """Add ``high_values[i]`` for each set bit i of ``high`` to ``buf``, in place.

    The bits are added in ascending order, the order the doubling adds
    them, so entries of the low ``subset_sums`` table become the full-table
    entries of the masks ``high << k | low`` bit for bit.
    """
    for i in mask_indices(high):
        buf += high_values[i]
    return buf


def mask_indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` in ascending order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def key_range_subsets(low: Sequence[np.ndarray], high_values: Sequence[np.ndarray],
                      low_keys: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                      floor: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray, tuple]]:
    """The masks ``high << k | low`` with ``lower[high] <= low_keys[low] <= upper[high]``
    and, if ``floor`` is given, ``low[0][low] >= floor[high]``.

    ``low[c]`` is the ``subset_sums`` table of the first k items of column
    c (``2**k`` entries, as ``low_keys`` has), ``high_values[c]`` the rest.
    The low keys are sorted once; per high mask the lows in range are one
    run of that order (two ``searchsorted`` calls), floored before any
    gather.  Yields ``(first, lows, sums)`` per high mask with a match, in
    ascending mask order: the masks are ``first + lows`` (``lows``
    ascending) and ``sums[c][i]`` is the full-table entry of column c at
    ``first + lows[i]`` bit for bit.  Memory is O(2**k) per column.
    """
    k = low_keys.size.bit_length() - 1
    order = np.argsort(low_keys)  # unstable: each run is sorted below
    keys = low_keys[order]
    starts = keys.searchsorted(lower, "left")
    ends = keys.searchsorted(upper, "right")
    heads = None if floor is None else low[0][order]
    for high in np.flatnonzero(ends > starts).tolist():
        run = slice(starts[high], ends[high])
        lows = np.sort(order[run] if heads is None else order[run][heads[run] >= floor[high]])
        if lows.size:
            yield high << k, lows, tuple(add_high_bits(t[lows], v, high)
                                         for t, v in zip(low, high_values))


def exact_ecmm(instance: EcmmInstance) -> EcmmSolution:
    """Maximize the subset mass subject to H(subset) <= alpha * H(p).

    Every non-empty subset is a candidate; ties on mass are broken by
    smaller cardinality, then by the lexicographically smallest index set.
    ``key_range_subsets`` finds the subsets that pass the log-free
    ``_screen_keys`` test, taken at the mass of the heaviest feasible prefix
    of the descending order (the optimum is at least that heavy, and the
    screen is tightest near it), and weigh no less than that prefix.  Of
    those, the scan computes the entropy only of subsets at least as heavy
    as the best feasible one so far, and keeps every feasible one tied
    with it.
    """
    n = instance.p.n
    if n > ENUMERATION_LIMIT:
        raise VocabularyTooLarge(f"n={n} exceeds the enumeration limit of {ENUMERATION_LIMIT}")
    probs = instance.p.probs
    budget = instance.alpha * _entropy_of(probs)
    plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    k = min(n, BLOCK_BITS)
    low = (subset_sums(probs[:k]), subset_sums(plp[:k]))
    high = (subset_sums(probs[k:]), subset_sums(plp[k:]))
    prefix = _feasible_prefix_mass(probs, plp, budget)
    low_key, high_key = _screen_keys(low, high, budget, max(prefix, float(probs.max())))
    best_mass = 0.0
    tied: list[tuple[np.ndarray, np.ndarray]] = []  # per high mask: masks, entropies at best_mass
    for first, lows, (mass,) in key_range_subsets(
            low[:1], (probs[k:],), low_key, np.full_like(high_key, -np.inf), high_key,
            (prefix - _SCREEN_MARGIN) - high[0]):
        # the empty set (mass 0) is not a valid sampler output
        pos = np.flatnonzero((mass >= best_mass) & (mass > 0.0))
        gamma = mass[pos]
        ent = np.log(gamma) - add_high_bits(low[1][lows[pos]], plp[k:], first >> k) / gamma
        feasible = ent <= budget
        if not feasible.any():
            continue
        top = gamma[feasible].max()
        if top > best_mass:
            best_mass, tied = top, []
        at = feasible & (gamma == best_mass)
        tied.append((first + lows[pos[at]], ent[at]))
    if not tied:
        # cannot happen for a valid distribution: the top singleton has H=0
        raise AssertionError("no feasible subset; distribution invalid")
    masks, ents = (np.concatenate(column) for column in zip(*tied))
    best = 0 if masks.size == 1 else _first_in_index_order(masks, n)
    return EcmmSolution(indices=mask_indices(int(masks[best])), gamma=float(best_mass),
                        entropy=float(ents[best]))


def _feasible_prefix_mass(probs: np.ndarray, plp: np.ndarray, budget: float) -> float:
    """Mass of the heaviest prefix of the descending order whose entropy is
    within ``budget - _SCREEN_MARGIN``, or 0 if none is.

    The scan adds the same terms in another order: masses differ by under
    2 n u and entropies by under (4 n + 4) u (1 + budget + 2 ln 20), as the
    prefix holds the top token and weighs at least 1/n.  That is far below
    the margin for budget <= ln 20 + 1, and a larger budget leaves no subset
    of n <= 20 tokens infeasible: the scan finds the prefix feasible.
    """
    order = np.argsort(-probs, kind="stable")
    mass = np.cumsum(probs[order])
    within = np.flatnonzero(np.log(mass) - np.cumsum(plp[order]) / mass
                            <= budget - _SCREEN_MARGIN)
    return float(mass[within[-1]]) if within.size else 0.0


def _screen_keys(low: tuple[np.ndarray, np.ndarray], high: tuple[np.ndarray, np.ndarray],
                 budget: float, g0: float) -> tuple[np.ndarray, np.ndarray]:
    """The log-free screen of ``exact_ecmm``: the tangent of ln at ``g0``.

    ``low`` and ``high`` are the ``(mass, hsum)`` ``subset_sums`` tables of
    p and p ln p over the first k items and over the rest.  For any g0 in
    [max p, 1], the subset ``high << k | low`` has float entropy
    ``ln(mass) - hsum / mass <= budget`` only if ``low_key[low] <= high_key[high]``.

    Why: ln g >= 1 + ln g0 - g0/g (ln lies below its tangent at g0), so a
    subset of mass g and h = sum p ln p with entropy ln g - h/g <= budget
    has g c - h <= g0, c = 1 + ln g0 - budget - margin, margin >= 0; split
    into low and high parts, g_low c - h_low <= g0 - g_high c + h_high.
    The margin covers rounding in the entropy, in c and in the split (sums
    of n terms in another grouping); u is the unit roundoff, and
    |ln g0| <= ln 20 as g0 >= max p >= 1/n.  For g >= g0/2 the terms are at
    most g (10 + 2 budget), so the error is below (2n + 10) u g (10 + 2 budget)
    < 1e-13 g < margin * g for budget <= ln 20; no subset of n <= 20 tokens
    has entropy above ln 20, so a larger budget puts g c - h - g0 below
    -g (budget - ln 20), which outgrows the error.  For g < g0/2 the tangent
    slack g (ln g - 1 - ln g0) + g0 exceeds 0.15 g0, while the terms are at
    most g0 (20 + budget) (g |ln g| <= 1/e < 8 g0): it passes for any margin.
    """
    c = 1.0 + math.log(g0) - (budget + _SCREEN_MARGIN)
    return low[0] * c - low[1], g0 - high[0] * c + high[1]


def _first_in_index_order(masks: np.ndarray, n: int) -> int:
    """Position of the mask with the fewest set bits, then the smallest index
    set (``(0, 5)`` beats ``(1, 2)``): of equal popcounts, the one with the
    lowest differing bit set, i.e. the largest bit-reversed mask."""
    count = np.zeros_like(masks)
    reversed_ = np.zeros_like(masks)
    for i in range(n):
        bit = (masks >> i) & 1
        count += bit
        reversed_ |= bit << (n - 1 - i)
    fewest = np.flatnonzero(count == count.min())
    return int(fewest[np.argmax(reversed_[fewest])])


def optimality_gap(
    instances: Iterable[EcmmInstance],
    ids: Sequence[str] | None = None,
) -> GapReport:
    """Score the greedy selector against the exhaustive optimum per instance.

    Both sides use the same budget alpha * H(p), and the greedy side runs
    uncapped (the candidate cap covers the whole vocabulary).  No instances
    raise ``EmptyInput``: a report without rows has no mean or minimum.
    """
    rows = []
    for pos, inst in enumerate(instances):
        config = TruncationConfig(method=Method.TOP_H, alpha=inst.alpha,
                                  candidate_cap=max(100, inst.p.n))
        greedy = truncate(inst.p, config).subset.gamma
        optimal = exact_ecmm(inst).gamma
        rows.append(GapRow(instance_id=ids[pos] if ids is not None else f"i{pos:06d}",
                           n=inst.p.n, alpha=inst.alpha, gamma_greedy=greedy,
                           gamma_optimal=optimal, ratio=greedy / optimal))
    if not rows:
        raise EmptyInput("optimality_gap needs at least one instance")
    return GapReport(rows=tuple(rows))


GAP_CSV_COLUMNS = ("instance_id", "n", "alpha", "gamma_greedy", "gamma_optimal", "ratio")


def gap_report_csv(report: GapReport) -> str:
    """Render the per-instance rows as CSV text (plot-ready)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GAP_CSV_COLUMNS)
    for r in report.rows:
        writer.writerow(
            [r.instance_id, r.n, repr(r.alpha), repr(r.gamma_greedy),
             repr(r.gamma_optimal), repr(r.ratio)]
        )
    return buf.getvalue()


def summary_line(report: GapReport) -> str:
    return (
        f"mean={report.mean!r} variance={report.variance!r} "
        f"min={report.minimum!r} count_suboptimal={report.count_suboptimal}"
    )
