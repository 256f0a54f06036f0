"""Exact solutions of the entropy-constrained mass-maximization problem.

For small vocabularies the optimum is found by an exhaustive search over
every non-empty subset, so the greedy selector can be scored against the
true optimum; the batch harness aggregates the per-instance mass ratio
greedy/optimal into a plot-ready report.  The searches never build a
``2**n`` table: they meet in the middle, splitting masks after their low
``n - n // 2`` bits (at most ``BLOCK_BITS``).  ``key_range_subsets`` sorts a
key of the low bits once, finds every high mask's lows in a key range with
one pair of ``searchsorted`` calls (``exact_ecmm`` keys them by a log-free
entropy screen, ``toph.hardness`` by weight), and expands them in
vectorized chunks of masks, with sums bit-identical to ``subset_sums``.
"""

from __future__ import annotations

import csv
import functools
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

#: The exhaustive searches split masks after at most this many low bits, and
#: ``key_range_subsets`` expands at most 2**BLOCK_BITS masks at a time: low
#: tables and chunks of 128 KiB per 8-byte column stay in cache.
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


def mask_indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` in ascending order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def key_range_subsets(low: Sequence[np.ndarray], high_values: Sequence[np.ndarray],
                      low_keys: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                      floor: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, tuple]]:
    """The masks ``high << k | low`` with ``lower[high] <= low_keys[low] <= upper[high]``,
    less some with ``low[0][low] < floor[high]`` if ``floor`` is given.

    ``low[c]`` is the ``subset_sums`` table of the first k items of column
    c (``2**k`` entries, as ``low_keys`` has), ``high_values[c]`` the rest.
    The low keys are sorted once, and each high mask's lows in range are
    one run of that order (two ``searchsorted`` calls over all high masks).
    A floor trims each run to start where the heaviest low so far in key
    order (a prefix max) reaches it, so no mask that meets its floor is
    lost, and a high mask whose run is then empty is dropped unexpanded.
    Consecutive high masks are grouped into chunks whose runs total at most
    ``2**BLOCK_BITS`` pairs (a longer run is a chunk alone) and expanded
    together.  Yields ``(masks, sums)`` per chunk: ``masks`` ascending,
    within and across chunks, and ``sums[c][i]`` the full-table entry of
    column c at ``masks[i]`` bit for bit.  Memory is O(2**k + 2**BLOCK_BITS)
    per column.
    """
    k = low_keys.size.bit_length() - 1
    order = np.argsort(low_keys).astype(np.int32)  # unstable: each chunk is sorted below
    keys = low_keys[order]
    starts = keys.searchsorted(lower, "left")
    ends = keys.searchsorted(upper, "right")
    if floor is not None:
        np.maximum(starts, np.maximum.accumulate(low[0][order]).searchsorted(floor), out=starts)
    highs = np.flatnonzero(ends > starts)
    counts = ends[highs] - starts[highs]
    firsts = (highs << k).astype(np.int32)  # masks stay below 2**31
    bounds = np.cumsum(counts)
    # pair i of the chunks' concatenation reads order[i + shift] of its run
    shift = starts[highs] - (bounds - counts)
    a = 0
    while a < highs.size:
        base = int(bounds[a - 1]) if a else 0
        b = max(int(bounds.searchsorted(base + 2**BLOCK_BITS, "right")), a + 1)
        at = np.arange(base, int(bounds[b - 1])) + np.repeat(shift[a:b], counts[a:b])
        # int32 sorts twice as fast, and int64 indexes faster
        masks = np.sort(order[at] + np.repeat(firsts[a:b], counts[a:b])).astype(np.int64)
        yield masks, _chunk_sums(masks & (2**k - 1), highs[a:b], counts[a:b], low, high_values)
        a = b


def _chunk_sums(lows: np.ndarray, highs: np.ndarray, counts: np.ndarray,
                low: Sequence[np.ndarray], high_values: Sequence[np.ndarray]) -> tuple:
    """The full-table entries of each column at a chunk's masks, bit for bit.

    The chunk holds ``counts[j]`` masks of high mask ``highs[j]`` in turn,
    with low bits ``lows``.  The high bits are added to the gathered
    ``low[c]`` entries in ascending bit order, the order the doubling adds
    them: as masked adds, or plain ones for a bit every high mask has set.
    """
    bits = (highs >> np.arange(len(high_values[0]))[:, None] & 1).astype(bool)
    sums = tuple(table[lows] for table in low)
    every = bits.all(axis=1)
    for i in np.flatnonzero(bits.any(axis=1)).tolist():
        where = True if every[i] else np.repeat(bits[i], counts)
        for acc, values in zip(sums, high_values):
            np.add(acc, values[i], out=acc, where=where)
    return sums


def exact_ecmm(instance: EcmmInstance) -> EcmmSolution:
    """Maximize the subset mass subject to H(subset) <= alpha * H(p).

    Every non-empty subset is a candidate.  A single token has entropy
    exactly 0, whatever its float form rounds to (the top-H scan likewise
    always keeps its first token), so one is feasible even at alpha 0.  Ties
    on mass are broken by smaller cardinality, then by the lexicographically
    smallest index set.
    ``key_range_subsets`` finds the subsets that pass the log-free
    ``_screen_keys`` test, taken at the mass of the heaviest feasible prefix
    of the descending order (the optimum is at least that heavy, and the
    screen is tightest near it), less runs of low masks too light to weigh
    as much as that prefix.  The scan computes the entropy of each chunk's
    subsets at once and keeps one incumbent: each chunk's feasible subsets
    tied at its top mass are cut to the first in index order, by
    ``_index_order_keys``, which then meets the incumbent.
    """
    n = instance.p.n
    if n > ENUMERATION_LIMIT:
        raise VocabularyTooLarge(f"n={n} exceeds the enumeration limit of {ENUMERATION_LIMIT}")
    probs = instance.p.probs
    budget = instance.alpha * _entropy_of(probs)
    plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    k = min(n - n // 2, BLOCK_BITS)
    low = (subset_sums(probs[:k]), subset_sums(plp[:k]))
    high = (subset_sums(probs[k:]), subset_sums(plp[k:]))
    prefix = _feasible_prefix_mass(probs, plp, budget)
    low_key, high_key = _screen_keys(low, high, budget, max(prefix, float(probs.max())))
    # the incumbent, the first in index order of the subsets tied at
    # best_mass, starts as the top token, feasible at any budget
    best_mask = 1 << int(np.argmax(probs))
    best_mass, best_ent = float(probs.max()), 0.0
    chunks = key_range_subsets(low, (probs[k:], plp[k:]), low_key,
                               np.full_like(high_key, -np.inf), high_key,
                               (prefix - _SCREEN_MARGIN) - high[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # at mass 0: nan, infeasible
        for masks, (mass, hsum) in chunks:
            ent = np.log(mass) - hsum / mass
            feasible = np.where(ent <= budget, mass, -np.inf)
            top = feasible.max()
            if top < best_mass:
                continue
            at = np.flatnonzero(feasible == top)
            best = at[np.argmin(_index_order_keys(masks[at], n))] if at.size > 1 else at[0]
            key, best_key = _index_order_keys(np.array([masks[best], best_mask]), n)
            if top > best_mass or key < best_key:
                best_mass, best_mask, best_ent = top, masks[best], float(ent[best])
    return EcmmSolution(indices=mask_indices(int(best_mask)), gamma=float(best_mass),
                        entropy=best_ent)


def _feasible_prefix_mass(probs: np.ndarray, plp: np.ndarray, budget: float) -> float:
    """Mass of the heaviest prefix of the descending order whose entropy is
    within ``budget - _SCREEN_MARGIN``, or 0 if none is.

    The scan adds the same terms in another order: masses differ by under
    2 n u and entropies by under (4 n + 4) u (1 + budget + 2 ln 20), as the
    prefix holds the top token and weighs at least 1/n.  That is far below
    the margin for budget <= ln 20 + 1, and a larger budget leaves no subset
    of n <= 20 tokens infeasible: the scan finds the prefix feasible.
    """
    order = np.argsort(-probs)  # tied tokens add equal terms, in any order
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


def _index_order_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """The tie-break of ``exact_ecmm`` on masks below ``2**n``, as int64 keys,
    smallest first: the fewest set bits, then the smallest index set
    (``(0, 5)`` beats ``(1, 2)``).  Of equal popcounts, the set with the
    lowest differing bit comes first, i.e. the largest bit-reversed mask."""
    low, high = _index_order_tables(n)
    return low[masks & (low.size - 1)] + high[masks >> (n - n // 2)]


@functools.lru_cache(maxsize=ENUMERATION_LIMIT)
def _index_order_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The summands of ``_index_order_keys`` over the low n - n // 2 bits
    and over the rest, from popcount and bit-reversal tables (read-only)."""
    k = n - n // 2
    count = subset_sums(np.ones(k, dtype=np.int64)) << n
    reverse = subset_sums(1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    tables = (count - (reverse << (n - k)),
              count[: 2 ** (n - k)] - (reverse[: 2 ** (n - k)] >> (2 * k - n)))
    for table in tables:
        table.flags.writeable = False
    return tables


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
