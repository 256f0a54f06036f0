"""Exact solutions of the entropy-constrained mass-maximization problem.

For small vocabularies the optimum is found by enumerating every
non-empty subset, so the greedy selector can be scored against the true
optimum.  The batch harness aggregates the per-instance mass ratio
greedy/optimal into a plot-ready report.

``subset_blocks`` enumerates every mask's mass for ``exact_ecmm`` in
blocks of ``2**BLOCK_BITS`` consecutive masks, so it holds
O(2**BLOCK_BITS) entries per column rather than O(2**n), and every block
entry is bit-identical to the full ``subset_sums`` table.
``add_high_bits`` turns low-table entries into full-table entries one
mask at a time, so ``exact_ecmm`` builds entropy sums only for the
subsets its screen keeps, and ``toph.hardness`` builds its
meet-in-the-middle lookup of the few masks of an exact weight from
``subset_sums`` and ``add_high_bits``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .distributions import ProbabilityDistribution, _entropy_of
from .errors import VocabularyTooLarge
from .truncation import Method, TruncationConfig, truncate

#: Exhaustive search is refused above this vocabulary size (2**20 subsets).
ENUMERATION_LIMIT = 20

#: Ratios below 1 - RATIO_TIE_EPS count as suboptimal instances.
RATIO_TIE_EPS = 1e-12

#: ``subset_blocks`` enumerates 2**BLOCK_BITS masks per block (128 KiB per
#: float64 or int64 column), small enough to stay in cache.
BLOCK_BITS = 14

#: Slack of the ``exact_ecmm`` screen over the budget, in nats.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class EcmmInstance:
    """One problem instance: a distribution and the budget coefficient."""

    p: ProbabilityDistribution
    alpha: float


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
    costs O(2**n) arithmetic and O(2**n) memory; ``subset_blocks`` and the
    ``toph.hardness`` lookup use it for at most ``BLOCK_BITS`` items.
    """
    n = values.shape[0]
    out = np.zeros(2**n, dtype=values.dtype)
    for i in range(n):
        out[2**i : 2 ** (i + 1)] = out[: 2**i] + values[i]
    return out


def subset_blocks(
    columns: Sequence[np.ndarray], block_bits: int = BLOCK_BITS
) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
    """``subset_sums`` of each column, one block of consecutive masks at a time.

    Yields ``(first_mask, sums)`` in ascending mask order, where
    ``sums[c][j]`` equals ``subset_sums(columns[c])[first_mask + j]`` bit
    for bit.  A block covers ``2**min(n, block_bits)`` masks that share
    their high bits: it starts as a copy of the low-bit table and then adds
    the block's set high bits in ascending order, the order the doubling
    adds them.  Memory is O(2**block_bits) per column.  The yielded arrays
    are overwritten by the next block, so callers must not keep them.
    """
    n = columns[0].shape[0]
    k = min(n, block_bits)
    low = [subset_sums(c[:k]) for c in columns]
    bufs = [np.empty_like(t) for t in low]
    for high in range(2 ** (n - k)):
        for c, t, buf in zip(columns, low, bufs):
            np.copyto(buf, t)
            add_high_bits(buf, c[k:], high)
        yield high << k, tuple(bufs)


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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def exact_ecmm(instance: EcmmInstance) -> EcmmSolution:
    """Maximize the subset mass subject to H(subset) <= alpha * H(p).

    Every non-empty subset is scored; ties on mass are broken by smaller
    cardinality, then by the lexicographically smallest index set.  The
    scan keeps an incumbent (the best feasible mass so far), computes the
    entropy only of subsets with at least that mass that pass the log-free
    ``_screen_keys`` test, and keeps every feasible subset tied with it.
    """
    n = instance.p.n
    if n > ENUMERATION_LIMIT:
        raise VocabularyTooLarge(
            f"n={n} exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    probs = instance.p.probs
    budget = instance.alpha * _entropy_of(probs)
    plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    k = min(n, BLOCK_BITS)
    low_key, high_key = _screen_keys(probs, plp, budget, k)
    hsum_low = subset_sums(plp[:k])
    best_mass = 0.0
    tied: list[tuple[np.ndarray, np.ndarray]] = []  # per block: masks, entropies at best_mass
    for first, (mass,) in subset_blocks((probs,), k):
        high = first >> k
        # the empty set (mass 0) is not a valid sampler output
        pos = np.flatnonzero((mass >= best_mass) & (mass > 0.0) & (low_key <= high_key[high]))
        gamma = mass[pos]
        ent = np.log(gamma) - add_high_bits(hsum_low[pos], plp[k:], high) / gamma
        feasible = ent <= budget
        if not feasible.any():
            continue
        top = gamma[feasible].max()
        if top > best_mass:
            best_mass, tied = top, []
        at = feasible & (gamma == best_mass)
        tied.append((first + pos[at], ent[at]))
    if not tied:
        # cannot happen for a valid distribution: the top singleton has H=0
        raise AssertionError("no feasible subset; distribution invalid")
    masks, ents = (np.concatenate(column) for column in zip(*tied))
    best = 0 if masks.size == 1 else _first_in_index_order(masks, n)
    return EcmmSolution(indices=mask_indices(int(masks[best])), gamma=float(best_mass),
                        entropy=float(ents[best]))


def _screen_keys(probs: np.ndarray, plp: np.ndarray, budget: float,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The log-free screen of ``exact_ecmm``, split at item ``k``.

    Returns ``(low_key, high_key)``: the subset ``high << k | low`` can be
    feasible only if ``low_key[low] <= high_key[high]``; no subset that
    fails this has entropy ``ln(mass) - hsum / mass <= budget`` in float64.

    Why: ln g >= 1 - 1/g, so a subset of mass g and h = sum p ln p has
    entropy ln g - h/g >= (g - 1 - h)/g, and H <= budget implies
    g c - h <= 1 with c = 1 - budget - margin, for any margin >= 0.  With g
    and h split into their low and high parts this reads
    g_low c - h_low <= 1 - g_high c + h_high.  The margin covers rounding,
    both in the float entropy and in the split (float sums of n terms in
    another grouping).  For g >= 1/2 every error is a few n units in the
    last place u on quantities of size 1 + budget, below
    (n + 10) u (1 + budget) (1 + 2 g) < 1e-12 for budget <= ln 20, against
    margin * g >= 5e-10; no subset of n <= 20 tokens has entropy above
    ln 20, so a larger budget puts g c - h - 1 below -g (budget - ln 20),
    which outgrows the error.  For g < 1/2, ln g + 1/g - 1 > 1 - ln 2, so
    a feasible subset has g c - h - 1 < -0.15 and passes for any margin.
    """
    c = 1.0 - (budget + _SCREEN_MARGIN)
    low_key = subset_sums(probs[:k]) * c - subset_sums(plp[:k])
    high_key = 1.0 - subset_sums(probs[k:]) * c + subset_sums(plp[k:])
    return low_key, high_key


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
    uncapped (the candidate cap covers the whole vocabulary).
    """
    rows = []
    for pos, inst in enumerate(instances):
        rid = ids[pos] if ids is not None else f"i{pos:06d}"
        config = TruncationConfig(
            method=Method.TOP_H,
            alpha=inst.alpha,
            candidate_cap=max(100, inst.p.n),
        )
        greedy = truncate(inst.p, config)
        opt = exact_ecmm(inst)
        ratio = greedy.subset.gamma / opt.gamma
        rows.append(
            GapRow(
                instance_id=rid,
                n=inst.p.n,
                alpha=inst.alpha,
                gamma_greedy=greedy.subset.gamma,
                gamma_optimal=opt.gamma,
                ratio=ratio,
            )
        )
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
