"""A plain top-H reference that the benchmark checks the program against.

It follows the rule as documented, not the program's code path: a stable
sort by descending probability (so ties keep ascending index), the cut to
the candidate cap with renormalization, and every prefix entropy
recomputed from scratch.  The first prefix whose entropy is strictly above
the budget ends the scan; a prefix exactly at the budget is kept, the top
token is always kept, and a zero-probability token ends the scan.
"""

from __future__ import annotations

import numpy as np

#: Kept mass within this of 1 means the cap cut nothing that matters, so
#: the entries are used as they are (the package's mass tolerance).
MASS_TOLERANCE = 1e-9


def _entropy(w: np.ndarray) -> float:
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def ref_top_h(probs: np.ndarray, alpha: float, cap: int, slack: float = 0.0) -> tuple[int, ...]:
    """Selected token indices, in descending-probability order."""
    order = np.argsort(-probs, kind="stable")[: min(cap, probs.shape[0])]
    work = probs[order]
    total = float(np.sum(work))
    if abs(total - 1.0) > MASS_TOLERANCE:
        work = work / total
    budget = alpha * _entropy(work) + slack
    count = 0
    for k in range(1, work.shape[0] + 1):
        if work[k - 1] <= 0.0:
            break
        prefix = work[:k]
        if _entropy(prefix / float(np.sum(prefix))) > budget and count > 0:
            break
        count = k
    return tuple(int(i) for i in order[:count])


# (probs, alpha, cap, slack, expected selection), each worked out by hand.
HAND_CASES = (
    # ties straddling the cap: 2, 3, 4 tie at 0.2 and the cap keeps 2 and 3
    ([0.1, 0.3, 0.2, 0.2, 0.2], 0.4, 3, 10.0, (1, 2, 3)),
    # a single token is always selected
    ([1.0], 0.4, 100, 0.0, (0,)),
    # zero-probability tail: the scan stops before the zero entries
    ([0.0, 0.6, 0.0, 0.4], 0.5, 100, 10.0, (1, 3)),
    # prefix {0, 1} has entropy ln 2, exactly the budget 0.5 * ln 4: kept;
    # prefix {0, 1, 2} has ln 3 > budget: stops
    ([0.25, 0.25, 0.25, 0.25], 0.5, 100, 0.0, (0, 1)),
)


def self_test() -> list[str]:
    """Run the hand cases; return a description of each one that fails."""
    failures = []
    for probs, alpha, cap, slack, expected in HAND_CASES:
        got = ref_top_h(np.asarray(probs, dtype=np.float64), alpha, cap, slack)
        if got != expected:
            failures.append(f"ref_top_h({probs}, alpha={alpha}, cap={cap}) = {got}, expected {expected}")
    return failures
