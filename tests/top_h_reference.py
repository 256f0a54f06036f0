"""A from-scratch top-H selector that the tests compare the library against.

It shares no code path with ``toph.truncation``: it does its own stable
descending sort and its own cut to the candidate cap, and recomputes every
prefix entropy as -sum q ln q of the renormalized prefix.  The first prefix
strictly above the budget ends the scan; the top token is always kept and a
zero-probability token ends the scan.
"""

import numpy as np

from toph.distributions import MASS_TOLERANCE


def reference_top_h(probs, alpha, candidate_cap=100):
    """Selected token indices, in descending-probability order."""
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-probs, kind="stable")[:candidate_cap]
    work = probs[order]
    total = float(np.sum(work))
    if abs(total - 1.0) > MASS_TOLERANCE:
        work = work / total
    pos = work[work > 0.0]
    budget = alpha * float(-np.dot(pos, np.log(pos)))
    count = 0
    for k in range(1, work.shape[0] + 1):
        if work[k - 1] <= 0.0:
            break
        prefix = work[:k]
        q = prefix / float(np.sum(prefix))
        if float(-np.dot(q, np.log(q))) > budget and count > 0:
            break
        count = k
    return tuple(int(i) for i in order[:count])
