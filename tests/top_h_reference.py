"""Plain references that the tests compare ``toph.truncation`` against.

``reference_top_h`` is a from-scratch top-H selector that shares no code
path with the library: it does its own stable descending sort and its own
cut to the candidate cap, and recomputes every prefix entropy as
-sum q ln q of the renormalized prefix.  The first prefix strictly above
the budget ends the scan; the top token is always kept and a
zero-probability token ends the scan.

``reference_truncate`` is the scalar path of all five methods, one record
at a time: the running-entropy ``EntropyAccumulator`` for top-H (push each
token, pop the over-budget one by subtraction) and one numpy call per
step for the baselines.  Its arithmetic is the one the library documents,
so the chunked selection must match it exactly, float for float.
"""

import math
from dataclasses import dataclass

import numpy as np

from toph.distributions import MASS_TOLERANCE, _entropy_of


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


class NonPositiveProbability(ValueError):
    pass


class MassOverflow(ValueError):
    pass


class EmptyAccumulator(ValueError):
    pass


@dataclass
class EntropyAccumulator:
    """O(1)-per-item running entropy of a growing renormalized subset.

    Maintains the running mass ``gamma`` and ``h = sum p_i ln p_i`` over the
    pushed items; the subset entropy is then ln(gamma) - h/gamma.  ``pop``
    undoes a push by subtraction.
    """

    gamma: float = 0.0
    h: float = 0.0
    count: int = 0

    def push(self, p_j: float) -> None:
        if not p_j > 0.0:
            raise NonPositiveProbability(f"pushed probability must be > 0, got {p_j!r}")
        if self.gamma + p_j > 1.0 + MASS_TOLERANCE:
            raise MassOverflow(f"total mass {self.gamma + p_j!r} would exceed 1 beyond tolerance")
        self.gamma += p_j
        self.h += p_j * math.log(p_j)
        self.count += 1

    def pop(self, p_j: float) -> None:
        if not p_j > 0.0:
            raise NonPositiveProbability(f"popped probability must be > 0, got {p_j!r}")
        if self.count < 1:
            raise EmptyAccumulator("nothing to pop")
        self.gamma -= p_j
        self.h -= p_j * math.log(p_j)
        self.count -= 1

    def entropy(self) -> float:
        """Entropy of the renormalized pushed prefix; 0 for at most one item."""
        if self.count <= 1:
            return 0.0
        return math.log(self.gamma) - self.h / self.gamma


@dataclass(frozen=True)
class ReferenceResult:
    selected: tuple
    gamma: float
    h_p: float
    h_q: float
    threshold: object
    stop_reason: object
    dropped_mass: float
    trace: tuple  # (index, gamma, entropy) per kept top-H token


def reference_truncate(probs, method, alpha=0.4, k=20, p_nucleus=0.9, p_base=0.1,
                       eta=0.0002, candidate_cap=100):
    """One record through the scalar path; ``method`` is a ``Method`` value string."""
    probs = np.asarray(probs, dtype=np.float64)
    full = np.argsort(-probs, kind="stable")
    order = full[: min(candidate_cap, probs.shape[0])]
    kept = probs[order]
    total = float(np.sum(kept))
    work = kept if abs(total - 1.0) <= MASS_TOLERANCE else kept / total
    cut_off = probs[full[order.shape[0]:]]
    dropped = float(np.sum(cut_off)) if cut_off.size else 0.0
    h_p = _entropy_of(work)
    threshold = stop = None
    h_q = None
    trace = ()
    if method == "top_h":
        threshold = alpha * h_p
        acc = EntropyAccumulator()
        count, h_q, steps, stop = 0, 0.0, [], "cap_exhausted"
        for pos in range(work.shape[0]):
            p_j = float(work[pos])
            if p_j <= 0.0:
                stop = "zero_tail"
                break
            acc.push(p_j)
            h = acc.entropy()
            if h > threshold and count > 0:
                acc.pop(p_j)
                stop = "budget"
                break
            count += 1
            h_q = h
            steps.append((int(order[pos]), acc.gamma, h))
        trace = tuple(steps)
    elif method == "top_k":
        count = min(k, work.shape[0])
    elif method == "top_p":
        cum = np.cumsum(work)
        count = min(int(np.searchsorted(cum, p_nucleus, side="left")) + 1, work.shape[0])
    elif method == "min_p":
        count = max(1, int(np.count_nonzero(work >= p_base * float(work[0]))))
    elif method == "eta":
        epsilon = min(eta, math.sqrt(eta) * math.exp(-h_p))
        count = max(1, int(np.count_nonzero(work >= epsilon)))
    else:
        raise ValueError(f"unknown method {method!r}")
    gamma = float(np.sum(work[:count]))
    if h_q is None:
        h_q = _entropy_of(work[:count] / gamma)
    return ReferenceResult(
        selected=tuple(int(i) for i in order[:count]), gamma=gamma, h_p=h_p, h_q=h_q,
        threshold=threshold, stop_reason=stop, dropped_mass=dropped, trace=trace,
    )
