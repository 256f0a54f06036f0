"""Full-table exhaustive searches that the tests compare the library against.

These are the enumerations ``toph.oracle.exact_ecmm`` and
``toph.hardness.decide_ecme_small(mode="full")`` ran before they moved to
log-free screens and the sorted meet-in-the-middle lookup of
``toph.oracle.key_range_subsets``: one complete ``2**n`` table per column
from ``subset_sums``, every entropy and every mask's deficit computed,
then the same tie-break and the same 50-digit confirmation.  They trade
memory and time for plainness.
"""

import math

import mpmath as mp
import numpy as np

from toph.distributions import _entropy_of
from toph.hardness import DEFAULT_DPS, EcmeDecision, mixed_subset_entropy, subset_weight
from toph.oracle import EcmmSolution, mask_indices, subset_sums


def reference_exact_ecmm(instance):
    """The optimum over every non-empty subset, scored on full tables."""
    probs = instance.p.probs
    budget = instance.alpha * _entropy_of(probs)
    plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    mass = subset_sums(probs)
    hsum = subset_sums(plp)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.log(mass) - hsum / mass
    ent[0] = np.inf  # empty set is not a valid sampler output
    ent[mass <= 0.0] = np.inf
    feasible = ent <= budget
    best_mass = mass[feasible].max()
    candidates = [int(m) for m in np.nonzero(feasible & (mass == best_mass))[0]]
    best = min(candidates, key=lambda m: (bin(m).count("1"), mask_indices(m)))
    return EcmmSolution(
        indices=mask_indices(best), gamma=float(mass[best]), entropy=float(ent[best])
    )


def reference_full_candidates(instance):
    """Every mask that passes the full-mode float screen, from full tables."""
    big_b = instance.booster_count
    sums = subset_sums(np.asarray(instance.weights, dtype=np.int64))
    deficit = instance.tau - sums
    scaled = 2 * big_b * deficit
    valid = (deficit >= 0) & (scaled % instance.tau == 0) & (scaled // instance.tau <= big_b)
    valid[0] = False  # a sampler set cannot be empty
    wlogw = subset_sums(np.asarray([w * math.log(w) for w in instance.weights]))
    w_b = float(instance.constants.w_b)
    b_counts = np.where(valid, scaled // instance.tau, 0)
    h_float = math.log(instance.tau) - (
        wlogw + b_counts * (w_b * math.log(w_b))
    ) / instance.tau
    return np.nonzero(valid & (h_float <= float(instance.budget) + 1e-6))[0].tolist()


def reference_decide_full(instance):
    """Full-space decision on full tables; the witness has the smallest mask."""
    big_b = instance.booster_count
    with mp.workdps(DEFAULT_DPS):
        for mask in reference_full_candidates(instance):
            subset = mask_indices(mask)
            b = 2 * big_b * (instance.tau - subset_weight(instance, subset)) // instance.tau
            h = mixed_subset_entropy(instance, subset, int(b))
            if h <= instance.budget:
                return EcmeDecision(is_yes=True, witness=subset, witness_boosters=int(b))
    return EcmeDecision(is_yes=False, witness=None)
