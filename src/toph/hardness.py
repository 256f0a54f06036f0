"""Constructive reduction from cardinality-constrained subset sum (CCSS) to
the entropy-constrained mass decision problem (ECME), with verifiers.

Pipeline: ``pad_to_narrow_range`` shifts every weight by the same constant
so that all weights land strictly inside (tau/(K+1), tau/(K-1));
``scale_to_k20`` duplicates weights to force K >= 20 and re-pads;
``reduce_to_ecme`` turns the result into a probability vector consisting of
m "heavy" items (the weights) plus an implicitly stored block of B
identical low-probability "booster" items, together with an exact mass
target beta and a high-precision entropy budget.

Arithmetic discipline: weights and derived counts are arbitrary-precision
integers, probabilities are exact rationals, and only the transcendental
entropy/log terms are evaluated in high-precision floating point (mpmath,
``DEFAULT_DPS`` = 50 significant digits, fixed for every function here).

Well-posedness note.  The analytic budget construction assumes the heavy
ratios w_i/tau form a near-uniform probability vector, which pins the heavy
item count to m = K.  With K >= 20 and the narrow range every ratio
r = w/tau lies in (1/(K+1), 1/(K-1)), below 1/e, where -r ln r increases:
m >= K+1 gives sum -r ln r > ln(K+1) (theta < 0) and m <= K-1 gives
sum -r ln r < ln(K-1) (theta > 1/K), so the theta bounds check in
``reduce_to_ecme`` rejects both.  Every ECME it emits has m == K, and its
one heavy K-subset is all of it: structural ``decide`` checks just that.
Deficit instances (sum(w) < tau, i.e. NO instances of the m = K family)
pass through with the pseudo-entropy of the w_i/tau ratios, which stays
inside the theta window as long as the deficit is below ~20% of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import mpmath as mp
import numpy as np

from .errors import (
    InvalidParameters,
    KTooSmall,
    MalformedRecord,
    NarrowRangeViolated,
    PrecisionInsufficient,
    ThetaOutOfBounds,
    TooManyHeavyItems,
    WrongCardinality,
    WrongMass,
)
from .oracle import BLOCK_BITS, key_range_subsets, mask_indices, subset_sums
from .synthgen import SCHEMA_VERSION

#: Working precision (significant decimal digits) for entropy terms.
DEFAULT_DPS = 50

#: ``verify_cardinality_lock`` refuses weight families larger than this.
MAX_HEAVY_ITEMS = 24

#: Full-space cross-validation looks up the exact-weight heavy subsets for
#: each of the 2**(m - BLOCK_BITS) high masks (memory does not grow with m);
#: capped lower because the time does.
MAX_FULL_SPACE_ITEMS = 22

# Calibration constants of the booster-count exponent, taken verbatim as
# exact decimals.
_C_EPS = Fraction(384, 10000)     # 0.0384
_C_NUM = Fraction(7333, 10000)    # 0.7333
_C_DEN = Fraction(133, 1000)      # 0.133


def _mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class CcssInstance:
    """Positive integer weights, an integer target, and a cardinality K."""

    weights: tuple[int, ...]
    tau: int
    k: int

    def __post_init__(self):
        if len(self.weights) == 0:
            raise InvalidParameters("need at least one weight")
        if any(w < 1 for w in self.weights):
            raise InvalidParameters("weights must be positive integers")
        if self.tau < 1:
            raise InvalidParameters("tau must be a positive integer")
        if not 3 <= self.k <= len(self.weights):
            raise InvalidParameters(
                f"need 3 <= K <= m, got K={self.k}, m={len(self.weights)}"
            )

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def narrow_range_holds(self) -> bool:
        """tau/(K+1) < w_i < tau/(K-1) for every weight, checked exactly."""
        lo = Fraction(self.tau, self.k + 1)
        hi = Fraction(self.tau, self.k - 1)
        return all(lo < w < hi for w in self.weights)


@dataclass(frozen=True)
class ReductionConstants:
    gamma_k: Fraction          # 1 / (16 K^2)
    theta_k: mp.mpf            # ln K - H(w/tau), the uniformity deficit
    delta_k: mp.mpf            # 5 theta / (2 ln K)
    epsilon_k: mp.mpf          # (0.0384 + gamma) / ln K
    lambda_k: int              # ceil((0.7333 - eps + delta) / 0.133)
    lambda_raw: mp.mpf         # the same quantity before the ceiling
    booster_count: int         # B = K ** lambda_k
    w_b: Fraction              # booster weight tau / (2B)
    normalizer: Fraction       # W = sum(w) + tau/2


@dataclass(frozen=True)
class EcmeInstance:
    """Reduction output: heavy probabilities plus an implicit booster block.

    ``heavy_probs[i] = weights[i] / W`` and ``booster_prob = w_b / W`` with
    W the exact total weight, so the full vector sums to 1 exactly.  The
    mass target ``beta = tau / W`` corresponds to subsets of weight exactly
    tau; it equals 2/3 exactly whenever sum(weights) == tau.  Boosters are
    never materialized: all their mass/entropy contributions are computed
    from (count, unit probability).
    """

    weights: tuple[int, ...]
    tau: int
    k: int
    heavy_probs: tuple[Fraction, ...]
    booster_count: int
    booster_prob: Fraction
    beta: Fraction
    budget: mp.mpf
    constants: ReductionConstants

    @property
    def m(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class WindowCheck:
    holds: bool
    lower_margin: mp.mpf   # budget - (ln K - gamma_K)
    upper_margin: mp.mpf   # ln(K+1) - budget


@dataclass(frozen=True)
class EcmeDecision:
    is_yes: bool
    witness: tuple[int, ...] | None            # heavy indices
    witness_boosters: int = 0                  # only the full-space mode uses this


# --- instance preparation ---------------------------------------------------

def pad_to_narrow_range(instance: CcssInstance) -> CcssInstance:
    """Shift every weight by M = (K+1) tau; the K-subset sums are preserved.

    The padded instance (w_i + M; tau + K M; K) always satisfies the narrow
    range, and a K-subset sums to tau in the original exactly when the
    corresponding subset sums to the new target.
    """
    m_shift = (instance.k + 1) * instance.tau
    return CcssInstance(
        weights=tuple(w + m_shift for w in instance.weights),
        tau=instance.tau + instance.k * m_shift,
        k=instance.k,
    )


def scale_to_k20(instance: CcssInstance) -> CcssInstance:
    """Force K >= 20 by duplicating every weight d = ceil(20/K) times.

    Feasibility transfers between (K, tau) and (dK, d tau).  Plain
    duplication can break the narrow range, so the padding step is applied
    again afterwards.  Instances already at K >= 20 are returned unchanged.
    """
    if instance.k >= 20:
        return instance
    d = -(-20 // instance.k)
    duplicated = CcssInstance(
        weights=tuple(w for w in instance.weights for _ in range(d)),
        tau=d * instance.tau,
        k=d * instance.k,
    )
    return pad_to_narrow_range(duplicated)


def prepare(instance: CcssInstance) -> CcssInstance:
    """The canonical preprocessing: pad, then scale (which re-pads)."""
    return scale_to_k20(pad_to_narrow_range(instance))


# --- the reduction -----------------------------------------------------------

def _heavy_pseudo_entropy(weights: Sequence[int], tau: int) -> mp.mpf:
    """-sum (w/tau) ln(w/tau), grouped by repeated weight values."""
    counts: dict[int, int] = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    total = mp.mpf(0)
    ln_tau = mp.log(tau)
    for w, c in counts.items():
        r = mp.mpf(w) / tau
        total += c * r * (ln_tau - mp.log(w))
    return total


def _theta_in_range(theta: mp.mpf, k: int) -> bool:
    """0 < theta < 1/(2K^2): the deficit window the budget construction needs."""
    with mp.workdps(DEFAULT_DPS):
        return bool(0 < theta < mp.mpf(1) / (2 * k * k))


def _calibration(k: int, theta: mp.mpf) -> tuple[Fraction, mp.mpf, mp.mpf]:
    """gamma_K, delta_K and epsilon_K for budget coefficient K and deficit theta."""
    ln_k = mp.log(k)
    gamma = Fraction(1, 16 * k * k)
    return gamma, 5 * theta / (2 * ln_k), (_mpf(_C_EPS) + _mpf(gamma)) / ln_k


def lambda_exponent(k: int, theta: mp.mpf) -> tuple[int, mp.mpf]:
    """Booster-count exponent for budget coefficient K and deficit theta.

    Returns (ceil value, raw value).  Raises if the raw value sits too
    close to an integer for the ceiling to be trustworthy at the working
    precision.
    """
    _, delta, eps = _calibration(k, theta)
    raw = (_mpf(_C_NUM) - eps + delta) / _mpf(_C_DEN)
    nearest = mp.nint(raw)
    if abs(raw - nearest) < mp.mpf(10) ** (-(mp.mp.dps - 10)) and raw != nearest:
        raise PrecisionInsufficient(
            f"lambda expression {raw} is too close to an integer to ceil safely"
        )
    return int(mp.ceil(raw)), raw


def reduce_to_ecme(instance: CcssInstance) -> EcmeInstance:
    """Map a narrow-range CCSS instance with K >= 20 to an ECME instance.

    The booster block has B = K**lambda identical items of weight
    tau/(2B), so the booster mass is exactly tau/2 regardless of B.  The
    entropy budget is computed analytically from the decomposition
    H = H_heavy + H_booster with

        H_heavy   = (2/3) (H(w/tau) + ln(2/3))
        H_booster = (1/3) (ln 3 + lambda_raw ln K)

    and budget = 0.4 * H.  With the pre-ceiling exponent this lands
    strictly between ln K and ln(K+1) for K in the working range (20..120),
    which is what the decision equivalence needs: every weight-tau heavy
    K-subset (entropy <= ln K) is feasible, while any mass-beta subset
    containing boosters overshoots the budget.  See the decisions notes for
    why the ceiled exponent must not be used here.
    """
    if instance.k < 20:
        raise KTooSmall(f"reduction requires K >= 20, got K={instance.k}")
    if not instance.narrow_range_holds():
        raise NarrowRangeViolated(
            "weights must lie strictly inside (tau/(K+1), tau/(K-1)); "
            "apply pad_to_narrow_range/scale_to_k20 first"
        )
    k, tau = instance.k, instance.tau
    with mp.workdps(DEFAULT_DPS):
        ln_k = mp.log(k)
        pseudo_h = _heavy_pseudo_entropy(instance.weights, tau)
        theta = ln_k - pseudo_h
        if not _theta_in_range(theta, k):
            raise ThetaOutOfBounds(
                f"theta={mp.nstr(theta, 8)} outside "
                f"(0, 1/(2K^2)={mp.nstr(mp.mpf(1) / (2 * k * k), 8)}); "
                "the construction needs near-uniform heavy ratios (m == K)"
            )
        gamma, delta, eps = _calibration(k, theta)
        lam, lam_raw = lambda_exponent(k, theta)
        booster_count = k ** lam
        w_b = Fraction(tau, 2 * booster_count)
        normalizer = Fraction(sum(instance.weights)) + Fraction(tau, 2)
        heavy_probs = tuple(Fraction(w) / normalizer for w in instance.weights)
        booster_prob = w_b / normalizer
        beta = Fraction(tau) / normalizer

        h_heavy = Fraction(2, 3) * (pseudo_h + mp.log(mp.mpf(2) / 3))
        h_boost = Fraction(1, 3) * (mp.log(3) + lam_raw * ln_k)
        budget = Fraction(2, 5) * (h_heavy + h_boost)

        constants = ReductionConstants(
            gamma_k=gamma,
            theta_k=theta,
            delta_k=delta,
            epsilon_k=eps,
            lambda_k=lam,
            lambda_raw=lam_raw,
            booster_count=booster_count,
            w_b=w_b,
            normalizer=normalizer,
        )
        return EcmeInstance(
            weights=instance.weights,
            tau=tau,
            k=k,
            heavy_probs=heavy_probs,
            booster_count=booster_count,
            booster_prob=booster_prob,
            beta=beta,
            budget=+budget,
            constants=constants,
        )


# --- verifiers ---------------------------------------------------------------

def verify_budget_window(instance: EcmeInstance) -> WindowCheck:
    """Check ln K - gamma_K < budget < ln(K+1) with explicit margins."""
    k = instance.k
    with mp.workdps(DEFAULT_DPS):
        lower_bound = mp.log(k) - _mpf(instance.constants.gamma_k)
        upper_bound = mp.log(k + 1)
        lower_margin = instance.budget - lower_bound
        upper_margin = upper_bound - instance.budget
        tol = mp.mpf(10) ** (-(DEFAULT_DPS - 10))
        for margin in (lower_margin, upper_margin):
            if abs(margin) < tol:
                raise PrecisionInsufficient(
                    f"window margin {mp.nstr(margin, 5)} below resolvable scale at "
                    f"{DEFAULT_DPS} digits"
                )
        return WindowCheck(
            holds=bool(lower_margin > 0 and upper_margin > 0),
            lower_margin=+lower_margin,
            upper_margin=+upper_margin,
        )


def verify_instance(instance: EcmeInstance) -> list[tuple[str, bool, str]]:
    """The named ``(name, ok, detail)`` checks ``toph verify`` prints.

    ``heavy_count`` (m == K) is the precondition of structural ``decide``;
    every ``reduce_to_ecme`` output meets it (see the module docstring).
    ``exact_fields``: the stored rationals are the ones the weights determine.
    """
    window = verify_budget_window(instance)
    c = instance.constants
    total = sum(instance.heavy_probs) + instance.booster_count * instance.booster_prob
    # p * W == w, not p == w / W: a hand-written W of 0 divides nothing.  For
    # K >= 2, B == K**lambda implies lambda <= bit_length(B): no huge power.
    fields = {
        "normalizer": c.normalizer == sum(instance.weights) + Fraction(instance.tau, 2),
        "heavy_probs": len(instance.heavy_probs) == instance.m and all(
            p * c.normalizer == w for p, w in zip(instance.heavy_probs, instance.weights)),
        "booster_prob": instance.booster_prob * c.normalizer == c.w_b,
        "beta": instance.beta * c.normalizer == instance.tau,
        "booster_count": (instance.booster_count == c.booster_count
                          and 0 <= c.lambda_k <= c.booster_count.bit_length()
                          and c.booster_count == instance.k ** c.lambda_k),
    }
    wrong = [name for name, ok in fields.items() if not ok]
    return [
        ("budget_window", window.holds,
         f"lower_margin={mp.nstr(window.lower_margin, 8)} "
         f"upper_margin={mp.nstr(window.upper_margin, 8)}"),
        ("narrow_range",
         CcssInstance(instance.weights, instance.tau, instance.k).narrow_range_holds(),
         "exact rational comparison"),
        ("total_mass_one", total == 1, "exact rational identity"),
        ("theta_bounds", _theta_in_range(c.theta_k, instance.k),
         f"theta={mp.nstr(c.theta_k, 8)}"),
        ("booster_block_weight", c.w_b * 2 * instance.booster_count == instance.tau,
         "2 B w_b == tau"),
        ("heavy_count", instance.m == instance.k, f"m={instance.m} K={instance.k}"),
        ("exact_fields", not wrong,
         f"wrong: {', '.join(wrong)}" if wrong
         else "W = sum(w) + tau/2, p_i = w_i/W, p_b = w_b/W, beta = tau/W, B = K**lambda"),
    ]


def subset_weight(instance: EcmeInstance, heavy_indices: Iterable[int]) -> int:
    return sum(instance.weights[i] for i in heavy_indices)


def mixed_subset_entropy(
    instance: EcmeInstance,
    heavy_indices: Sequence[int],
    booster_count: int,
) -> mp.mpf:
    """Entropy of a renormalized subset of heavy items plus b boosters.

    Booster contributions enter analytically as count * per-item term; the
    booster block itself is never expanded.
    """
    if booster_count < 0 or booster_count > instance.booster_count:
        raise InvalidParameters("booster count out of range")
    total = Fraction(subset_weight(instance, heavy_indices)) + booster_count * instance.constants.w_b
    if total <= 0:
        raise WrongMass("subset carries no weight")
    with mp.workdps(DEFAULT_DPS):
        total_mp = _mpf(total)
        ln_total = mp.log(total_mp)
        h = mp.mpf(0)
        for i in heavy_indices:
            w = instance.weights[i]
            h += (mp.mpf(w) / total_mp) * (ln_total - mp.log(w))
        if booster_count:
            r_b = _mpf(instance.constants.w_b) / total_mp
            h += booster_count * r_b * (ln_total - mp.log(_mpf(instance.constants.w_b)))
        return +h


def verify_cardinality_lock(weights: Sequence[int], tau: int, k: int) -> bool:
    """Exhaustively confirm that booster-free subsets of weight tau have size K.

    Works on any narrow-range weight family (not only reduction outputs);
    the subsets of weight exactly tau are found by ``_exact_sum_blocks`` in
    int64, so memory stays O(2**BLOCK_BITS).
    """
    if len(weights) > MAX_HEAVY_ITEMS:
        raise TooManyHeavyItems(
            f"m={len(weights)} exceeds the exhaustive limit {MAX_HEAVY_ITEMS}"
        )
    if sum(weights) >= 2**62:
        raise TooManyHeavyItems("weights too large for the vectorized enumerator")
    if not sum(min(w, 0) for w in weights) <= tau <= sum(max(w, 0) for w in weights):
        return True  # no subset reaches tau
    columns = (np.asarray(weights, dtype=np.int64), np.ones(len(weights), dtype=np.int64))
    return all(bool(np.all(sizes == k))
               for _, _, (_, sizes) in _exact_sum_blocks(columns, tau, 1, 1))


def _exact_sum_blocks(
    columns: Sequence[np.ndarray], target: int, step: int, count: int,
    block_bits: int = BLOCK_BITS,
) -> Iterator[tuple[int, np.ndarray, tuple[np.ndarray, ...]]]:
    """``key_range_subsets`` of the masks whose column-0 sum is ``target - j * step``
    for a j in ``range(count)``.

    Meet in the middle: the low ``block_bits`` items are keyed by their
    column-0 sum as (sum mod step, sum // step).  A high mask of sum s needs
    low sums congruent to target - s mod step whose quotient lies in a
    window of ``count`` values: one key range, empty when the window misses
    every low quotient.  Column 0 is int64 and every target must fit it.
    """
    k = min(columns[0].shape[0], block_bits)
    low = [subset_sums(c[:k]) for c in columns]
    quot, rem = np.divmod(low[0], step)
    base = int(quot.min())
    span = int(quot.max()) - base + 1
    # keys < step * span <= (max - min low sum) + step, in int64 under the
    # callers' 2**62 guards
    hi_quot, hi_rem = np.divmod(target - subset_sums(columns[0][k:]), step)
    top = hi_quot - base
    return key_range_subsets(low, [c[k:] for c in columns], rem * span + (quot - base),
                             hi_rem * span + np.clip(top - (count - 1), 0, span),
                             hi_rem * span + np.clip(top, -1, span - 1))


# --- decision ----------------------------------------------------------------

def _full_space_candidates(instance: EcmeInstance) -> Iterator[int]:
    """Masks of the heavy subsets that pass the float screen, ascending.

    Mass target as weight: subset weight S + b * w_b == tau with
    w_b = tau / (2B), i.e. the deficit d = tau - S needs a booster count
    b = 2B d / tau that is an integer in [0, B].  With g = gcd(2B, tau),
    2B d is a multiple of tau exactly when d is a multiple of tau // g
    (2B/g and tau/g are coprime), and b <= B means d <= tau / 2 (B >= 1).
    So the qualifying masks are those of weight tau - j * (tau // g) for
    0 <= j <= tau // (2 (tau // g)), which ``_exact_sum_blocks`` finds;
    the empty mask (d = tau) never qualifies.  Every mass-exact candidate
    renormalizes over total weight exactly tau, so its entropy is
        ln(tau) - (sum_{i in S} w ln w + b * w_b ln(w_b)) / tau.
    That is screened vectorized in float64, the ``w ln w`` sums added in
    ascending bit order; only candidates within float noise of the budget
    go on to the high-precision confirmation.  The caller checks both int64
    guards.
    """
    tau, big_b = instance.tau, instance.booster_count
    w_b = float(instance.constants.w_b)
    limit = float(instance.budget) + 1e-6
    step = tau // math.gcd(2 * big_b, tau)
    columns = (
        np.asarray(instance.weights, dtype=np.int64),
        np.asarray([w * math.log(w) for w in instance.weights]),
    )
    for first, lows, (sums, wlogw) in _exact_sum_blocks(columns, tau, step,
                                                         tau // (2 * step) + 1):
        b_counts = 2 * big_b * (tau - sums) // tau
        h_float = math.log(tau) - (wlogw + b_counts * (w_b * math.log(w_b))) / tau
        yield from (first + lows[h_float <= limit]).tolist()


def decide_ecme_small(instance: EcmeInstance, mode: str = "structural") -> EcmeDecision:
    """Decide the constructed instance.

    ``structural`` mode applies the structural facts (booster-containing
    mass-beta subsets overshoot the budget; booster-free ones must have
    exactly K items of total weight tau) to an m == K instance, as every
    ``reduce_to_ecme`` output is, and raises ``WrongCardinality`` otherwise.
    Its one K-subset ``range(m)`` is checked directly (weight == tau, exact
    mass == beta, entropy <= budget at 50 digits) and is the witness.
    ``full`` mode cross-validates on tiny instances over every heavy subset
    whose weight leaves a deficit that a whole number of boosters fills
    exactly (``_full_space_candidates``); its witness is the qualifying
    subset with the smallest mask (bit i = heavy item i), i.e. the
    colexicographically first: ``(1,)`` (mask 2) comes before ``(0, 5)``
    (mask 33).
    """
    if mode == "structural":
        if instance.m != instance.k:
            raise WrongCardinality(f"structural mode needs m == K, got m={instance.m} "
                                   f"heavy items and K={instance.k}; use --mode full")
        subset = tuple(range(instance.m))
        if (subset_weight(instance, subset) == instance.tau
                and sum(instance.heavy_probs) == instance.beta
                and mixed_subset_entropy(instance, subset, 0) <= instance.budget):
            return EcmeDecision(is_yes=True, witness=subset)
        return EcmeDecision(is_yes=False, witness=None)
    if mode == "full":
        if instance.m > MAX_FULL_SPACE_ITEMS:
            raise TooManyHeavyItems(
                f"m={instance.m} exceeds the full-space limit {MAX_FULL_SPACE_ITEMS}"
            )
        big_b = instance.booster_count
        if 2 * big_b * instance.tau >= 2**62:
            raise TooManyHeavyItems("booster count too large for the vectorized screen")
        if sum(instance.weights) >= 2**62:
            raise TooManyHeavyItems("weights too large for the vectorized enumerator")
        with mp.workdps(DEFAULT_DPS):
            for mask in _full_space_candidates(instance):
                subset = mask_indices(mask)
                b = 2 * big_b * (instance.tau - subset_weight(instance, subset)) // instance.tau
                h = mixed_subset_entropy(instance, subset, int(b))
                if h <= instance.budget:
                    return EcmeDecision(is_yes=True, witness=subset, witness_boosters=int(b))
        return EcmeDecision(is_yes=False, witness=None)
    raise ValueError(f"unknown mode {mode!r}")


def brute_force_ccss(instance: CcssInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Independent CCSS oracle: enumerate K-subsets with exact integer sums."""
    for subset in combinations(range(instance.m), instance.k):
        if sum(instance.weights[i] for i in subset) == instance.tau:
            return True, subset
    return False, None


# --- JSON serialization -------------------------------------------------------

def _frac_to_json(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _frac_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def ccss_to_json(instance: CcssInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ccss",
        "weights": [str(w) for w in instance.weights],
        "tau": str(instance.tau),
        "k": instance.k,
    }


def ccss_from_json(obj: dict) -> CcssInstance:
    try:
        if obj.get("kind") != "ccss":
            raise KeyError("kind")
        return CcssInstance(
            weights=tuple(int(w) for w in obj["weights"]),
            tau=int(obj["tau"]),
            k=int(obj["k"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"not a valid CCSS object: {exc}") from exc


def ecme_to_json(instance: EcmeInstance) -> dict:
    c = instance.constants
    with mp.workdps(DEFAULT_DPS):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ecme",
            "weights": [str(w) for w in instance.weights],
            "tau": str(instance.tau),
            "k": instance.k,
            "heavy_probs": [_frac_to_json(f) for f in instance.heavy_probs],
            "booster_count": str(instance.booster_count),
            "booster_prob": _frac_to_json(instance.booster_prob),
            "beta": _frac_to_json(instance.beta),
            "budget": mp.nstr(instance.budget, DEFAULT_DPS - 5),
            "constants": {
                "gamma_k": _frac_to_json(c.gamma_k),
                "theta_k": mp.nstr(c.theta_k, DEFAULT_DPS - 5),
                "delta_k": mp.nstr(c.delta_k, DEFAULT_DPS - 5),
                "epsilon_k": mp.nstr(c.epsilon_k, DEFAULT_DPS - 5),
                "lambda_k": c.lambda_k,
                "lambda_raw": mp.nstr(c.lambda_raw, DEFAULT_DPS - 5),
                "booster_count": str(c.booster_count),
                "w_b": _frac_to_json(c.w_b),
                "normalizer": _frac_to_json(c.normalizer),
            },
        }


def ecme_from_json(obj: dict) -> EcmeInstance:
    try:
        if obj.get("kind") != "ecme":
            raise KeyError("kind")
        cj = obj["constants"]
        with mp.workdps(DEFAULT_DPS):
            constants = ReductionConstants(
                gamma_k=_frac_from_json(cj["gamma_k"]),
                theta_k=mp.mpf(cj["theta_k"]),
                delta_k=mp.mpf(cj["delta_k"]),
                epsilon_k=mp.mpf(cj["epsilon_k"]),
                lambda_k=int(cj["lambda_k"]),
                lambda_raw=mp.mpf(cj["lambda_raw"]),
                booster_count=int(cj["booster_count"]),
                w_b=_frac_from_json(cj["w_b"]),
                normalizer=_frac_from_json(cj["normalizer"]),
            )
            instance = EcmeInstance(
                weights=tuple(int(w) for w in obj["weights"]),
                tau=int(obj["tau"]),
                k=int(obj["k"]),
                heavy_probs=tuple(_frac_from_json(f) for f in obj["heavy_probs"]),
                booster_count=int(obj["booster_count"]),
                booster_prob=_frac_from_json(obj["booster_prob"]),
                beta=_frac_from_json(obj["beta"]),
                budget=mp.mpf(obj["budget"]),
                constants=constants,
            )
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedRecord(None, f"not a valid ECME object: {exc}") from exc
    # the deciders take logs of tau, w and w_b and divide by gcd(2B, tau)
    out_of_range = [name for name, ok in (
        ("tau", instance.tau >= 1),
        ("weights", all(w >= 1 for w in instance.weights)),
        ("booster_count", instance.booster_count >= 1),
        ("constants.w_b", instance.constants.w_b > 0),
    ) if not ok]
    if out_of_range:
        raise MalformedRecord(None, "not a valid ECME object: "
                              f"{', '.join(out_of_range)} must be positive")
    return instance
