"""Constructive reduction from cardinality-constrained subset sum (CCSS) to
the entropy-constrained mass decision problem (ECME), with its deciders.

Pipeline: ``pad_to_narrow_range`` shifts every weight by the same constant
so that all weights below (K+2) tau/(K-1) land strictly inside
(tau/(K+1), tau/(K-1));
``scale_to_k20`` duplicates weights to force K >= 20 and re-pads;
``reduce_to_ecme`` turns the result into a probability vector consisting of
m "heavy" items (the weights) plus an implicitly stored block of B
identical low-probability "booster" items, together with an exact mass
target beta and a high-precision entropy budget.

An ``EcmeInstance`` keeps only what the reduction chose.  Every ECME file
is a ``reduce`` output, so ``ecme_from_json`` re-runs the reduction on the
file's weights, tau and K and refuses a file whose stored values differ: a
file that loads meets every precondition of the reduction.

Arithmetic discipline: weights and derived counts are arbitrary-precision
integers, probabilities are exact rationals, and only the transcendental
entropy/log terms are evaluated in high-precision floating point: one
private mpmath context at ``DEFAULT_DPS`` = 50 significant digits, whatever
the precision of mpmath's global context and whatever another thread does
with it.  The module's high-precision numbers (``Mpf``) belong to that
context.

Well-posedness note.  The analytic budget construction assumes the heavy
ratios w_i/tau form a near-uniform probability vector, which pins the heavy
item count to m = K.  With K >= 20 and the narrow range every ratio
r = w/tau lies in (1/(K+1), 1/(K-1)), below 1/e, where -r ln r increases:
m >= K+1 gives sum -r ln r > ln(K+1) (theta < 0) and m <= K-1 gives
sum -r ln r < ln(K-1) (theta > 1/K), so the theta bounds check in
``reduce_to_ecme`` rejects both.  Every ECME it emits has m == K, and its
one heavy K-subset is all of it: structural ``decide`` checks just that.
The cardinality lock needs no search either: s weights strictly inside
(tau/(K+1), tau/(K-1)) sum to strictly between s tau/(K+1) and s tau/(K-1),
so a booster-free subset of weight tau has K-1 < s < K+1, i.e. K, items.
Deficit instances (sum(w) < tau, i.e. NO instances of the m = K family)
pass through with the pseudo-entropy of the w_i/tau ratios, which stays
inside the theta window as long as the deficit is below ~20% of tau.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import mpmath
import numpy as np

from .errors import (
    BudgetOutsideWindow,
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

#: Every high-precision value here is computed in this context; ``Mpf`` is
#: its number type, named in this module so that pickle finds it.
_CTX = mpmath.MPContext()
_CTX.dps = DEFAULT_DPS
Mpf = _CTX.mpf
Mpf.__module__, Mpf.__qualname__ = __name__, "Mpf"

#: A margin this close to 0, or an exponent this close to an integer, is
#: too close to resolve at ``DEFAULT_DPS`` digits.
_UNRESOLVABLE = _CTX.mpf(10) ** (10 - DEFAULT_DPS)

#: Full-space cross-validation finds the exact-weight heavy subsets by a meet
#: in the middle (tables of the low m - m // 2 items, looked up for every high
#: mask): memory stays O(2**BLOCK_BITS), and this caps its 2**m time.
MAX_FULL_SPACE_ITEMS = 22

# Calibration constants of the booster-count exponent, taken verbatim as
# exact decimals.
_C_EPS = Fraction(384, 10000)     # 0.0384
_C_NUM = Fraction(7333, 10000)    # 0.7333
_C_DEN = Fraction(133, 1000)      # 0.133


def _mpf(x: Fraction) -> Mpf:
    return _CTX.mpf(x.numerator) / x.denominator


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
        return all(w * (self.k - 1) < self.tau < w * (self.k + 1) for w in self.weights)


def _gamma(k: int) -> Fraction:
    """gamma_K = 1 / (16 K^2), the entropy-gap constant."""
    return Fraction(1, 16 * k * k)


@dataclass(frozen=True)
class ReductionConstants:
    theta_k: Mpf               # ln K - H(w/tau), the uniformity deficit
    delta_k: Mpf               # 5 theta / (2 ln K)
    epsilon_k: Mpf             # (0.0384 + gamma_K) / ln K
    lambda_k: int              # ceil((0.7333 - eps + delta) / 0.133)
    lambda_raw: Mpf            # the same quantity before the ceiling


@dataclass(frozen=True)
class EcmeInstance:
    """Reduction output: m heavy items plus an implicit block of B boosters.

    Only the independent data are fields.  With W = sum(weights) + tau/2 the
    exact total weight, heavy item i has probability ``weights[i] / W`` and
    each booster ``w_b / W``, so the full vector sums to 1 exactly; the mass
    target ``beta = tau / W`` corresponds to subsets of weight exactly tau
    and equals 2/3 whenever sum(weights) == tau.  These derived values
    appear only in the JSON form (``ecme_to_json``).  Boosters are never
    materialized: their mass and entropy come from (B, w_b).
    """

    weights: tuple[int, ...]
    tau: int
    k: int
    booster_count: int         # B = K ** lambda_k
    budget: Mpf
    constants: ReductionConstants

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def w_b(self) -> Fraction:
        """Booster weight tau / (2B): the booster block weighs tau/2 whatever B is."""
        return Fraction(self.tau, 2 * self.booster_count)


@dataclass(frozen=True)
class WindowCheck:
    holds: bool
    lower_margin: Mpf   # budget - (ln K - gamma_K)
    upper_margin: Mpf   # ln(K+1) - budget

    @property
    def margins(self) -> dict[str, str]:
        """Both margins to 8 significant digits, as ``reduce``'s manifest records them."""
        return {"lower_margin": _CTX.nstr(self.lower_margin, 8),
                "upper_margin": _CTX.nstr(self.upper_margin, 8)}


@dataclass(frozen=True)
class EcmeDecision:
    is_yes: bool
    witness: tuple[int, ...] | None            # heavy indices
    witness_boosters: int = 0                  # only the full-space mode uses this


# --- instance preparation ---------------------------------------------------

def pad_to_narrow_range(instance: CcssInstance) -> CcssInstance:
    """Shift every weight by M = (K+1) tau; the K-subset sums are preserved.

    The padded instance (w_i + M; tau + K M; K) satisfies the narrow range
    exactly when (K-1) w_i < (K+2) tau for every weight (the lower bound
    always holds); a larger weight exceeds tau, so it is in no K-subset of
    weight tau.  A K-subset sums to tau in the original exactly when the
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

def _grouped_entropy(counts: dict[int | Mpf, int], total: int | Mpf) -> Mpf:
    """-sum c (w/T) ln(w/T) over weight w -> count c and total T (ints or ``Mpf``), as
    terms c (w/T) (ln T - ln w) in the mapping's order."""
    ln_t = _CTX.log(total)
    h = _CTX.mpf(0)
    for w, c in counts.items():
        h += c * (_CTX.mpf(w) / total) * (ln_t - _CTX.log(w))
    return h


def _theta_in_range(theta: Mpf, k: int) -> bool:
    """0 < theta < 1/(2K^2): the deficit window the budget construction needs."""
    return bool(0 < theta < _CTX.mpf(1) / (2 * k * k))


def _calibration(k: int, ln_k: Mpf, theta: Mpf) -> tuple[Mpf, Mpf, int, Mpf]:
    """delta_K, epsilon_K and the booster-count exponent (ceiled, raw) for
    budget coefficient K, ``ln_k`` = ln K and deficit theta; raises if the
    raw exponent is too close to an integer to ceil safely at ``DEFAULT_DPS``."""
    delta = 5 * theta / (2 * ln_k)
    eps = (_mpf(_C_EPS) + _mpf(_gamma(k))) / ln_k
    raw = (_mpf(_C_NUM) - eps + delta) / _mpf(_C_DEN)
    nearest = _CTX.nint(raw)
    if abs(raw - nearest) < _UNRESOLVABLE and raw != nearest:
        raise PrecisionInsufficient(
            f"lambda expression {raw} is too close to an integer to ceil safely")
    return delta, eps, int(_CTX.ceil(raw)), raw


def lambda_exponent(k: int, theta: Mpf) -> tuple[int, Mpf]:
    """Booster-count exponent (ceil value, raw value) for budget coefficient K
    and deficit theta, a number of any mpmath context (see ``_calibration``)."""
    return _calibration(k, _CTX.log(k), _CTX.convert(theta))[2:]


def reduce_to_ecme(instance: CcssInstance) -> EcmeInstance:
    """Map a narrow-range CCSS instance with K >= 20 to an ECME instance.

    The booster block has B = K**lambda identical items of weight
    tau/(2B), so the booster mass is exactly tau/2 regardless of B.  The
    entropy budget is computed analytically from the decomposition
    H = H_heavy + H_booster with

        H_heavy   = (2/3) (H(w/tau) + ln(2/3))
        H_booster = (1/3) (ln 3 + lambda_raw ln K)

    and budget = 0.4 * H.  The decision equivalence needs the budget inside
    (ln K - gamma_K, ln(K+1)): every weight-tau heavy K-subset (entropy
    <= ln K) is feasible, and any mass-beta subset containing boosters
    overshoots.  The pre-ceiling exponent puts it about 0.0018 ln K above
    ln K (the ceiled one would add up to (0.4/3) ln K more): inside for
    K = 20..117, past ln(K+1) from K = 118 on (``BudgetOutsideWindow``).
    """
    if instance.k < 20:
        raise KTooSmall(f"reduction requires K >= 20, got K={instance.k}")
    k, tau = instance.k, instance.tau
    for i, w in enumerate(instance.weights):  # the narrow range, naming the first weight out
        if not w * (k - 1) < tau < w * (k + 1):
            raise NarrowRangeViolated(
                f"weights must lie strictly inside (tau/(K+1), tau/(K-1)); weights[{i}]={w} is "
                f"outside ({Fraction(tau, k + 1)}, {Fraction(tau, k - 1)}); pad_to_narrow_range"
                " and scale_to_k20 leave a weight outside only for an input weight w with "
                "(K-1) w >= (K+2) tau, which is above tau and so in no K-subset of weight tau")
    ln_k = _CTX.log(k)
    pseudo_h = _grouped_entropy(Counter(instance.weights), tau)
    theta = ln_k - pseudo_h
    if not _theta_in_range(theta, k):
        raise ThetaOutOfBounds(
            f"theta={_CTX.nstr(theta, 8)} outside "
            f"(0, 1/(2K^2)={_CTX.nstr(_CTX.mpf(1) / (2 * k * k), 8)}); "
            "the construction needs near-uniform heavy ratios (m == K)"
        )
    delta, eps, lam, lam_raw = _calibration(k, ln_k, theta)
    h_heavy = Fraction(2, 3) * (pseudo_h + _CTX.log(_CTX.mpf(2) / 3))
    h_boost = Fraction(1, 3) * (_CTX.log(3) + lam_raw * ln_k)
    constants = ReductionConstants(theta_k=theta, delta_k=delta, epsilon_k=eps,
                                   lambda_k=lam, lambda_raw=lam_raw)
    ecme = EcmeInstance(weights=instance.weights, tau=tau, k=k, booster_count=k ** lam,
                        budget=Fraction(2, 5) * (h_heavy + h_boost), constants=constants)
    window = verify_budget_window(ecme)
    if not window.holds:
        raise BudgetOutsideWindow(f"budget outside the window (ln K - gamma_K, ln(K+1)) at K={k}: "
                                  + " ".join(f"{n}={v}" for n, v in window.margins.items()))
    return ecme


# --- the budget window -------------------------------------------------------

def verify_budget_window(instance: EcmeInstance) -> WindowCheck:
    """Check ln K - gamma_K < budget < ln(K+1) with explicit margins."""
    k, budget = instance.k, _CTX.convert(instance.budget)
    lower_margin = budget - (_CTX.log(k) - _mpf(_gamma(k)))
    upper_margin = _CTX.log(k + 1) - budget
    for margin in (lower_margin, upper_margin):
        if abs(margin) < _UNRESOLVABLE:
            raise PrecisionInsufficient(
                f"window margin {_CTX.nstr(margin, 5)} below resolvable scale at "
                f"{DEFAULT_DPS} digits"
            )
    return WindowCheck(holds=bool(lower_margin > 0 and upper_margin > 0),
                       lower_margin=lower_margin, upper_margin=upper_margin)


def subset_weight(instance: EcmeInstance, heavy_indices: Iterable[int]) -> int:
    return sum(instance.weights[i] for i in heavy_indices)


def mixed_subset_entropy(
    instance: EcmeInstance,
    heavy_indices: Sequence[int],
    booster_count: int,
) -> Mpf:
    """Entropy of a renormalized subset of heavy items plus b boosters.

    Booster contributions enter analytically as count * per-item term; the
    booster block itself is never expanded.
    """
    if booster_count < 0 or booster_count > instance.booster_count:
        raise InvalidParameters("booster count out of range")
    total = Fraction(subset_weight(instance, heavy_indices)) + booster_count * instance.w_b
    if total <= 0:
        raise WrongMass("subset carries no weight")
    counts = Counter(instance.weights[i] for i in heavy_indices)
    if booster_count:
        counts[_mpf(instance.w_b)] += booster_count
    return _grouped_entropy(counts, _mpf(total))


def _exact_sum_blocks(
    weights: Sequence[int], column: np.ndarray, target: int, step: int, count: int,
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """``key_range_subsets`` of the masks whose weight is ``target - j * step``
    for a j in ``range(count)``, with the sums of ``column`` alongside.

    Meet in the middle: the low m - m // 2 items (at most ``BLOCK_BITS``)
    are keyed by their weight as (sum mod step, sum // step).  A high mask
    of weight s needs low weights congruent to target - s mod step whose
    quotient lies in a window of ``count`` values: one key range, empty when
    the window misses every low quotient.  Weights are summed in int64, so
    sum(|w|) must stay below 2**62 (else ``TooManyHeavyItems``), and every
    target must fit int64.
    """
    if sum(abs(w) for w in weights) >= 2**62:
        raise TooManyHeavyItems("weights too large for the vectorized enumerator")
    columns = (np.asarray(weights, dtype=np.int64), column)
    m = len(weights)
    k = min(m - m // 2, BLOCK_BITS)
    low = [subset_sums(c[:k]) for c in columns]
    quot, rem = np.divmod(low[0], step)
    base = int(quot.min())
    span = int(quot.max()) - base + 1
    # keys < step * span <= (max - min low sum) + step, in int64 under the
    # 2**62 guard
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
    go on to the high-precision confirmation.  The booster counts are
    computed in int64, so 2 B tau must stay below 2**62.
    """
    tau, big_b = instance.tau, instance.booster_count
    if 2 * big_b * tau >= 2**62:
        raise TooManyHeavyItems("booster count too large for the vectorized screen")
    w_b = float(instance.w_b)
    limit = float(instance.budget) + 1e-6
    step = tau // math.gcd(2 * big_b, tau)
    wlogw_column = np.asarray([w * math.log(w) for w in instance.weights])
    for masks, (sums, wlogw) in _exact_sum_blocks(instance.weights, wlogw_column, tau, step,
                                                  tau // (2 * step) + 1):
        b_counts = 2 * big_b * (tau - sums) // tau
        h_float = math.log(tau) - (wlogw + b_counts * (w_b * math.log(w_b))) / tau
        yield from masks[h_float <= limit].tolist()


def decide_ecme_small(instance: EcmeInstance, mode: str = "structural") -> EcmeDecision:
    """Decide the constructed instance.

    ``structural`` mode applies the structural facts (booster-containing
    mass-beta subsets overshoot the budget; booster-free ones must have
    exactly K items of total weight tau) to an m == K instance, as every
    ``reduce_to_ecme`` output is, and raises ``WrongCardinality`` otherwise.
    Its one K-subset ``range(m)`` is checked directly (weight == tau, which
    makes its mass exactly beta, and entropy <= budget at 50 digits) and is
    the witness.
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
                and mixed_subset_entropy(instance, subset, 0) <= instance.budget):
            return EcmeDecision(is_yes=True, witness=subset)
        return EcmeDecision(is_yes=False, witness=None)
    if mode == "full":
        if instance.m > MAX_FULL_SPACE_ITEMS:
            raise TooManyHeavyItems(
                f"m={instance.m} exceeds the full-space limit {MAX_FULL_SPACE_ITEMS}"
            )
        tau, big_b = instance.tau, instance.booster_count
        for mask in _full_space_candidates(instance):
            subset = mask_indices(mask)
            b = 2 * big_b * (tau - subset_weight(instance, subset)) // tau
            if mixed_subset_entropy(instance, subset, b) <= instance.budget:
                return EcmeDecision(is_yes=True, witness=subset, witness_boosters=b)
        return EcmeDecision(is_yes=False, witness=None)
    raise ValueError(f"unknown mode {mode!r}")


def brute_force_ccss(instance: CcssInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Independent CCSS oracle: enumerate K-subsets with exact integer sums."""
    for subset in combinations(range(instance.m), instance.k):
        if sum(instance.weights[i] for i in subset) == instance.tau:
            return True, subset
    return False, None


# --- JSON serialization -------------------------------------------------------

_DECIMAL = re.compile(r"-?[0-9]+")


def _int_from_json(value, name: str, strings: bool = True) -> int:
    """``value`` as an integer: a JSON integer or, where ``strings``, a decimal
    string, as the writers write them.  A bool, a float or any other string
    raises ``ValueError`` naming the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if strings and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    kinds = "a decimal string or a JSON integer" if strings else "a JSON integer"
    raise ValueError(f"{name} must be {kinds}, got {value!r}")


def _weights_from_json(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"weights must be a list, got {type(value).__name__}")
    return tuple(_int_from_json(w, f"weights[{i}]") for i, w in enumerate(value))


def _ratio_json(num: int, den: int) -> dict:
    """The JSON form of the rational num/den (den > 0), in lowest terms."""
    g = math.gcd(num, den)
    return {"num": str(num // g), "den": str(den // g)}


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
            weights=_weights_from_json(obj["weights"]),
            tau=_int_from_json(obj["tau"], "tau"),
            k=_int_from_json(obj["k"], "k", strings=False),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"not a valid CCSS object: {exc}") from exc


def ecme_to_json(instance: EcmeInstance) -> dict:
    """The JSON form of ``instance``, with the fields that the weights, tau, K and B
    determine.  With d = 2W = 2 sum(w) + tau, twice the total weight:
    p_i = w_i/W = 2 w_i/d, p_b = w_b/W = tau/(B d), beta = tau/W = 2 tau/d."""
    c = instance.constants
    tau, big_b = instance.tau, instance.booster_count
    d = 2 * sum(instance.weights) + tau
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ecme",
        "weights": [str(w) for w in instance.weights],
        "tau": str(tau),
        "k": instance.k,
        "heavy_probs": [_ratio_json(2 * w, d) for w in instance.weights],
        "booster_count": str(big_b),
        "booster_prob": _ratio_json(tau, big_b * d),
        "beta": _ratio_json(2 * tau, d),
        "budget": _CTX.nstr(instance.budget, DEFAULT_DPS - 5),
        "constants": {
            "gamma_k": _ratio_json(*_gamma(instance.k).as_integer_ratio()),
            "theta_k": _CTX.nstr(c.theta_k, DEFAULT_DPS - 5),
            "delta_k": _CTX.nstr(c.delta_k, DEFAULT_DPS - 5),
            "epsilon_k": _CTX.nstr(c.epsilon_k, DEFAULT_DPS - 5),
            "lambda_k": c.lambda_k,
            "lambda_raw": _CTX.nstr(c.lambda_raw, DEFAULT_DPS - 5),
            "booster_count": str(big_b),
            "w_b": _ratio_json(tau, 2 * big_b),
            "normalizer": _ratio_json(d, 2),
        },
    }


def ecme_from_json(obj: dict) -> EcmeInstance:
    """The ``reduce_to_ecme`` output for the file's (prepared) weights, tau and K.

    Every other number of an ECME file follows from those three, so the file
    is refused when the reduction refuses them, and when a stored value
    differs, as JSON, from what ``ecme_to_json`` writes for the result;
    ``booster_count`` may be a JSON integer as well as a decimal string.
    """
    try:
        if obj.get("kind") != "ecme":
            raise KeyError("kind")
        booster_count = _int_from_json(obj["booster_count"], "booster_count")
        constants = obj["constants"]
        if not isinstance(constants, dict):
            raise TypeError(f"constants must be an object, got {type(constants).__name__}")
        # the reduction's own refusals (K < 20, narrow range, theta window) are
        # TophErrors, hence ValueErrors
        instance = reduce_to_ecme(CcssInstance(
            weights=_weights_from_json(obj["weights"]),
            tau=_int_from_json(obj["tau"], "tau"),
            k=_int_from_json(obj["k"], "k", strings=False),
        ))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"not a valid ECME object: {exc}") from exc
    written = ecme_to_json(instance)
    # equal as JSON text, where 6.0 and true are not 6; == goes first, so a
    # deeply nested value never reaches the encoder
    wrong = [f"{path} is not what weights, tau and k give" for path, value, expected in (
        ("booster_count", booster_count, instance.booster_count),
        *((key, obj.get(key), written[key])
          for key in ("heavy_probs", "booster_prob", "beta", "budget")),
        *((f"constants.{key}", constants.get(key), expected)
          for key, expected in written["constants"].items()),
    ) if not (value == expected and json.dumps(value) == json.dumps(expected))]
    if wrong:
        raise MalformedRecord(None, f"not a valid ECME object: {'; '.join(wrong)}")
    return instance
