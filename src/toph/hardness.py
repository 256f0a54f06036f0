"""Constructive reduction from cardinality-constrained subset sum (CCSS) to
the exact-mass entropy decision problem (ECME), with its decider.

CCSS: given positive integer weights w_1..w_m, a target tau >= 1 and a
cardinality 3 <= K <= m, do some K of the weights sum to exactly tau?
ECME: given a probability vector, a mass beta and a budget, does some subset
of mass exactly beta have renormalized entropy at most the budget?

The construction (``reduce_to_ecme``), with S = sum(w):
  - pad (``prepare``): M = max(2 tau, 2 S - tau) + 1, heavy weights
    w_i' = w_i + M and target tau' = tau + K M;
  - boosters: B = K items of weight tau'/(2K) each;
  - with W = sum(w') + tau'/2 the total weight: heavy item i has probability
    w_i'/W, a booster tau'/(2K W), beta = tau'/W, budget ln K + 1/(4K).

Proof, for every m >= K, every booster count b in 0..K and any positive
weights, those above tau included.  Take s heavy items I, of weight w_I
before the pad, and b boosters, with mass exactly beta, i.e. weight tau':
  (1) w_I + s M + b tau'/(2K) = tau + K M, so
      (K - s - b/2) M = w_I - tau + b tau/(2K).  The right side lies in
      [-tau, S - tau/2], strictly inside (-M/2, M/2) by the choice of M;
      the left side is a multiple of M/2.  Both are 0: b = 2j is even,
      s = K - j, and w_I = s tau/K.
  (2) The subset weighs tau', its heavy part s tau'/K, so with q the heavy
      weights renormalized over I, its entropy is
          H = ln K + (j/K) ln 2 - delta,  delta = (s/K) KL(q || uniform on s).
  (3) j = 0: s = K and w_I = tau, a CCSS solution; and every CCSS solution
      is such a subset.  Its entropy is ln K - delta <= ln K < budget.
  (4) j >= 1: the weights of I lie in (0, w_I] with mean tau/K, so their
      variance is at most (w_I - tau/K) tau/K = (s - 1)(tau/K)^2
      (Bhatia-Davis), and KL <= chi^2 = variance/(tau/K + M)^2.  So
      delta < (s/K)(s - 1) tau^2/(K M)^2 < tau^2/(K M^2), and
          H - ln K > (ln 2 - (tau/M)^2)/K > (ln 2 - 1/4)/K,
      as M > 2 tau: above the budget by more than (ln 2 - 1/2)/K.
So the ECME instance is YES exactly when the CCSS instance is.  (1) needs
M > 2 tau and M > 2 S - tau, and M is the least integer that meets both;
(4) needs only M > 1.51 tau.  The entropies in (3) and (4) lie at least
0.19/K from the budget, far beyond what 50 digits resolve.

The decider finds the heavy subsets whose weight a whole number of
boosters tops up to tau' (``_candidates``): by (1) only b = 0, weight
exactly tau' (structural mode), suffices; ``--mode full`` takes every
such deficit as a cross-check.  Each candidate comes with its entropy in
float64, h_float, within ``FLOAT_ENTROPY_ERROR`` = E of the exact value;
it is decided from h_float when that lies more than E from the budget, and
at 50 digits (``mixed_subset_entropy``) only inside that window.  By (3)
and (4) no candidate of a reduction output comes within 0.0069 of the
budget for K <= 28, so ``reduce`` -> ``decide`` never needs the 50 digits;
a hand-built ``EcmeInstance`` with a budget nearer than E to a subset's
entropy is still decided exactly.

An ``EcmeInstance`` keeps only what the reduction chose.  Every ECME file
is a ``reduce`` output, so ``ecme_from_json`` re-runs the reduction on the
file's weights, tau and K and refuses a file whose stored values differ.

Arithmetic discipline: weights and derived counts are arbitrary-precision
integers and probabilities are exact rationals.  Decisions are float64,
certified by E and the proof's gap, with 50 digits inside E.  The budget,
its text and its margins are evaluated at 50 significant digits in one
private mpmath context (``DEFAULT_DPS``), whatever the precision of
mpmath's global context and whatever another thread does with it; ln K
and the budget are computed there once per K.  The module's
high-precision numbers (``Mpf``) belong to that context.

The bound E.  With u = 2**-53, a candidate is s <= m <= 28 heavy weights
1 <= w < 2**62 (the enumerator's guard) and b <= K boosters of weight
w_b = tau/(2K), together weighing exactly tau (so tau < 2**63 and, as
the decider refuses K > 2**62, w_b >= 2**-63): every weight v has
|ln v| <= L = 44, and the entropy is h = ln tau - A/tau, A = sum v ln v,
with 0 <= h < L.  Each term v ln v is w * math.log(w) in float64: the
weight rounds once (relative u, so an absolute u in its log), libm's log
is within 1 ulp (2u relative) and the product and a float count of
boosters round once each, an error of at most v u (6 |ln v| + 1).  The
terms are summed in s additions, at most s u tau L more; A / tau rounds
tau and the quotient (2 u L), ln tau errs by u (1 + 2 L) and the final
subtraction by u L.  Together |h_float - h| <= u (39 L + 2) + O(u**2)
< 2e-13, and E is a hundred times that.  The float budget is within
u |budget| <= 45 u of the budget wherever the comparison is not settled
by 0 <= h < 44, so a decision from h_float is the exact one, and the
50-digit one, with more than 1e-11 to spare.
"""

from __future__ import annotations

import functools
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

from .errors import InvalidParameters, MalformedRecord, TooManyHeavyItems, WrongMass
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

#: Both decide modes find their candidate subsets by a meet in the middle
#: (tables of the low m - m // 2 items, looked up for every high mask); up
#: to this many items neither half passes BLOCK_BITS, so memory stays
#: O(2**BLOCK_BITS).
MAX_FULL_SPACE_ITEMS = 2 * BLOCK_BITS

#: E of the module docstring: a candidate's float64 entropy is within this
#: many nats of its exact entropy (a hundred times the derived bound).
FLOAT_ENTROPY_ERROR = 2e-11


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


@dataclass(frozen=True)
class EcmeInstance:
    """Reduction output: m padded heavy weights plus K boosters.

    Only the independent data are fields.  With W = sum(weights) + tau/2 the
    exact total weight, heavy item i has probability ``weights[i] / W`` and
    each of the B = K boosters ``w_b / W``, so the full vector sums to 1
    exactly; the mass target ``beta = tau / W`` corresponds to subsets of
    weight exactly tau.  ``weights`` and ``tau`` are padded by ``pad``
    (M): the CCSS instance is ``weights[i] - pad``, ``tau - k * pad``.
    The derived values appear only in the JSON form (``ecme_to_json``).
    """

    weights: tuple[int, ...]
    tau: int
    k: int
    pad: int
    budget: Mpf

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def booster_count(self) -> int:
        return self.k

    @property
    def w_b(self) -> Fraction:
        """Booster weight tau / (2K): the booster block weighs tau/2."""
        return Fraction(self.tau, 2 * self.k)


@dataclass(frozen=True)
class EcmeDecision:
    is_yes: bool
    witness: tuple[int, ...] | None            # heavy indices
    witness_boosters: int = 0                  # only the full-space mode finds others


# --- the reduction -----------------------------------------------------------

def prepare(instance: CcssInstance) -> CcssInstance:
    """The pad: every weight plus M = max(2 tau, 2 sum(w) - tau) + 1, the
    target plus K M.  A K-subset hits tau exactly when it hits the new target."""
    pad = max(2 * instance.tau, 2 * instance.total - instance.tau) + 1
    return CcssInstance(weights=tuple(w + pad for w in instance.weights),
                        tau=instance.tau + instance.k * pad, k=instance.k)


@functools.lru_cache(maxsize=64)
def _k_constants(k: int) -> tuple[Mpf, Mpf]:
    """ln K and the budget ln K + 1/(4K)."""
    ln_k = _CTX.log(k)
    return ln_k, ln_k + _CTX.mpf(1) / (4 * k)


def reduce_to_ecme(instance: CcssInstance) -> EcmeInstance:
    """Pad ``instance`` and add K boosters and the budget ln K + 1/(4K):
    the ECME instance of the module docstring, YES exactly when ``instance`` is."""
    padded = prepare(instance)
    k = instance.k
    return EcmeInstance(weights=padded.weights, tau=padded.tau, k=k,
                        pad=(padded.tau - instance.tau) // k, budget=_k_constants(k)[1])


def budget_margins(instance: EcmeInstance) -> dict[str, str]:
    """``lower_margin`` = budget - ln K and ``upper_margin`` = the proof's least
    booster overshoot above ln K, (ln 2 - (tau/M)^2)/K, less that margin, to
    8 significant digits, as ``reduce``'s manifest records them."""
    k = instance.k
    lower = instance.budget - _k_constants(k)[0]
    ratio = _CTX.mpf(instance.tau - k * instance.pad) / instance.pad
    upper = (_CTX.ln2 - ratio * ratio) / k - lower
    return {"lower_margin": _CTX.nstr(lower, 8), "upper_margin": _CTX.nstr(upper, 8)}


def _grouped_entropy(counts: dict[int, int], total: int) -> Mpf:
    """-sum c (w/T) ln(w/T) over weight w -> count c and total T, as
    terms c (w/T) (ln T - ln w) in the mapping's order."""
    ln_t = _CTX.log(total)
    h = _CTX.mpf(0)
    for w, c in counts.items():
        h += c * (_CTX.mpf(w) / total) * (ln_t - _CTX.log(w))
    return h


def subset_weight(instance: EcmeInstance, heavy_indices: Iterable[int]) -> int:
    return sum(instance.weights[i] for i in heavy_indices)


def mixed_subset_entropy(
    instance: EcmeInstance,
    heavy_indices: Sequence[int],
    booster_count: int,
) -> Mpf:
    """Entropy of a renormalized subset of heavy items plus b boosters.

    Every weight is scaled by 2K, which leaves the entropy as it is and
    makes the booster weight the integer tau.
    """
    if booster_count < 0 or booster_count > instance.booster_count:
        raise InvalidParameters("booster count out of range")
    scale = 2 * instance.k
    total = scale * subset_weight(instance, heavy_indices) + booster_count * instance.tau
    if total <= 0:
        raise WrongMass("subset carries no weight")
    counts = Counter(scale * instance.weights[i] for i in heavy_indices)
    if booster_count:
        counts[instance.tau] += booster_count
    return _grouped_entropy(counts, total)


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

def _candidates(instance: EcmeInstance, full: bool) -> Iterator[tuple[int, int, float]]:
    """(mask, booster count, float entropy) of the mass-exact subsets whose
    float entropy is within 1e-6 of the budget, by ascending mask:
    booster-free ones only unless ``full``.

    A heavy subset of weight S takes b boosters when its deficit tau - S is
    b tau/(2K) for a whole b in [0, K].  With g = gcd(2K, tau) that is a
    deficit j (tau // g) with b = j (2K // g), for 0 <= j <= g // 2, which
    ``_exact_sum_blocks`` finds; the empty mask (b = 2K) never qualifies.
    Every candidate renormalizes over total weight exactly tau, so its
    entropy is ln(tau) - (sum_{i in S} w ln w + b w_b ln(w_b)) / tau,
    computed vectorized in float64 with the ``w ln w`` sums added in
    ascending bit order: h_float, within ``FLOAT_ENTROPY_ERROR`` of the
    exact entropy (module docstring).  Every candidate that passes the
    screen goes on to ``decide_ecme_small`` with it.
    """
    tau, g = instance.tau, math.gcd(2 * instance.k, instance.tau)
    step, count, per_step = (tau // g, g // 2 + 1, 2 * instance.k // g) if full else (1, 1, 0)
    w_b = float(instance.w_b)
    limit = float(instance.budget) + 1e-6
    wlogw_column = np.asarray([w * math.log(w) for w in instance.weights])
    for masks, (sums, wlogw) in _exact_sum_blocks(instance.weights, wlogw_column, tau, step,
                                                  count):
        b_counts = (tau - sums) // step * per_step
        h_float = math.log(tau) - (wlogw + b_counts * (w_b * math.log(w_b))) / tau
        keep = h_float <= limit
        yield from zip(masks[keep].tolist(), b_counts[keep].tolist(), h_float[keep].tolist())


def decide_ecme_small(instance: EcmeInstance, mode: str = "structural") -> EcmeDecision:
    """Decide the constructed instance by search, for m up to ``MAX_FULL_SPACE_ITEMS``.

    Both modes take the mass-exact candidates of ``_candidates`` and answer
    with the first whose entropy is within the budget, the qualifying subset
    with the smallest mask (bit i = heavy item i), i.e. the
    colexicographically first: ``(1,)`` (mask 2) comes before ``(0, 5)``
    (mask 33).  A candidate's float entropy decides it when it lies more
    than ``FLOAT_ENTROPY_ERROR`` from the budget; only inside that window is
    its entropy computed at 50 digits (``mixed_subset_entropy``), so the
    answer is the one a 50-digit comparison of every candidate gives.
    ``structural`` mode takes the subsets of weight exactly tau, the only
    ones the proof admits; ``full`` mode cross-checks over every deficit a
    whole number of boosters fills.  K above 2**62, beyond the derivation
    of E and the int64 booster counts, is refused (a reduction output has
    K <= m <= ``MAX_FULL_SPACE_ITEMS``).
    """
    if mode not in ("structural", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if instance.m > MAX_FULL_SPACE_ITEMS:
        raise TooManyHeavyItems(
            f"m={instance.m} exceeds the full-space limit {MAX_FULL_SPACE_ITEMS}"
        )
    if instance.k > 2**62:
        raise InvalidParameters(f"K={instance.k} exceeds 2**62, the largest K E holds for")
    budget, error = float(instance.budget), FLOAT_ENTROPY_ERROR
    for mask, b, h_float in _candidates(instance, full=mode == "full"):
        if h_float > budget + error:
            continue
        subset = mask_indices(mask)
        if h_float < budget - error or mixed_subset_entropy(instance, subset, b) <= instance.budget:
            return EcmeDecision(is_yes=True, witness=subset, witness_boosters=b)
    return EcmeDecision(is_yes=False, witness=None)


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
    """The instance of a CCSS file; a field that ``ccss_to_json`` does not
    write is refused, as ``ecme_from_json`` refuses one."""
    try:
        if obj.get("kind") != "ccss":
            raise KeyError("kind")
        instance = CcssInstance(
            weights=_weights_from_json(obj["weights"]),
            tau=_int_from_json(obj["tau"], "tau"),
            k=_int_from_json(obj["k"], "k", strings=False),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(None, f"not a valid CCSS object: {exc}") from exc
    written = ccss_to_json(instance)
    stray = [f"{key} is not a CCSS field" for key in obj if key not in written]
    if stray:
        raise MalformedRecord(None, f"not a valid CCSS object: {'; '.join(stray)}")
    return instance


def ecme_to_json(instance: EcmeInstance) -> dict:
    """The JSON form of ``instance``: the CCSS instance it reduces, and the
    fields that it determines.  With d = 2W = 2 sum(w') + tau', twice the
    total weight: p_i = 2 w_i'/d, p_b = tau'/(K d), beta = 2 tau'/d."""
    tau, k, pad = instance.tau, instance.k, instance.pad
    d = 2 * sum(instance.weights) + tau
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ecme",
        "weights": [str(w - pad) for w in instance.weights],
        "tau": str(tau - k * pad),
        "k": k,
        "pad": str(pad),
        "heavy_probs": [_ratio_json(2 * w, d) for w in instance.weights],
        "booster_count": str(instance.booster_count),
        "booster_prob": _ratio_json(tau, k * d),
        "beta": _ratio_json(2 * tau, d),
        "budget": _CTX.nstr(instance.budget, DEFAULT_DPS - 5),
    }


def ecme_from_json(obj: dict) -> EcmeInstance:
    """The ``reduce_to_ecme`` output for the file's weights, tau and K.

    Every other number of an ECME file follows from those three, so the file
    is refused when they make no CCSS instance, when a stored value differs,
    as JSON, from what ``ecme_to_json`` writes for the result, and when it
    holds a field that the writer does not write; ``booster_count`` may be a
    JSON integer as well as a decimal string.
    """
    try:
        if obj.get("kind") != "ecme":
            raise KeyError("kind")
        booster_count = _int_from_json(obj["booster_count"], "booster_count")
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
    wrong = [f"{key} is not what weights, tau and k give" for key, value, expected in (
        ("booster_count", booster_count, instance.booster_count),
        *((key, obj.get(key), written[key])
          for key in ("pad", "heavy_probs", "booster_prob", "beta", "budget")),
    ) if not (value == expected and json.dumps(value) == json.dumps(expected))]
    wrong += [f"{key} is not an ECME field" for key in obj if key not in written]
    if wrong:
        raise MalformedRecord(None, f"not a valid ECME object: {'; '.join(wrong)}")
    return instance
