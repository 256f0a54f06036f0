"""Unit tests for the subset-sum reduction pipeline and its decider."""

import json
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph.errors import InvalidParameters, MalformedRecord, TooManyHeavyItems, WrongMass
from toph.hardness import (
    CcssInstance,
    brute_force_ccss,
    budget_margins,
    ccss_from_json,
    ccss_to_json,
    decide_ecme_small,
    ecme_from_json,
    ecme_to_json,
    mixed_subset_entropy,
    prepare,
    reduce_to_ecme,
)
from toph import hardness, oracle
from toph.oracle import subset_sums
from toph.synthgen import SCHEMA_VERSION

from ecmm_reference import reference_decide_full, reference_full_candidates

YES = CcssInstance((3, 5, 7), 15, 3)    # 3 + 5 + 7 == 15
NO = CcssInstance((3, 5, 7), 16, 3)     # no 3-subset reaches 16

# m == K with weights 763 and 837, ten of each; tau = 10*763 + 10*837
SPREAD = CcssInstance(tuple([763] * 10 + [837] * 10), 16000, 20)


@pytest.fixture(scope="module")
def ecme_yes():
    return reduce_to_ecme(YES)


@pytest.fixture(scope="module")
def ecme_no():
    return reduce_to_ecme(NO)


@pytest.fixture(scope="module")
def ecme_spread():
    return reduce_to_ecme(SPREAD)


def _derived(instance):
    """The derived fields of ``instance``'s JSON form, rationals as ``Fraction``."""
    obj = ecme_to_json(instance)

    def frac(f):
        return Fraction(int(f["num"]), int(f["den"]))

    return {"heavy_probs": [frac(f) for f in obj["heavy_probs"]],
            "booster_prob": frac(obj["booster_prob"]), "beta": frac(obj["beta"]),
            "booster_count": int(obj["booster_count"]), "pad": int(obj["pad"])}


def _entropy(probs):
    """-sum p ln p at 50 digits, from exact rationals."""
    with mp.workdps(50):
        return -mp.fsum(mp.mpf(p.numerator) / p.denominator
                        * mp.log(mp.mpf(p.numerator) / p.denominator) for p in probs)


class TestPadding:
    def test_hand_example(self):
        padded = prepare(YES)
        # M = max(2 * 15, 2 * 15 - 15) + 1 = 31
        assert padded.weights == (34, 36, 38)
        assert padded.tau == 15 + 3 * 31 == 108

    def test_unconditional(self):
        # a balanced instance is still shifted, by M = 2 * 16000 + 1
        padded = prepare(SPREAD)
        assert padded.weights == tuple([763 + 32001] * 10 + [837 + 32001] * 10)

    def test_feasibility_preserved_both_directions(self):
        padded = prepare(YES)
        assert sum(padded.weights) == padded.tau  # the full triple still works
        yes, witness = brute_force_ccss(padded)
        assert yes and witness == (0, 1, 2)
        padded_no = prepare(NO)
        assert brute_force_ccss(padded_no)[0] is False

    def test_all_subset_sums_transfer(self):
        # exact equivalence: a K-subset hits tau iff the padded one hits tau'
        inst = CcssInstance((2, 9, 4, 6, 5), 15, 3)
        padded = prepare(inst)

        for subset in combinations(range(5), 3):
            before = sum(inst.weights[i] for i in subset) == inst.tau
            after = sum(padded.weights[i] for i in subset) == padded.tau
            assert before == after

    @pytest.mark.parametrize("weights, tau, pad", [
        ((3, 5, 7), 15, 31),            # 2 tau = 30 > 2 S - tau = 15
        ((30, 50, 70, 1), 15, 288),     # 2 S - tau = 287 > 2 tau = 30
        ((1, 1, 1), 100, 201),          # tau above every sum
    ], ids=["two-tau", "two-sums", "tau-above-every-sum"])
    def test_pad_is_the_least_the_proof_allows(self, weights, tau, pad):
        # step (1) needs M > 2 tau and M > 2 S - tau; M is the least such integer
        instance = CcssInstance(weights, tau, 3)
        ecme = reduce_to_ecme(instance)
        assert ecme.pad == pad == max(2 * tau, 2 * sum(weights) - tau) + 1
        assert prepare(instance).weights == tuple(w + pad for w in weights)


class TestReduce:
    def test_constants_at_k20(self, ecme_spread):
        # B = K boosters of weight tau'/(2K); budget ln K + 1/(4K)
        assert ecme_spread.booster_count == _derived(ecme_spread)["booster_count"] == 20
        assert ecme_spread.w_b == Fraction(ecme_spread.tau, 40)
        with mp.workdps(60):
            assert abs(ecme_spread.budget - mp.log(20) - mp.mpf(1) / 80) < mp.mpf("1e-48")

    def test_pipeline_yes_instance(self, ecme_yes):
        assert ecme_yes.k == 3
        assert ecme_yes.m == 3
        assert sum(ecme_yes.weights) == ecme_yes.tau

    def test_mass_identity_exact(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            d = _derived(inst)
            assert sum(d["heavy_probs"]) + inst.booster_count * d["booster_prob"] == 1

    def test_balanced_instance_constants(self, ecme_yes):
        # when sum(w) == tau and m == K the construction's round numbers hold exactly
        d = _derived(ecme_yes)
        assert d["beta"] == Fraction(2, 3)
        assert d["booster_prob"] == Fraction(1, 3 * ecme_yes.booster_count)

    def test_deficit_instance_nearby_rationals(self, ecme_no):
        assert sum(ecme_no.weights) == ecme_no.tau - 1
        beta = _derived(ecme_no)["beta"]
        assert beta != Fraction(2, 3)
        assert abs(beta - Fraction(2, 3)) < Fraction(1, 100)

    def test_mass_split_exact_on_balanced_instance(self, ecme_yes):
        d = _derived(ecme_yes)
        assert sum(d["heavy_probs"]) == d["beta"] == Fraction(2, 3)
        assert ecme_yes.booster_count * d["booster_prob"] == Fraction(1, 3)

    def test_booster_block_weight(self, ecme_yes):
        assert 2 * ecme_yes.booster_count * ecme_yes.w_b == ecme_yes.tau
        d = _derived(ecme_yes)
        assert d["booster_prob"] == ecme_yes.w_b / (sum(ecme_yes.weights) + ecme_yes.w_b * 3)

    @pytest.mark.parametrize("weights, tau, k", [
        ((3, 5, 7, 9), 15, 3),                   # m > K
        ((5,) * 20, 100, 20),                    # equal weights: entropy exactly ln K
        ((100000, 1, 1, 1), 3, 3),               # a weight far above tau
        ((24,) + (1,) * 20, 20, 20),             # the same at K = 20
        ((1000,) * 120, 120000, 120),            # K far past 20
    ], ids=["m-above-k", "equal-weights", "k3-above-tau", "k20-above-tau", "k120"])
    def test_every_instance_reduces(self, weights, tau, k):
        # no CCSS instance is refused: m > K, K < 20, K > 117 and weights above tau reduce
        ccss = CcssInstance(weights, tau, k)
        ecme = reduce_to_ecme(ccss)
        assert (ecme.m, ecme.k, ecme.booster_count) == (len(weights), k, k)
        if ecme.m <= hardness.MAX_FULL_SPACE_ITEMS:
            assert decide_ecme_small(ecme).is_yes is brute_force_ccss(ccss)[0] is True


class TestBudgetWindow:
    def test_positive_margins(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            margins = {name: mp.mpf(value) for name, value in budget_margins(inst).items()}
            assert margins["lower_margin"] > 0
            assert margins["upper_margin"] > 0

    def test_budget_sits_above_ln_k(self, ecme_yes):
        # the decision equivalence needs ln K < budget < ln(K+1)
        with mp.workdps(50):
            assert mp.log(ecme_yes.k) < ecme_yes.budget < mp.log(ecme_yes.k + 1)

    def test_corrupted_budget_fails(self, ecme_yes):
        import dataclasses

        with mp.workdps(50):
            corrupted = dataclasses.replace(
                ecme_yes, budget=mp.log(ecme_yes.k) + 1
            )
        margins = budget_margins(corrupted)
        assert mp.mpf(margins["upper_margin"]) < 0
        assert mp.mpf(margins["lower_margin"]) > 0

    def test_margins_of_the_yes_instance(self, ecme_yes):
        # lower: 1/(4K) = 1/12; upper: (ln 2 - (15/31)^2)/3 - 1/12
        with mp.workdps(50):
            upper = (mp.log(2) - (mp.mpf(15) / 31) ** 2) / 3 - mp.mpf(1) / 12
        assert budget_margins(ecme_yes) == {"lower_margin": "0.083333333",
                                            "upper_margin": mp.nstr(upper, 8)}


def _heavy_entropy(instance):
    """Entropy of the heavy set of an m == K instance, no boosters."""
    return mixed_subset_entropy(instance, tuple(range(instance.m)), 0)


def _gap_bound(instance):
    """ln K - gamma_K, the entropy-gap bound, at 50 digits."""
    return mp.log(instance.k) - mp.mpf(1) / (16 * instance.k ** 2)


class TestEntropyGap:
    def test_holds_on_spread_instance(self, ecme_spread):
        # a booster-free subset of weight tau' has entropy at most ln K
        with mp.workdps(50):
            assert _heavy_entropy(ecme_spread) <= mp.log(ecme_spread.k)

    def test_fails_on_near_uniform_padded_instance(self, ecme_yes):
        # padding drives the heavy ratios to uniformity, so the gap bound
        # ln K - gamma_K is exceeded; feasibility of this subset instead
        # follows from budget > ln K (checked above)
        with mp.workdps(50):
            assert _heavy_entropy(ecme_yes) > _gap_bound(ecme_yes)
            assert _heavy_entropy(ecme_yes) <= ecme_yes.budget


def _backfilled(instance, dropped):
    """The heavy set less the items ``dropped``, and the booster count that
    tops its weight up to tau (a ``Fraction``: whole only if one exists)."""
    kept = tuple(i for i in range(instance.m) if i not in dropped)
    deficit = instance.tau - sum(instance.weights[i] for i in kept)
    return kept, Fraction(2 * instance.k * deficit, instance.tau)


class TestBoosterBlowup:
    """Mass-beta subsets that contain boosters overshoot the budget."""

    def test_replacing_one_heavy_item(self, ecme_yes):
        # 3 + 7 = 2 tau/K: two boosters (j = 1) take the 5's place
        kept, b = _backfilled(ecme_yes, (1,))
        assert b == 2
        assert mixed_subset_entropy(ecme_yes, kept, 2) > ecme_yes.budget

    def test_replacing_two_heavy_items(self, ecme_spread):
        # a 763 and an 837 leave 18 items of mean tau/K: four boosters fill them
        kept, b = _backfilled(ecme_spread, (0, 10))
        assert b == 4
        assert mixed_subset_entropy(ecme_spread, kept, 4) > ecme_spread.budget

    @pytest.mark.parametrize("heavy, boosters, error", [
        ((0,), -1, InvalidParameters),
        ((0,), 4, InvalidParameters),
        ((), 0, WrongMass),
    ], ids=["negative-boosters", "too-many-boosters", "empty-subset"])
    def test_refused_subsets(self, ecme_yes, heavy, boosters, error):
        assert ecme_yes.booster_count == 3
        with pytest.raises(error):
            mixed_subset_entropy(ecme_yes, heavy, boosters)

    def test_entropy_well_above_budget(self, ecme_spread):
        kept, b = _backfilled(ecme_spread, (0, 10))
        h = mixed_subset_entropy(ecme_spread, kept, int(b))
        # j = 2 booster pairs: about (2/K) ln 2 over ln K, not a borderline effect
        with mp.workdps(50):
            assert h - ecme_spread.budget > (mp.log(2) - mp.mpf(1) / 2) / ecme_spread.k
            assert abs(h - mp.log(20) - mp.log(2) / 10) < mp.mpf("1e-4")


def _mass_exact_subsets(ecme):
    """(heavy indices, boosters) of every subset of mass exactly beta, by brute force."""
    k, tau = ecme.k, ecme.tau
    for r in range(1, ecme.m + 1):
        for subset in combinations(range(ecme.m), r):
            for b in range(k + 1):
                if 2 * k * sum(ecme.weights[i] for i in subset) + b * tau == 2 * k * tau:
                    yield subset, b


def _planted(data):
    """A CCSS instance with, often, a mass-exact booster subset: s = K - j of
    its weights (before any outlier) have mean tau/K."""
    k = data.draw(st.integers(3, 6))
    m = data.draw(st.integers(k, 9))
    t = data.draw(st.integers(2, 25))
    weights = data.draw(st.lists(st.integers(1, 2 * t), min_size=m, max_size=m))
    s = k - data.draw(st.integers(1, k // 2))
    head = weights[: s - 1]
    if s * t - sum(head) >= 1:
        weights[s - 1] = s * t - sum(head)
    if data.draw(st.booleans()):
        weights[-1] *= data.draw(st.integers(10, 80))  # far above tau
    return CcssInstance(tuple(weights), k * t, k)


class TestProof:
    """The module docstring's proof, checked on instances at 50 digits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_overshoot_bound(self, data):
        # every mass-exact subset: b = 2j even, s = K - j heavy items of
        # weight s tau/K; j = 0 stays within ln K, j >= 1 overshoots ln K by
        # more than (ln 2 - (tau/M)^2)/K, and so the budget
        ccss = _planted(data)
        ecme = reduce_to_ecme(ccss)
        k, pad = ccss.k, ecme.pad
        with mp.workdps(50):
            ln_k = mp.log(k)
            bound = (mp.log(2) - (mp.mpf(ccss.tau) / pad) ** 2) / k
            for subset, b in _mass_exact_subsets(ecme):
                weight = sum(ccss.weights[i] for i in subset)
                assert b % 2 == 0 and len(subset) == k - b // 2
                assert weight * k == len(subset) * ccss.tau
                probs = [Fraction(ecme.weights[i], ecme.tau) for i in subset]
                h = _entropy(probs + [Fraction(1, 2 * k)] * b)
                assert sum(probs) + Fraction(b, 2 * k) == 1
                if b == 0:
                    assert h <= ln_k < ecme.budget
                else:
                    assert h - ln_k > bound > ecme.budget - ln_k

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_both_modes_decide_planted_instances(self, data):
        ccss = _planted(data)
        ecme = reduce_to_ecme(ccss)
        expected = brute_force_ccss(ccss)[0]
        for mode in ("structural", "full"):
            decision = decide_ecme_small(ecme, mode=mode)
            assert decision.is_yes is expected
            assert decision == reference_decide_full(ecme, mode == "full")


def _sizes_at(weights, tau):
    """The sizes of the subsets of weight ``tau``, found by ``_exact_sum_blocks``."""
    blocks = hardness._exact_sum_blocks(weights, np.ones(len(weights), dtype=np.int64), tau, 1, 1)
    return np.concatenate([np.empty(0, dtype=np.int64)] + [sizes for _, (_, sizes) in blocks])


class TestCardinalityLock:
    """Step (1) of the proof without boosters: after the pad, every subset of
    weight tau' has K items, as in a narrow range (tau/(K+1), tau/(K-1)).
    ``_exact_sum_blocks`` finds the subsets."""

    def test_on_reduction_output(self, ecme_yes):
        sizes = _sizes_at(ecme_yes.weights, ecme_yes.tau)
        assert sizes.size > 0 and np.all(sizes == ecme_yes.k)

    def test_on_hand_built_narrow_family(self):
        # 21 weights strictly inside (2010/21, 2010/19): the three subsets
        # that leave out one of the three 96s weigh 2010, with 20 elements each
        sizes = _sizes_at([96 + (i % 10) for i in range(21)], 2010)
        assert sizes.tolist() == [20] * 3

    def test_detects_violation_without_narrow_range(self):
        # unpadded: {4, 8} and {2, 4, 6} both reach 12, so no single
        # cardinality is locked in; the pad leaves the 3-subsets alone
        assert set(_sizes_at([2, 4, 6, 8, 10], 12).tolist()) == {2, 3}
        padded = prepare(CcssInstance((2, 4, 6, 8, 10), 12, 3))
        assert _sizes_at(list(padded.weights), padded.tau).tolist() == [3]

    def test_int64_overflow_guard(self):
        with pytest.raises(TooManyHeavyItems, match="weights too large"):
            hardness._exact_sum_blocks([2**61, 2**61, 3], np.ones(3, dtype=np.int64), 3, 1, 1)

    def test_int64_guard_bounds_absolute_weights(self):
        # sum(w) is small here, sum(|w|) is not: refused before int64 overflows
        with pytest.raises(TooManyHeavyItems, match="weights too large"):
            hardness._exact_sum_blocks([-2**70, 5, 6], np.ones(3, dtype=np.int64), 11, 1, 1)

    def test_no_subset_reaches_tau(self):
        assert _sizes_at([3, 5, 7], 16).size == 0
        assert _sizes_at([-3, 5], -4).size == 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_narrow_range_locks_the_cardinality(self, data):
        # weights within base / (2K + 2) of a base, tau the sum of K of them:
        # the narrow range holds, and the full tables find only K-item hits
        m = data.draw(st.integers(3, 14))
        k = data.draw(st.integers(2, m))
        base = data.draw(st.integers(2 * k + 2, 2000))
        spread = base // (2 * k + 2)
        weights = data.draw(st.lists(st.integers(base - spread, base + spread),
                                     min_size=m, max_size=m))
        tau = sum(data.draw(st.permutations(weights))[:k])
        assert all(Fraction(tau, k + 1) < w < Fraction(tau, k - 1) for w in weights)
        sums = subset_sums(np.asarray(weights, dtype=np.int64))
        sizes = subset_sums(np.ones(m, dtype=np.int64))[sums == tau]
        assert sizes.size > 0 and np.all(sizes == k)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pad_locks_the_cardinality(self, data):
        # any weights, tau any K-subset sum or not: the full tables find only
        # K-item subsets of weight tau' after the pad
        m = data.draw(st.integers(3, 12))
        k = data.draw(st.integers(3, m))
        weights = data.draw(st.lists(st.integers(1, 300), min_size=m, max_size=m))
        tau = data.draw(st.integers(1, 3 * sum(weights)))
        padded = prepare(CcssInstance(tuple(weights), tau, k))
        sums = subset_sums(np.asarray(padded.weights, dtype=np.int64))
        sizes = subset_sums(np.ones(m, dtype=np.int64))[sums == padded.tau]
        assert np.all(sizes == k)


class TestDecide:
    def test_yes_pipeline(self, ecme_yes):
        decision = decide_ecme_small(ecme_yes)
        assert decision.is_yes
        assert decision.witness is not None
        assert sum(ecme_yes.weights[i] for i in decision.witness) == ecme_yes.tau

    def test_no_pipeline(self, ecme_no):
        assert not decide_ecme_small(ecme_no).is_yes

    def test_matches_ccss_brute_force(self, ecme_yes, ecme_no):
        assert decide_ecme_small(ecme_yes).is_yes == brute_force_ccss(YES)[0]
        assert decide_ecme_small(ecme_no).is_yes == brute_force_ccss(NO)[0]

    def test_full_space_mode_agrees(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            structural = decide_ecme_small(inst, mode="structural")
            full = decide_ecme_small(inst, mode="full")
            assert structural.is_yes == full.is_yes
            if full.is_yes:
                assert full.witness_boosters == 0  # boosters never help

    def test_witness_is_lexicographically_first(self, ecme_yes):
        assert decide_ecme_small(ecme_yes).witness == (0, 1, 2)

    def test_too_many_items(self):
        # m > K: both modes search the K-subsets; the witness has the smallest mask
        ecme = reduce_to_ecme(CcssInstance((9, 4, 12, 7, 3, 15, 6), 22, 3))
        for mode in ("structural", "full"):
            assert decide_ecme_small(ecme, mode=mode).witness == (2, 3, 4)  # 12 + 7 + 3
        assert brute_force_ccss(CcssInstance((9, 4, 12, 7, 3, 15, 6), 22, 3))[1] == (0, 3, 6)

    def test_too_few_items(self, ecme_yes):
        # a hand-built instance with fewer heavy items than K reaches no
        # subset of weight tau: both modes answer NO, as the full tables do
        few = _with_heavy_count(ecme_yes, 2)
        for full in (False, True):
            decision = decide_ecme_small(few, mode="full" if full else "structural")
            assert decision == reference_decide_full(few, full)
            assert not decision.is_yes

    @pytest.mark.parametrize("offset,is_yes", [("1e-12", True), ("-1e-12", False)])
    def test_budget_at_witness_entropy(self, ecme_yes, offset, is_yes):
        # weight and mass match; the 50-digit entropy comparison decides
        import dataclasses

        h = mixed_subset_entropy(ecme_yes, tuple(range(ecme_yes.m)), 0)
        with mp.workdps(50):
            shifted = dataclasses.replace(ecme_yes, budget=h + mp.mpf(offset))
        assert decide_ecme_small(shifted).is_yes is is_yes

    def test_full_mode_int64_overflow_guards(self, ecme_yes):
        import dataclasses

        huge_weights = dataclasses.replace(ecme_yes, weights=(2**61, 2**61, 3))
        for mode in ("structural", "full"):
            with pytest.raises(TooManyHeavyItems, match="weights too large"):
                decide_ecme_small(huge_weights, mode=mode)

    def test_limit_applies_to_both_modes(self):
        m = hardness.MAX_FULL_SPACE_ITEMS + 1
        ecme = reduce_to_ecme(CcssInstance(tuple(range(1, m + 1)), m, 3))
        for mode in ("structural", "full"):
            with pytest.raises(TooManyHeavyItems, match=f"m={m} exceeds the full-space limit"):
                decide_ecme_small(ecme, mode=mode)


def _with_heavy_count(instance, m):
    """``instance`` with its heavy items cut or repeated to m of them."""
    import dataclasses

    return dataclasses.replace(instance, weights=(instance.weights * 2)[:m])


def _m_equals_k(k, seed, deficit):
    rng = random.Random(seed)
    weights = tuple(rng.randint(770, 830) if k == 20 else rng.randint(1, 100) for _ in range(k))
    return CcssInstance(weights, sum(weights) + deficit, k)


# YES (tau == sum(w)) and deficit-NO (tau above it) instances with m == K
FULL_MODE_CASES = [
    _m_equals_k(20, 1, 0),
    _m_equals_k(20, 2, 0),
    _m_equals_k(20, 3, 57),
    _m_equals_k(20, 4, 399),
    _m_equals_k(4, 5, 0),
    _m_equals_k(4, 6, 9),
    _m_equals_k(5, 7, 0),
    _m_equals_k(10, 8, 0),
    _m_equals_k(10, 9, 31),
]


def _candidate_masks(instance, full=True):
    return [mask for mask, _ in hardness._candidates(instance, full)]


class TestFullModeAgainstFullTables:
    """Block-wise full-mode decide against the full-table reference."""

    @pytest.mark.parametrize("ccss", FULL_MODE_CASES, ids=lambda c: f"K{c.k}-{c.tau - c.total}")
    def test_matches_reference_and_ccss(self, ccss):
        ecme = reduce_to_ecme(ccss)
        assert ecme.m == ecme.k == ccss.k
        assert _candidate_masks(ecme) == reference_full_candidates(ecme)
        decision = decide_ecme_small(ecme, mode="full")
        assert decision == reference_decide_full(ecme)
        assert decision.is_yes == brute_force_ccss(ccss)[0]
        assert decision.is_yes == (ccss.tau == ccss.total)

    @pytest.mark.parametrize("offset,is_yes", [("1e-12", True), ("-1e-12", False)])
    def test_budget_at_witness_entropy(self, offset, is_yes):
        # the float screen passes the witness either way (margin 1e-6); the
        # 50-digit confirmation alone decides on which side the budget lies
        import dataclasses

        ecme = reduce_to_ecme(prepare(FULL_MODE_CASES[0]))
        h = mixed_subset_entropy(ecme, tuple(range(ecme.m)), 0)
        with mp.workdps(50):
            shifted = dataclasses.replace(ecme, budget=h + mp.mpf(offset))
        decision = decide_ecme_small(shifted, mode="full")
        assert decision.is_yes is is_yes
        assert decision == reference_decide_full(shifted)


def _hand_ecme(base, weights, tau, big_b, budget):
    """``base`` with the fields the search reads replaced: the weights, tau,
    K, which is the booster count B (and sets w_b = tau / (2B)), and the budget."""
    import dataclasses

    with mp.workdps(50):
        return dataclasses.replace(base, weights=tuple(weights), tau=tau, k=big_b,
                                   budget=mp.mpf(budget))


def _weights(m):
    return [int(w) for w in np.random.default_rng(m).integers(150, 231, m)]


class TestFullModeLookup:
    """The meet-in-the-middle candidate lookup against a plain all-mask screen."""

    @pytest.mark.parametrize("m,tau,big_b,budget,count", [
        # gcd(2B, tau) = 1024: a deficit qualifies if it is a multiple of 3
        # up to tau/2 (9625 masks); the budget decides how many pass
        (16, 3072, 2**20, "3.5", 0),
        (16, 3072, 2**20, "5", 49),
        (16, 3072, 2**20, "7.7", 4848),
        (16, 3072, 2**20, "9", 9625),
        # few boosters: deficits 0, 384, ..., 1536 (110 masks); 2.55 admits
        # the 31 at 1152 (three boosters) and the 76 at 1536 (four)
        (16, 3072, 4, "2.45", 76),
        (16, 3072, 4, "2.55", 107),
        # seven and eight high bits beyond the 14 low ones
        (21, 4000, 2**20, "6", 461),
        (22, 4224, 2**20, "6", 611),
    ])
    def test_matches_all_mask_screen(self, ecme_spread, m, tau, big_b, budget, count):
        ecme = _hand_ecme(ecme_spread, _weights(m), tau, big_b, budget)
        candidates = _candidate_masks(ecme)
        assert candidates == reference_full_candidates(ecme)
        assert len(candidates) == count
        assert decide_ecme_small(ecme, mode="full") == reference_decide_full(ecme)

    def test_booster_witness(self, ecme_spread):
        # a budget this loose admits subsets that fill their deficit with boosters
        ecme = _hand_ecme(ecme_spread, _weights(16), 3072, 2**20, "5")
        decision = decide_ecme_small(ecme, mode="full")
        assert decision.is_yes and decision.witness_boosters > 0
        assert decision == reference_decide_full(ecme)

    @pytest.mark.parametrize("k,seed,deficit", [(21, 14, 0), (21, 15, 77), (22, 16, 0)])
    def test_reduce_outputs_beyond_twenty(self, k, seed, deficit):
        ecme = reduce_to_ecme(_m_equals_k(k, seed, deficit))
        assert ecme.m == k
        assert _candidate_masks(ecme) == reference_full_candidates(ecme)
        decision = decide_ecme_small(ecme, mode="full")
        assert decision == reference_decide_full(ecme)
        assert decision.is_yes is (deficit == 0)


class TestStructuralDecideBeyondTwentyFour:
    """K = 13 and 19 with distractor weights above tau, to m = 26 and 28
    heavy items: structural mode searches them."""

    @pytest.mark.parametrize("k,seed,deficit", [
        (13, 10, 0), (13, 11, 23), (19, 12, 0), (19, 13, 41),
    ])
    def test_agrees_with_ccss(self, k, seed, deficit):
        head = _m_equals_k(k, seed, deficit)
        # a weight above tau is in no solution, so the answer is the head's
        m = min(2 * k, hardness.MAX_FULL_SPACE_ITEMS)
        ccss = CcssInstance(head.weights + tuple(head.tau + 1 + i for i in range(m - k)),
                            head.tau, k)
        decision = decide_ecme_small(reduce_to_ecme(ccss))
        expected = deficit == 0
        assert decision.is_yes is expected
        assert decision.witness == (tuple(range(k)) if expected else None)


def _random_beyond_k(rng):
    """A CCSS instance with m > K; a third hold one weight 10-80 times the
    others, mostly above tau; tau is a K-subset's sum or any sum."""
    k = rng.choice([3, 4, 5, 6])
    m = rng.randint(k + 1, 12)
    weights = [rng.randint(1, 50) for _ in range(m)]
    if rng.random() < 1 / 3:
        weights[rng.randrange(m)] *= rng.randint(10, 80)
    tau = sum(rng.sample(weights, k)) if rng.random() < 0.5 else rng.randint(1, sum(weights))
    return CcssInstance(tuple(weights), tau, k)


class TestBeyondMEqualsK:
    def test_both_modes_equal_brute_force(self):
        rng = random.Random(2025)
        answers = []
        for _ in range(200):
            ccss = _random_beyond_k(rng)
            ecme = reduce_to_ecme(ccss)
            expected = brute_force_ccss(ccss)[0]
            structural = decide_ecme_small(ecme)
            assert structural.is_yes is expected
            assert decide_ecme_small(ecme, mode="full") == structural
            if expected:
                weight = sum(ccss.weights[i] for i in structural.witness)
                assert len(structural.witness) == ccss.k and weight == ccss.tau
            answers.append(expected)
        assert 60 < sum(answers) < 140


def _blocks_against_full_tables(weights, column, target, step, count):
    """Check ``_exact_sum_blocks`` against full tables; return the masks it found."""
    chunks = list(hardness._exact_sum_blocks(weights, column, target, step, count))
    masks = np.concatenate([np.empty(0, dtype=np.int64)] + [m for m, _ in chunks])
    sums = subset_sums(np.asarray(weights, dtype=np.int64))
    window = [target - j * step for j in range(count)]
    assert masks.tolist() == np.flatnonzero(np.isin(sums, window)).tolist()  # ascending
    table = subset_sums(column)
    for chunk_masks, (chunk_sums, chunk_column) in chunks:
        assert np.array_equal(chunk_sums, sums[chunk_masks])
        assert np.array_equal(chunk_column, table[chunk_masks])  # bit for bit
    return masks


class TestCardinalityLockInBlocks:
    """``_exact_sum_blocks``, the one meet-in-the-middle enumerator, against full tables."""

    @pytest.mark.parametrize("block_bits", [2, 5, oracle.BLOCK_BITS])
    def test_matches_full_tables(self, block_bits):
        rng = np.random.default_rng(31)
        with mock.patch.object(hardness, "BLOCK_BITS", block_bits):
            for trial in range(60):
                m = int(rng.integers(3, 13))
                weights = [int(w) for w in rng.integers(1, 12 if trial % 3 else 400, m)]
                column = rng.random(m) * 10.0 - 3.0
                target = int(subset_sums(np.asarray(weights))[int(rng.integers(1, 2**m))])
                # odd trials: one sum; even ones: a window of sums step apart
                step, count = (1, 1) if trial % 2 else (int(rng.integers(2, 9)),
                                                        int(rng.integers(2, 6)))
                _blocks_against_full_tables(weights, column, target, step, count)

    @pytest.mark.parametrize("weights,tau,k,expected", [
        # 4 x 15, 3 x 10 + 2 x 15 and 6 x 10 all weigh 60
        ([10] * 9 + [15] * 9, 60, 5, False),
        # narrow range for K = 17 around tau = 1700: every hit has 17 items
        ([95, 106, 100, 97, 104, 99, 101, 103, 96, 102, 98, 105, 100, 99, 101, 97, 103, 100],
         1700, 17, True),
    ])
    def test_eighteen_items_against_full_table(self, weights, tau, k, expected):
        masks = _blocks_against_full_tables(weights, np.ones(len(weights), dtype=np.int64),
                                            tau, 1, 1)
        sizes = subset_sums(np.ones(len(weights), dtype=np.int64))[masks]
        assert sizes.size > 0
        assert bool(np.all(sizes == k)) is expected
        narrow = all(Fraction(tau, k + 1) < w < Fraction(tau, k - 1) for w in weights)
        assert narrow is expected
        _blocks_against_full_tables(weights, np.log(np.asarray(weights, dtype=float)),
                                    tau, 5, 4)


class TestRandomBatchAgreement:
    def test_thirty_random_instances(self):
        # m == K family: YES instances have tau == sum(w), NO instances
        # overshoot slightly
        import random

        rng = random.Random(2024)
        for trial in range(30):
            k = rng.choice([3, 4, 5, 6, 7, 8, 10, 11, 12])
            weights = [rng.randint(1, 100) for _ in range(k)]
            if len(set(weights)) == 1:
                weights[0] += 1  # kept, so that the thirty instances stay the same
            total = sum(weights)
            if trial % 2 == 0:
                tau = total
            else:
                tau = total + rng.randint(1, max(1, total // 8))
            inst = CcssInstance(tuple(weights), tau, k)
            expected, _ = brute_force_ccss(inst)
            ecme = reduce_to_ecme(inst)
            assert decide_ecme_small(ecme).is_yes == expected


class TestSerialization:
    def test_ccss_round_trip(self):
        obj = ccss_to_json(YES)
        back = ccss_from_json(json.loads(json.dumps(obj)))
        assert back == YES

    def test_ccss_rejects_garbage(self):
        with pytest.raises(MalformedRecord):
            ccss_from_json({"kind": "ccss", "weights": ["x"], "tau": "1", "k": 3})
        with pytest.raises(MalformedRecord):
            ccss_from_json({"weights": ["3"], "tau": "1", "k": 3})
        with pytest.raises(MalformedRecord, match="pad is not a CCSS field; junk is not a"):
            ccss_from_json({**ccss_to_json(YES), "pad": "31", "junk": 1})

    def test_ecme_round_trip_exact(self, ecme_yes):
        obj = json.loads(json.dumps(ecme_to_json(ecme_yes)))
        back = ecme_from_json(obj)
        assert back == ecme_yes
        assert _derived(back) == _derived(ecme_yes)
        assert ecme_to_json(back) == obj

    def test_weights_serialized_as_decimal_strings(self, ecme_yes):
        obj = ecme_to_json(ecme_yes)
        # the file keeps the CCSS instance; the padded weights are in heavy_probs
        assert obj["weights"] == ["3", "5", "7"] and obj["tau"] == "15"
        assert obj["pad"] == "31"
        assert obj["booster_count"] == "3"
        assert obj["beta"] == {"num": "2", "den": "3"}
        assert obj["schema_version"] == SCHEMA_VERSION == 1

    def test_old_format_is_refused(self, ecme_spread):
        # a file as the reduction with B = K**lambda boosters wrote it
        obj = {**ecme_to_json(ecme_spread), "booster_count": "64000000",
               "constants": {"lambda_k": 6, "booster_count": "64000000"}}
        del obj["pad"]
        with pytest.raises(MalformedRecord, match="booster_count is not what weights, tau and k"
                           r" give; pad is not .*; constants is not an ECME field"):
            ecme_from_json(obj)


class TestPrivateContext:
    """Hardness computes at 50 digits whatever the global mpmath context does."""

    def test_outputs_ignore_another_threads_precision(self):
        cases = [prepare(YES), prepare(NO), SPREAD, prepare(FULL_MODE_CASES[2])]
        reference = [json.dumps(ecme_to_json(reduce_to_ecme(c))) for c in cases]
        decisions = [decide_ecme_small(reduce_to_ecme(c), mode="full") for c in cases]
        stop = threading.Event()

        def meddle():
            while not stop.is_set():
                with mp.workdps(30):
                    mp.log(3)

        # switch threads often: numpy calls in full mode give up the lock,
        # and each waits a whole switch interval to get it back
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        meddler = threading.Thread(target=meddle)
        meddler.start()
        try:
            for i in range(2000):
                c = i % len(cases)
                assert json.dumps(ecme_to_json(reduce_to_ecme(cases[c]))) == reference[c]
                if i % 500 < len(cases):
                    assert decide_ecme_small(reduce_to_ecme(cases[c]), mode="full") == decisions[c]
        finally:
            stop.set()
            meddler.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not meddler.is_alive()

    def test_instance_survives_pickle(self, ecme_yes, ecme_spread):
        for inst in (ecme_yes, ecme_spread):
            back = pickle.loads(pickle.dumps(inst))
            assert ecme_to_json(back) == ecme_to_json(inst)
            assert back.budget == inst.budget

    def test_numbers_mix_with_global_mpf(self, ecme_yes):
        budget = ecme_yes.budget
        assert mp.log(3) < budget < mp.log(4)
        assert mp.nstr(budget + mp.mpf(0), 10) == mp.nstr(mp.mpf(0) + budget, 10)


class TestInstanceValidation:
    def test_bad_instances(self):
        with pytest.raises(InvalidParameters):
            CcssInstance((), 5, 3)
        with pytest.raises(InvalidParameters):
            CcssInstance((0, 2, 3), 5, 3)
        with pytest.raises(InvalidParameters):
            CcssInstance((1, 2, 3), 0, 3)
        with pytest.raises(InvalidParameters):
            CcssInstance((1, 2, 3), 5, 2)
        with pytest.raises(InvalidParameters):
            CcssInstance((1, 2, 3), 5, 4)

    def test_subset_entropy_helper(self, ecme_spread):
        h = mixed_subset_entropy(ecme_spread, tuple(range(20)), 0)
        expected = _entropy([Fraction(w, ecme_spread.tau) for w in ecme_spread.weights])
        with mp.workdps(50):
            assert abs(h - expected) < mp.mpf("1e-45")
            assert mixed_subset_entropy(ecme_spread, (0, 1), 20) > 0
