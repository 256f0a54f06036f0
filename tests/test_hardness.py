"""Unit tests for the subset-sum reduction pipeline and its deciders."""

import json
import pickle
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph.errors import (
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
from toph.hardness import (
    CcssInstance,
    brute_force_ccss,
    ccss_from_json,
    ccss_to_json,
    decide_ecme_small,
    ecme_from_json,
    ecme_to_json,
    lambda_exponent,
    mixed_subset_entropy,
    pad_to_narrow_range,
    prepare,
    reduce_to_ecme,
    scale_to_k20,
    verify_budget_window,
)
from toph import hardness, oracle
from toph.oracle import subset_sums

from ecmm_reference import reference_decide_full, reference_full_candidates

YES = CcssInstance((3, 5, 7), 15, 3)    # 3 + 5 + 7 == 15
NO = CcssInstance((3, 5, 7), 16, 3)     # no 3-subset reaches 16

# m == K with weights spanning the narrow range; tau = 10*763 + 10*837
SPREAD = CcssInstance(tuple([763] * 10 + [837] * 10), 16000, 20)


@pytest.fixture(scope="module")
def ecme_yes():
    return reduce_to_ecme(prepare(YES))


@pytest.fixture(scope="module")
def ecme_no():
    return reduce_to_ecme(prepare(NO))


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
            **{name: frac(obj["constants"][name]) for name in ("gamma_k", "w_b", "normalizer")},
            "booster_count": int(obj["constants"]["booster_count"])}


class TestPadding:
    def test_hand_example(self):
        padded = pad_to_narrow_range(YES)
        assert padded.weights == (63, 65, 67)
        assert padded.tau == 195
        # narrow-range bounds: 195/4 = 48.75 and 195/2 = 97.5
        assert Fraction(195, 4) < 63 and 67 < Fraction(195, 2)
        assert padded.narrow_range_holds()

    def test_unconditional(self):
        # an already-narrow instance is still shifted
        padded = pad_to_narrow_range(SPREAD)
        assert padded.weights != SPREAD.weights
        assert padded.narrow_range_holds()

    def test_feasibility_preserved_both_directions(self):
        padded = pad_to_narrow_range(YES)
        assert sum(padded.weights) == padded.tau  # the full triple still works
        yes, witness = brute_force_ccss(padded)
        assert yes and witness == (0, 1, 2)
        padded_no = pad_to_narrow_range(NO)
        assert brute_force_ccss(padded_no)[0] is False

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_narrow_range_condition_is_exact(self, data):
        # the padded instance is narrow exactly when (K-1) w < (K+2) tau for every weight
        k = data.draw(st.integers(3, 8))
        weights = tuple(data.draw(st.lists(st.integers(1, 60), min_size=k, max_size=k + 3)))
        tau = data.draw(st.integers(1, 40))
        padded = pad_to_narrow_range(CcssInstance(weights, tau, k))
        assert padded.narrow_range_holds() is all((k - 1) * w < (k + 2) * tau for w in weights)

    def test_all_subset_sums_transfer(self):
        # exact equivalence: a K-subset hits tau iff the padded one hits tau'
        inst = CcssInstance((2, 9, 4, 6, 5), 15, 3)
        padded = pad_to_narrow_range(inst)
        from itertools import combinations

        for subset in combinations(range(5), 3):
            before = sum(inst.weights[i] for i in subset) == inst.tau
            after = sum(padded.weights[i] for i in subset) == padded.tau
            assert before == after


class TestScaling:
    def test_k3_duplicates_seven_times(self):
        scaled = scale_to_k20(pad_to_narrow_range(YES))
        assert scaled.k == 21
        assert scaled.m == 21
        assert scaled.narrow_range_holds()

    def test_k20_unchanged(self):
        assert scale_to_k20(SPREAD) is SPREAD

    def test_k19_duplicates_twice(self):
        inst = CcssInstance(tuple(range(100, 119)), sum(range(100, 119)), 19)
        scaled = scale_to_k20(pad_to_narrow_range(inst))
        assert scaled.k == 38
        assert scaled.m == 38

    def test_target_scales_with_duplication(self):
        padded = pad_to_narrow_range(YES)
        scaled = scale_to_k20(padded)
        # tau was multiplied by d = 7 before the re-pad
        d = 7
        assert scaled.tau == d * padded.tau + scaled.k * (scaled.k + 1) * d * padded.tau


class TestReduce:
    def test_constants_at_k20(self, ecme_spread):
        assert _derived(ecme_spread)["gamma_k"] == Fraction(1, 6400)
        assert ecme_spread.constants.lambda_k == 6
        assert ecme_spread.booster_count == _derived(ecme_spread)["booster_count"] == 20**6

    def test_lambda_formula_at_theta_bound(self):
        # independent evaluation of the exponent formula at K=20 with the
        # deficit at its cap 1/(2K^2) = 0.00125
        with mp.workdps(50):
            lam, raw = lambda_exponent(20, mp.mpf("0.00125"))
        assert lam == 6
        assert float(raw) == pytest.approx(5.4246, abs=1e-3)
        assert 20**lam == 64_000_000

    @pytest.mark.parametrize("caller_dps", [None, 30, 80])
    def test_lambda_exponent_ignores_the_caller_precision(self, caller_dps):
        # theta made at 50 digits; the exponent comes out at 50 digits
        # whatever precision the caller's global mpmath context has
        with mp.workdps(50):
            ln20 = mp.log(20)
            theta = mp.mpf("0.00125")
            eps = (mp.mpf(384) / 10000 + mp.mpf(1) / 6400) / ln20
            delta = 5 * theta / (2 * ln20)
            reference = (mp.mpf(7333) / 10000 - eps + delta) / (mp.mpf(133) / 1000)
        if caller_dps is None:
            lam, raw = lambda_exponent(20, theta)
        else:
            with mp.workdps(caller_dps):
                lam, raw = lambda_exponent(20, theta)
        assert lam == 6
        with mp.workdps(60):
            assert abs(raw - reference) < mp.mpf("1e-40")

    def test_lambda_too_close_to_integer_raises(self):
        # solve the exponent formula at K=20 for the deficit that puts the
        # raw exponent 1e-45 above 6, closer than 50 digits can resolve
        with mp.workdps(50):
            ln20 = mp.log(20)
            eps = (mp.mpf(384) / 10000 + mp.mpf(1) / 6400) / ln20
            target = 6 + mp.mpf("1e-45")
            delta = target * mp.mpf(133) / 1000 - mp.mpf(7333) / 10000 + eps
            theta = 2 * ln20 * delta / 5
            with pytest.raises(PrecisionInsufficient):
                lambda_exponent(20, theta)

    def test_pipeline_yes_instance(self, ecme_yes):
        assert ecme_yes.k == 21
        assert ecme_yes.m == 21
        assert sum(ecme_yes.weights) == ecme_yes.tau

    def test_mass_identity_exact(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            d = _derived(inst)
            assert sum(d["heavy_probs"]) + inst.booster_count * d["booster_prob"] == 1

    def test_balanced_instance_constants(self, ecme_yes):
        # when sum(w) == tau the construction's round numbers hold exactly
        d = _derived(ecme_yes)
        assert d["beta"] == Fraction(2, 3)
        assert d["booster_prob"] == Fraction(1, 3 * ecme_yes.booster_count)
        assert d["normalizer"] == Fraction(3 * ecme_yes.tau, 2)

    def test_deficit_instance_nearby_rationals(self, ecme_no):
        assert sum(ecme_no.weights) == ecme_no.tau - 7
        beta = _derived(ecme_no)["beta"]
        assert beta != Fraction(2, 3)
        assert abs(beta - Fraction(2, 3)) < Fraction(1, 10**4)

    def test_mass_split_exact_on_balanced_instance(self, ecme_yes):
        d = _derived(ecme_yes)
        assert sum(d["heavy_probs"]) == d["beta"] == Fraction(2, 3)
        assert ecme_yes.booster_count * d["booster_prob"] == Fraction(1, 3)

    def test_booster_block_weight(self, ecme_yes):
        assert 2 * ecme_yes.booster_count * _derived(ecme_yes)["w_b"] == ecme_yes.tau
        assert ecme_yes.w_b == _derived(ecme_yes)["w_b"]

    def test_theta_in_window(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            theta = inst.constants.theta_k
            cap = mp.mpf(1) / (2 * inst.k * inst.k)
            assert 0 < theta < cap

    def test_requires_narrow_range(self):
        with pytest.raises(NarrowRangeViolated,
                           match=r"weights\[0\]=1 is outside \(10/3, 70/19\)"):
            reduce_to_ecme(CcssInstance(tuple([1] * 20) + (50,), 70, 20))

    def test_requires_k20(self):
        with pytest.raises(KTooSmall):
            reduce_to_ecme(pad_to_narrow_range(YES))

    def test_m_above_k_rejected_by_theta(self):
        # the analytic budget is only well-posed for m == K; the theta
        # bounds check catches everything else
        with pytest.raises(ThetaOutOfBounds):
            reduce_to_ecme(prepare(CcssInstance((3, 5, 7, 9), 15, 3)))

    def test_uniform_weights_rejected(self):
        # all-equal weights give theta == 0 exactly: degenerate boundary
        uniform = CcssInstance(tuple([5] * 20), 100, 20)
        with pytest.raises(ThetaOutOfBounds):
            reduce_to_ecme(prepare(uniform))


class TestBudgetWindow:
    def test_positive_margins(self, ecme_yes, ecme_no, ecme_spread):
        for inst in (ecme_yes, ecme_no, ecme_spread):
            check = verify_budget_window(inst)
            assert check.holds
            assert check.lower_margin > 0
            assert check.upper_margin > 0

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
        check = verify_budget_window(corrupted)
        assert not check.holds
        assert check.upper_margin < 0
        assert check.lower_margin > 0

    def test_budget_on_window_edge_raises(self, ecme_yes):
        import dataclasses

        with mp.workdps(50):
            edge = dataclasses.replace(ecme_yes, budget=mp.log(ecme_yes.k + 1))
        with pytest.raises(PrecisionInsufficient):
            verify_budget_window(edge)


def _heavy_entropy(instance):
    """Entropy of the one heavy K-subset of an m == K instance, no boosters."""
    return mixed_subset_entropy(instance, tuple(range(instance.m)), 0)


def _gap_bound(instance):
    """ln K - gamma_K, the entropy-gap bound, at 50 digits."""
    return mp.log(instance.k) - mp.mpf(1) / (16 * instance.k ** 2)


class TestEntropyGap:
    def test_holds_on_spread_instance(self, ecme_spread):
        with mp.workdps(50):
            assert _heavy_entropy(ecme_spread) <= _gap_bound(ecme_spread)

    def test_fails_on_near_uniform_padded_instance(self, ecme_yes):
        # padding drives the heavy ratios to uniformity, so the gap bound
        # ln K - gamma_K is exceeded; feasibility of this subset instead
        # follows from budget > ln K (checked above)
        with mp.workdps(50):
            assert _heavy_entropy(ecme_yes) > _gap_bound(ecme_yes)
            assert _heavy_entropy(ecme_yes) <= ecme_yes.budget


def _backfilled(instance, dropped_items):
    """The heavy set minus its last items, plus the boosters that replace them."""
    kept = tuple(range(instance.m - dropped_items))
    dropped = sum(instance.weights[-dropped_items:])
    b = -(-2 * instance.booster_count * dropped // instance.tau)  # ceil
    return kept, b


class TestBoosterBlowup:
    """Mass-beta subsets that contain boosters overshoot the budget."""

    def test_replacing_one_heavy_item(self, ecme_yes):
        kept, b = _backfilled(ecme_yes, 1)
        assert b >= 2 * ecme_yes.booster_count // ecme_yes.k  # replacement scale
        assert mixed_subset_entropy(ecme_yes, kept, b) > ecme_yes.budget

    def test_replacing_two_heavy_items(self, ecme_spread):
        kept, b = _backfilled(ecme_spread, 2)
        assert mixed_subset_entropy(ecme_spread, kept, b) > ecme_spread.budget

    @pytest.mark.parametrize("heavy, boosters, error", [
        ((0,), -1, InvalidParameters),
        ((0,), 21**6 + 1, InvalidParameters),
        ((), 0, WrongMass),
    ], ids=["negative-boosters", "too-many-boosters", "empty-subset"])
    def test_refused_subsets(self, ecme_yes, heavy, boosters, error):
        assert ecme_yes.booster_count == 21**6
        with pytest.raises(error):
            mixed_subset_entropy(ecme_yes, heavy, boosters)

    def test_entropy_well_above_budget(self, ecme_yes):
        kept, b = _backfilled(ecme_yes, 1)
        h = mixed_subset_entropy(ecme_yes, kept, b)
        # the overshoot is macroscopic, not a borderline effect
        assert h - ecme_yes.budget > mp.mpf("0.5")


def _sizes_at(weights, tau):
    """The sizes of the subsets of weight ``tau``, found by ``_exact_sum_blocks``."""
    blocks = hardness._exact_sum_blocks(weights, np.ones(len(weights), dtype=np.int64), tau, 1, 1)
    return np.concatenate([np.empty(0, dtype=np.int64)] + [sizes for _, (_, sizes) in blocks])


class TestCardinalityLock:
    """The cardinality lock of the module docstring: in the narrow range, every
    subset of weight tau has K items.  ``_exact_sum_blocks`` finds the subsets."""

    def test_on_reduction_output(self, ecme_yes):
        sizes = _sizes_at(ecme_yes.weights, ecme_yes.tau)
        assert sizes.size > 0 and np.all(sizes == ecme_yes.k)

    def test_on_hand_built_narrow_family(self):
        # 21 weights strictly inside (2010/21, 2010/19): the three subsets
        # that leave out one of the three 96s weigh 2010, with 20 elements each
        sizes = _sizes_at([96 + (i % 10) for i in range(21)], 2010)
        assert sizes.tolist() == [20] * 3

    def test_detects_violation_without_narrow_range(self):
        # wide weights: {4, 8} and {2, 4, 6} both reach 12, so no single
        # cardinality is locked in
        assert not CcssInstance((2, 4, 6, 8, 10), 12, 3).narrow_range_holds()
        assert set(_sizes_at([2, 4, 6, 8, 10], 12).tolist()) == {2, 3}

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
        assert decide_ecme_small(ecme_yes).witness == tuple(range(21))

    def test_too_many_items(self, ecme_yes):
        # no reduce output has m != K; a hand-built one is refused, and
        # full mode still decides it
        wide = _with_heavy_count(ecme_yes, 22)
        with pytest.raises(WrongCardinality, match=r"m=22 .*K=21.*--mode full"):
            decide_ecme_small(wide)
        assert decide_ecme_small(wide, mode="full") == reference_decide_full(wide)

    def test_too_few_items(self, ecme_yes):
        with pytest.raises(WrongCardinality, match=r"m=20 .*K=21"):
            decide_ecme_small(_with_heavy_count(ecme_yes, 20))

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

        # the smallest booster count with 2 * B * tau >= 2**62
        smallest = -(-(2**61) // ecme_yes.tau)
        huge_boosters = dataclasses.replace(ecme_yes, booster_count=smallest)
        with pytest.raises(TooManyHeavyItems, match="booster count too large"):
            decide_ecme_small(huge_boosters, mode="full")
        huge_weights = dataclasses.replace(ecme_yes, weights=(2**61, 2**61, 3))
        with pytest.raises(TooManyHeavyItems, match="weights too large"):
            decide_ecme_small(huge_weights, mode="full")


def _with_heavy_count(instance, m):
    """``instance`` with its heavy items cut or repeated to m of them."""
    import dataclasses

    return dataclasses.replace(instance, weights=(instance.weights * 2)[:m])


def _m_equals_k(k, seed, deficit):
    rng = random.Random(seed)
    weights = tuple(rng.randint(770, 830) if k == 20 else rng.randint(1, 100) for _ in range(k))
    return CcssInstance(weights, sum(weights) + deficit, k)


# YES (tau == sum(w)) and deficit-NO (tau above it) instances with m == K,
# prepared as `toph reduce` does: K = 20 padded, K = 4, 5, 10 scaled to 20
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


class TestFullModeAgainstFullTables:
    """Block-wise full-mode decide against the full-table reference."""

    @pytest.mark.parametrize("ccss", FULL_MODE_CASES, ids=lambda c: f"K{c.k}-{c.tau - c.total}")
    def test_matches_reference_and_ccss(self, ccss):
        prepared = prepare(ccss)
        assert prepared.m == prepared.k == 20
        ecme = reduce_to_ecme(prepared)
        assert list(hardness._full_space_candidates(ecme)) == reference_full_candidates(ecme)
        decision = decide_ecme_small(ecme, mode="full")
        assert decision == reference_decide_full(ecme)
        assert decision.is_yes == brute_force_ccss(prepare(ccss))[0]
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
    """``base`` with the fields full mode reads replaced: the weights, tau,
    the booster count B (which sets w_b = tau / (2B)) and the budget."""
    import dataclasses

    with mp.workdps(50):
        return dataclasses.replace(base, weights=tuple(weights), tau=tau, k=len(weights),
                                   booster_count=big_b, budget=mp.mpf(budget))


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
        candidates = list(hardness._full_space_candidates(ecme))
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
        ecme = reduce_to_ecme(prepare(_m_equals_k(k, seed, deficit)))
        assert ecme.m == k
        assert list(hardness._full_space_candidates(ecme)) == reference_full_candidates(ecme)
        decision = decide_ecme_small(ecme, mode="full")
        assert decision == reference_decide_full(ecme)
        assert decision.is_yes is (deficit == 0)


class TestStructuralDecideBeyondTwentyFour:
    """K = 13 and 19 scale to m == K == 26 and 38; both are decided directly."""

    @pytest.mark.parametrize("k,seed,deficit", [
        (13, 10, 0), (13, 11, 23), (19, 12, 0), (19, 13, 41),
    ])
    def test_agrees_with_ccss(self, k, seed, deficit):
        ccss = _m_equals_k(k, seed, deficit)
        prepared = prepare(ccss)
        assert prepared.m == prepared.k == 2 * k
        decision = decide_ecme_small(reduce_to_ecme(prepared))
        expected, _ = brute_force_ccss(ccss)
        assert decision.is_yes is expected is (deficit == 0)
        assert decision.witness == (tuple(range(2 * k)) if expected else None)


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
        assert CcssInstance(tuple(weights), tau, k).narrow_range_holds() is expected
        _blocks_against_full_tables(weights, np.log(np.asarray(weights, dtype=float)),
                                    tau, 5, 4)


class TestRandomBatchAgreement:
    def test_thirty_random_instances(self):
        # m == K family (the regime the construction is well-posed for):
        # YES instances have tau == sum(w), NO instances overshoot slightly
        import random

        rng = random.Random(2024)
        for trial in range(30):
            k = rng.choice([3, 4, 5, 6, 7, 8, 10, 11, 12])
            weights = [rng.randint(1, 100) for _ in range(k)]
            if len(set(weights)) == 1:
                weights[0] += 1  # theta == 0 boundary is rejected by design
            total = sum(weights)
            if trial % 2 == 0:
                tau = total
            else:
                tau = total + rng.randint(1, max(1, total // 8))
            inst = CcssInstance(tuple(weights), tau, k)
            expected, _ = brute_force_ccss(inst)
            ecme = reduce_to_ecme(prepare(inst))
            assert decide_ecme_small(ecme).is_yes == expected
            assert verify_budget_window(ecme).holds


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

    def test_ecme_round_trip_exact(self, ecme_yes):
        obj = json.loads(json.dumps(ecme_to_json(ecme_yes)))
        back = ecme_from_json(obj)
        assert (back.weights, back.tau, back.k, back.booster_count) == (
            ecme_yes.weights, ecme_yes.tau, ecme_yes.k, ecme_yes.booster_count)
        assert back.constants.lambda_k == ecme_yes.constants.lambda_k
        assert _derived(back) == _derived(ecme_yes)
        assert ecme_to_json(back) == obj
        with mp.workdps(50):
            assert abs(back.budget - ecme_yes.budget) < mp.mpf("1e-40")

    def test_huge_lambda_is_refused_without_the_power(self, ecme_yes):
        # K**lambda at lambda = 10**12 would need terabytes; the reader only
        # compares the stored exponent with the one the reduction gives
        class NoPower(int):
            def __rpow__(self, base):
                raise AssertionError(f"computed {base}**{int(self)}")

        obj = ecme_to_json(ecme_yes)
        obj["constants"]["lambda_k"] = NoPower(10**12)
        with pytest.raises(MalformedRecord, match=r"constants\.lambda_k is not what weights"):
            ecme_from_json(obj)
        obj["constants"]["lambda_k"] = NoPower(6)  # the right exponent loads, still unpowered
        assert ecme_from_json(obj) == ecme_yes

    def test_weights_serialized_as_decimal_strings(self, ecme_yes):
        obj = ecme_to_json(ecme_yes)
        assert all(isinstance(w, str) for w in obj["weights"])
        assert obj["booster_count"] == str(21**6)
        assert obj["beta"] == {"num": "2", "den": "3"}


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
        assert mp.log(20) < budget < mp.log(22)
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
        with mp.workdps(50):
            expected = mp.log(20) - ecme_spread.constants.theta_k
            assert abs(h - expected) < mp.mpf("1e-30")
