"""Unit tests for the distribution and entropy/divergence primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph.distributions import (
    entropy,
    jsd_closed_form,
    jsd_direct,
    make_distribution,
    renormalize,
    uniform_distribution,
)
from toph.errors import (
    EmptyInput,
    EmptySubset,
    GammaOutOfRange,
    IndexOutOfRange,
    NegativeProbability,
    NonFiniteValue,
    NonPositiveTemperature,
    NormalizationOutOfTolerance,
    ZeroMassSubset,
    DimensionMismatch,
)

from top_h_reference import EntropyAccumulator, MassOverflow, NonPositiveProbability


def direct_entropy(values):
    """Independent reference: plain python sum of -p ln p, zeros skipped."""
    return -sum(p * math.log(p) for p in values if p > 0)


def random_distribution(rng, n):
    raw = rng.random(n) + 1e-12
    return make_distribution(raw / raw.sum())


class TestMakeDistribution:
    def test_uniform_from_equal_logits(self):
        p = make_distribution([0.0, 0.0, 0.0, 0.0], mode="logits", temperature=1.0)
        assert np.allclose(p.probs, 0.25, atol=1e-15)

    def test_probs_passthrough(self):
        p = make_distribution([0.6, 0.3, 0.1])
        assert np.allclose(p.probs, [0.6, 0.3, 0.1], atol=1e-12)

    def test_softmax_of_ln2(self):
        # hand softmax: e^{ln 2} / (e^{ln 2} + e^0) = 2/3
        p = make_distribution([math.log(2.0), 0.0], mode="logits")
        expected = [math.e ** math.log(2.0), 1.0]
        expected = [x / sum(expected) for x in expected]
        assert np.allclose(p.probs, expected, atol=1e-15)
        assert np.allclose(p.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_temperature_flattens(self):
        sharp = make_distribution([3.0, 0.0], mode="logits", temperature=0.5)
        flat = make_distribution([3.0, 0.0], mode="logits", temperature=10.0)
        assert sharp.probs[0] > flat.probs[0]

    def test_renormalizes_small_drift(self):
        p = make_distribution([0.5, 0.5 + 5e-7])
        assert abs(float(p.probs.sum()) - 1.0) <= 1e-9

    def test_exact_inputs_kept_bit_exact(self):
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        assert [float(x) for x in p.probs] == [0.4, 0.3, 0.2, 0.1]

    def test_caller_array_not_frozen_or_shared(self):
        a = np.array([0.5, 0.25, 0.25])
        p = make_distribution(a)
        assert a.flags.writeable
        a[0] = 0.0
        assert [float(x) for x in p.probs] == [0.5, 0.25, 0.25]

    def test_errors(self):
        with pytest.raises(EmptyInput):
            make_distribution([])
        with pytest.raises(NegativeProbability):
            make_distribution([0.5, -0.5])
        with pytest.raises(NormalizationOutOfTolerance):
            make_distribution([0.5, 0.4])
        with pytest.raises(NonPositiveTemperature):
            make_distribution([1.0, 2.0], mode="logits", temperature=0.0)

    @pytest.mark.parametrize("values, mode, temperature", [
        ([math.nan, 0.0], "logits", 1.0),
        ([math.inf, 0.0], "logits", 1.0),
        ([-math.inf, -math.inf], "logits", 1.0),
        ([1e308, 0.0], "logits", 0.1),  # finite logit, overflows once scaled
        ([math.nan, 0.5, 0.5], "probs", 1.0),
        ([math.inf, 0.5, 0.5], "probs", 1.0),
    ])
    def test_non_finite_rejected(self, values, mode, temperature):
        with pytest.raises(NonFiniteValue):
            make_distribution(values, mode=mode, temperature=temperature)

    def test_minus_inf_logit_masks_token(self):
        p = make_distribution([1.0, -math.inf], mode="logits")
        assert [float(x) for x in p.probs] == [1.0, 0.0]


class TestEntropy:
    def test_uniform_eight(self):
        assert entropy(uniform_distribution(8)) == pytest.approx(math.log(8), abs=1e-12)

    def test_one_hot(self):
        assert entropy(make_distribution([1.0, 0.0, 0.0])) == 0.0

    def test_skewed_matches_reference(self):
        p = make_distribution([0.6, 0.3, 0.1])
        assert entropy(p) == pytest.approx(direct_entropy([0.6, 0.3, 0.1]), abs=1e-15)
        assert entropy(p) == pytest.approx(0.897946, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            p = random_distribution(rng, n)
            h = entropy(p)
            assert -1e-12 <= h <= math.log(max(n, 2)) + 1e-12


class TestRenormalize:
    def test_singleton(self):
        sub = renormalize(make_distribution([0.5, 0.5]), [0])
        assert sub.gamma == 0.5
        assert np.allclose(sub.q, [1.0])

    def test_pair(self):
        sub = renormalize(make_distribution([0.4, 0.35, 0.25]), [0, 1])
        assert sub.gamma == pytest.approx(0.75, abs=1e-15)
        assert np.allclose(sub.q, [0.4 / 0.75, 0.35 / 0.75], atol=1e-15)
        assert np.allclose(sub.q, [0.533333, 0.466667], atol=1e-6)
        assert float(sub.q.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_full_set_identity(self):
        p = make_distribution([0.6, 0.3, 0.1])
        sub = renormalize(p, [0, 1, 2])
        assert sub.gamma == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sub.q, p.probs, atol=1e-12)

    def test_preserves_caller_order(self):
        sub = renormalize(make_distribution([0.5, 0.3, 0.2]), [2, 0])
        assert sub.parent_indices == (2, 0)
        assert np.allclose(sub.q, [0.2 / 0.7, 0.5 / 0.7])

    def test_errors(self):
        p = make_distribution([0.5, 0.5, 0.0])
        with pytest.raises(EmptySubset):
            renormalize(p, [])
        with pytest.raises(IndexOutOfRange):
            renormalize(p, [3])
        with pytest.raises(IndexOutOfRange):
            renormalize(p, [0, 0])
        with pytest.raises(ZeroMassSubset):
            renormalize(p, [2])


class TestJsd:
    def test_identical_distributions(self):
        p = make_distribution([0.6, 0.3, 0.1])
        assert jsd_direct(p, renormalize(p, [0, 1, 2])) == pytest.approx(0.0, abs=1e-15)

    def test_half_mass_hand_value(self):
        # hand computation: M = [0.75, 0.25],
        # KL(p||M) = 0.5 ln(0.5/0.75) + 0.5 ln(0.5/0.25) = 0.5 ln(4/3)
        # KL(q||M) = ln(4/3)
        p = make_distribution([0.5, 0.5])
        got = jsd_direct(p, renormalize(p, [0]))
        kl_pm = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        kl_qm = math.log(1.0 / 0.75)
        assert kl_pm == pytest.approx(0.143841, abs=1e-6)
        assert kl_qm == pytest.approx(0.287682, abs=1e-6)
        assert got == pytest.approx(0.5 * (kl_pm + kl_qm), abs=1e-15)
        assert got == pytest.approx(0.215761, abs=1e-6)

    def test_upper_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            p = random_distribution(rng, n)
            k = int(rng.integers(1, n))
            idx = rng.choice(n, size=k, replace=False)
            assert jsd_direct(p, renormalize(p, idx)) <= math.log(2) + 1e-12

    def test_dimension_mismatch(self):
        p = make_distribution([0.5, 0.5])
        sub = renormalize(make_distribution([0.4, 0.3, 0.3]), [0])
        with pytest.raises(DimensionMismatch):
            jsd_direct(p, sub)


class TestJsdClosedForm:
    def test_gamma_one_is_zero(self):
        assert abs(jsd_closed_form(1.0)) <= 1e-12

    def test_matches_direct_at_half(self):
        p = make_distribution([0.5, 0.5])
        assert jsd_closed_form(0.5) == pytest.approx(
            jsd_direct(p, renormalize(p, [0])), abs=1e-12
        )

    def test_decreasing(self):
        assert jsd_closed_form(0.9) < jsd_closed_form(0.5)
        grid = np.linspace(0.01, 1.0, 100)
        values = [jsd_closed_form(g) for g in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(GammaOutOfRange):
                jsd_closed_form(bad)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_identity_with_direct(self, n, seed):
        """The divergence depends on the subset only through its mass."""
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, n)
        k = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        sub = renormalize(p, idx)
        assert jsd_direct(p, sub) == pytest.approx(
            jsd_closed_form(sub.gamma), abs=1e-10
        )


class TestEntropyAccumulator:
    """The test-side accumulator that ``reference_truncate`` scans with."""

    def test_two_pushes_match_batch(self):
        acc = EntropyAccumulator()
        acc.push(0.5)
        acc.push(0.3)
        # reference: entropy of [0.625, 0.375]
        expected = direct_entropy([0.5 / 0.8, 0.3 / 0.8])
        assert acc.entropy() == pytest.approx(expected, abs=1e-12)
        assert acc.entropy() == pytest.approx(0.661563, abs=1e-6)

    def test_single_push_zero_entropy(self):
        acc = EntropyAccumulator()
        acc.push(0.7)
        assert acc.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_delta_lower_bound_example(self):
        # second push must raise entropy by at least ln(1 + p_j / mass)
        acc = EntropyAccumulator()
        acc.push(0.5)
        before = acc.entropy()
        acc.push(0.3)
        gain = acc.entropy() - before
        assert gain >= math.log(1 + 0.3 / 0.5) - 1e-12
        assert math.log(1.6) == pytest.approx(0.470004, abs=1e-6)

    def test_pop_rolls_back(self):
        acc = EntropyAccumulator()
        acc.push(0.5)
        state = (acc.gamma, acc.h, acc.count)
        acc.push(0.25)
        acc.pop(0.25)
        assert (acc.gamma, acc.h, acc.count) == pytest.approx(state)

    def test_errors(self):
        acc = EntropyAccumulator()
        with pytest.raises(NonPositiveProbability):
            acc.push(0.0)
        acc.push(0.9)
        with pytest.raises(MassOverflow):
            acc.push(0.2)

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_batch_on_all_prefixes(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, n)
        desc = np.sort(p.probs)[::-1]
        acc = EntropyAccumulator()
        for j in range(n):
            acc.push(float(desc[j]))
            prefix = desc[: j + 1]
            batch = direct_entropy(prefix / prefix.sum())
            assert acc.entropy() == pytest.approx(batch, abs=1e-9)

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_descending_pushes_strictly_increase(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, n)
        desc = np.sort(p.probs)[::-1]
        acc = EntropyAccumulator()
        acc.push(float(desc[0]))
        prev = acc.entropy()
        for j in range(1, n):
            p_j = float(desc[j])
            bound = math.log(1 + p_j / acc.gamma)
            acc.push(p_j)
            gain = acc.entropy() - prev
            assert gain >= bound - 1e-12
            prev = acc.entropy()


def test_distribution_is_read_only():
    p = make_distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9
