"""Unit tests for the exhaustive subset oracle and the gap harness."""

import csv
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toph import hardness, oracle
from toph.distributions import (
    _entropy_of,
    entropy,
    make_distribution,
    renormalize,
    uniform_distribution,
)
from toph.errors import AlphaOutOfRange, EmptyInput, VocabularyTooLarge
from toph.hardness import (
    MAX_FULL_SPACE_ITEMS,
    CcssInstance,
    decide_ecme_small,
    reduce_to_ecme,
)
from toph.oracle import (
    BLOCK_BITS,
    EcmmInstance,
    GapReport,
    exact_ecmm,
    gap_report_csv,
    key_range_subsets,
    mask_indices,
    optimality_gap,
    subset_sums,
    summary_line,
)
from toph.synthgen import FAMILIES, GeneratorSpec, generate

from ecmm_reference import reference_exact_ecmm


def brute_force_ecmm(p, alpha):
    """Independent oracle: itertools over all non-empty subsets."""
    probs = list(p.probs)
    n = len(probs)
    budget = alpha * (-sum(x * math.log(x) for x in probs if x > 0))
    best = None
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            mass = sum(probs[i] for i in subset)
            if mass <= 0:
                continue
            q = [probs[i] / mass for i in subset]
            h = -sum(x * math.log(x) for x in q if x > 0)
            if h <= budget:
                key = (-mass, len(subset), subset)
                if best is None or key < best:
                    best = key
    return best[2], -best[0]


class TestSubsetSums:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_matches_naive_ascending_bit_sums(self, dtype):
        rng = np.random.default_rng(12)
        for n in range(11):
            if dtype is np.float64:
                values = rng.random(n)
            else:
                values = rng.integers(-10**12, 10**12, n, dtype=np.int64)
            expected = []
            for mask in range(2**n):
                idx = mask_indices(mask)
                assert list(idx) == sorted(idx)
                assert sum(1 << i for i in idx) == mask
                acc = dtype(0)
                for i in idx:
                    acc = acc + values[i]
                expected.append(acc)
            table = subset_sums(values)
            assert table.dtype == dtype
            assert table.tobytes() == np.asarray(expected, dtype=dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_rows_equal_one_dimensional_tables(self, dtype):
        # each row of a (rows, n) table is its row's 1-D table, bit for bit;
        # float rows mix signed zeros, tiny and huge values
        rng = np.random.default_rng(13)
        for n in range(11):
            if dtype is np.float64:
                values = rng.choice([0.0, -0.0, 5e-324, 0.1, -1 / 3, 1e300, -1e300],
                                    size=(2, n))
                values = np.concatenate([values, rng.normal(size=(3, n)) * 1e3])
            else:
                values = rng.integers(-2**61, 2**61, (5, n), dtype=np.int64)
            tables = subset_sums(values)
            assert tables.dtype == dtype and tables.shape == (5, 2**n)
            for row, table in zip(values, tables):
                assert table.tobytes() == subset_sums(row).tobytes()


class TestKeyRangeSubsets:
    @staticmethod
    def assert_matches_full_tables(rng, k, n, floored, distinct=False):
        """Every chunk against the full tables; returns the chunks' masks.

        With a floor, the masks lie between those in key range that meet
        it and all those in key range; with distinct keys (one key order)
        they are exactly those at or past each run's trim point."""
        columns = (rng.random(n), rng.integers(-10**12, 10**12, n, dtype=np.int64))
        if distinct:
            low_keys = rng.permutation(2**k) * 40.0 / 2**k
        else:
            low_keys = rng.integers(0, 40, 2**k).astype(float)
        lower = rng.integers(-5, 40, 2 ** (n - k)).astype(float)
        upper = lower + rng.integers(-3, 15, lower.size)
        floor = rng.random(lower.size) * k / 2 if floored else None
        tables = [subset_sums(c) for c in columns]
        masks = np.arange(2**n)
        low, high = masks & (2**k - 1), masks >> k
        hit = (lower[high] <= low_keys[low]) & (low_keys[low] <= upper[high])
        chunks = []
        for got, sums in key_range_subsets(
                [subset_sums(c[:k]) for c in columns], [c[k:] for c in columns],
                low_keys, lower, upper, floor):
            assert got.size and np.all(np.diff(got) > 0)
            chunks.append(got)
            for table, column in zip(tables, sums):
                assert column.tobytes() == table[got].tobytes()
        found = np.concatenate(chunks) if chunks else masks[:0]
        assert np.all(np.diff(found) > 0)
        kept = np.isin(masks, found)
        if not floored:
            assert np.array_equal(kept, hit)
            return chunks
        low_mass = subset_sums(columns[0][:k])
        assert not np.any(kept & ~hit)
        assert not np.any(hit & (low_mass[low] >= floor[high]) & ~kept)
        if distinct:
            order = np.argsort(low_keys)
            rank = np.argsort(order)
            trim = np.maximum.accumulate(low_mass[order]).searchsorted(floor)
            assert np.array_equal(kept, hit & (rank[low] >= trim[high]))
        return chunks

    @pytest.mark.parametrize("k", [0, 3, 7, BLOCK_BITS])
    @pytest.mark.parametrize("floored", [False, True])
    def test_matches_full_tables(self, k, floored):
        rng = np.random.default_rng(21)
        for n in range(k, k + 4):
            for distinct in (False, True):
                self.assert_matches_full_tables(rng, k, n, floored, distinct)

    @pytest.mark.parametrize("block_bits", [1, 2, 3])
    @pytest.mark.parametrize("floored", [False, True])
    def test_small_chunks(self, block_bits, floored):
        rng = np.random.default_rng(22)
        spans = singles = 0
        with mock.patch.object(oracle, "BLOCK_BITS", block_bits):
            for k in range(block_bits + 1):
                for n in range(k, k + 6):
                    for chunk in self.assert_matches_full_tables(rng, k, n, floored, True):
                        assert chunk.size <= 2**block_bits
                        highs = np.unique(chunk >> k).size
                        spans += highs > 1
                        singles += highs == 1
        assert spans and singles

    def test_floor_drops_whole_runs(self):
        # the heaviest low up to a run's end in key order misses the floor of
        # some high masks whose runs are not empty: they are dropped
        # unexpanded, and no mask that meets its floor goes with them
        rng = np.random.default_rng(23)
        k, n = 6, 12
        values = rng.random(n)
        low_mass = subset_sums(values[:k])
        low_keys = rng.random(2**k)
        upper = rng.random(2 ** (n - k))
        floor = rng.random(upper.size) * low_mass.max()
        in_run = low_keys <= upper[:, None]
        reach = np.where(in_run, low_mass, -np.inf).max(axis=1)
        dropped = in_run.any(axis=1) & (reach < floor)
        assert dropped.any()
        masks = np.arange(2**n)
        low, high = masks & (2**k - 1), masks >> k
        meets = in_run[high, low] & (low_mass[low] >= floor[high])
        assert meets.any()
        found = np.concatenate([got for got, _ in key_range_subsets(
            [low_mass], [values[k:]], low_keys, np.full_like(upper, -np.inf), upper, floor)])
        assert not np.any(dropped[found >> k])
        assert np.all(np.isin(masks[meets], found))


@st.composite
def ecmm_instances(draw, max_n=16):
    """A generator-family vector, optionally with exact zeros, equal-mass ties,
    denormal entries and one token holding almost all the mass."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, max_n))
    spec = GeneratorSpec(
        family,
        n,
        seed=draw(st.integers(0, 2**32 - 1)),
        a=draw(st.sampled_from([0.2, 1.0, 5.0])),
        shuffle=family == "zipf",
    )
    probs = generate(spec, 1)[0].probs.copy()
    index = st.integers(0, n - 1)
    for i in draw(st.lists(index, max_size=n - 1)):
        probs[i] = 0.0
    for i, j in draw(st.lists(st.tuples(index, index), max_size=4)):
        probs[j] = probs[i]
    if draw(st.booleans()):
        probs[draw(index)] = probs.sum() * draw(st.sampled_from([1e3, 1e9, 1e15]))
    for i in draw(st.lists(index, max_size=3)):
        probs[i] = draw(st.sampled_from([5e-324, 1e-320, 2.2e-308]))
    if not probs.any():
        probs[0] = 1.0
    # alpha 1 makes the whole support feasible at mass 1, where the screen is tightest
    alpha = draw(st.floats(0.05, 0.95) | st.just(1.0))
    return EcmmInstance(make_distribution(probs / probs.sum()), alpha)


@st.composite
def near_tie_instances(draw, max_n=16):
    """``ecmm_instances`` with some tokens set a relative 1e-3 or 1e-9 off
    another, where greedy's choice between near-equal tokens is closest, and
    alpha in (0, 1), where the top-H selector is defined."""
    instance = draw(ecmm_instances(max_n))
    probs = instance.p.probs.copy()
    index = st.integers(0, probs.size - 1)
    for i, j, eps in draw(st.lists(st.tuples(index, index, st.sampled_from(
            [1e-3, -1e-3, 1e-9, -1e-9])), max_size=4)):
        if probs[i] > 0.0:
            probs[j] = probs[i] * (1.0 + eps)
    return EcmmInstance(make_distribution(probs / probs.sum()), draw(st.floats(0.01, 0.99)))


class TestExactEcmmAgainstFullTables:
    """``exact_ecmm`` returns the full-table reference's solution exactly."""

    @settings(max_examples=100, deadline=None)
    @given(ecmm_instances())
    def test_matches_reference(self, instance):
        assert exact_ecmm(instance) == reference_exact_ecmm(instance)

    @settings(max_examples=100, deadline=None)
    @given(ecmm_instances(max_n=10), st.sampled_from([1, 3]))
    # the winner (3, 4, 5) (mask 56) ties on mass with (0, 1, 4, 5) (mask 51),
    # found one chunk earlier, and wins on cardinality
    @example(EcmmInstance(make_distribution(np.array([1, 1, 1, 2, 5, 4, 1]) / 15), 0.7), 1)
    def test_matches_reference_in_small_blocks(self, instance, block_bits):
        # small blocks and chunks carry the incumbent and its ties across
        # many chunks
        with mock.patch.object(oracle, "BLOCK_BITS", block_bits):
            assert exact_ecmm(instance) == reference_exact_ecmm(instance)

    @pytest.mark.parametrize(
        "family,n,alpha",
        [
            ("dirichlet", 14, 0.4),   # exactly one block
            ("dirichlet", 15, 0.4),   # two blocks
            ("gaussian_logits", 14, 0.8),
            ("one_hot_mix", 15, 0.1),
            ("uniform", 15, 0.4),     # every subset of a size ties on mass
            ("uniform", 16, 0.8),     # C(16, 8) tied optima
            ("dirichlet", 20, 0.4),
            ("zipf", 20, 0.8),
            ("gaussian_logits", 20, 0.1),
            ("one_hot_mix", 20, 0.4),
            ("uniform", 20, 0.1),
        ],
    )
    def test_fixed_cases(self, family, n, alpha):
        spec = GeneratorSpec(family, n, seed=7, shuffle=family == "zipf")
        for p in generate(spec, 2):
            instance = EcmmInstance(p, alpha)
            assert exact_ecmm(instance) == reference_exact_ecmm(instance)


class TestScreen:
    """The log-free tests never drop a subset the full-table scan needs.

    The entropy screen is checked at the instance's tangent point, at max p
    and 1 (the ends of the range its margin argument covers) and at
    max p / 7, below that range; the mass floor against the optimum of
    the full-table reference."""

    @staticmethod
    def tables(instance):
        probs = instance.p.probs
        budget = instance.alpha * _entropy_of(probs)
        plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        return probs, plp, budget

    @classmethod
    def tangent_points(cls, instance):
        probs, plp, budget = cls.tables(instance)
        top = float(probs.max())
        return max(oracle._feasible_prefix_mass(probs, plp, budget), top), top, 1.0, top / 7

    @classmethod
    def assert_keeps_every_feasible_subset(cls, instance, k, g0):
        probs, plp, budget = cls.tables(instance)
        mass, hsum = subset_sums(probs), subset_sums(plp)
        with np.errstate(divide="ignore", invalid="ignore"):
            feasible = (mass > 0.0) & (np.log(mass) - hsum / mass <= budget)
        low_key, high_key = oracle._screen_keys(
            (subset_sums(probs[:k]), subset_sums(plp[:k])),
            (subset_sums(probs[k:]), subset_sums(plp[k:])), budget, g0)
        masks = np.arange(mass.size)
        passes = low_key[masks & (2**k - 1)] <= high_key[masks >> k]
        assert np.all(passes[feasible])

    @classmethod
    def assert_floor_keeps_the_optimum(cls, instance, k):
        probs, plp, budget = cls.tables(instance)
        floor = ((oracle._feasible_prefix_mass(probs, plp, budget) - oracle._SCREEN_MARGIN)
                 - subset_sums(probs[k:]))
        masks = np.arange(2**instance.p.n)
        heavy = masks[subset_sums(probs) >= reference_exact_ecmm(instance).gamma]
        assert np.all(subset_sums(probs[:k])[heavy & (2**k - 1)] >= floor[heavy >> k])

    @settings(max_examples=200, deadline=None)
    @given(ecmm_instances(), st.data())
    def test_on_full_tables(self, instance, data):
        k = data.draw(st.integers(0, instance.p.n), label="k")
        g0 = data.draw(st.sampled_from(self.tangent_points(instance)), label="g0")
        self.assert_keeps_every_feasible_subset(instance, k, g0)
        self.assert_floor_keeps_the_optimum(instance, k)

    @pytest.mark.parametrize("family,alpha", [("dirichlet", 0.4), ("zipf", 0.8),
                                              ("one_hot_mix", 0.1), ("uniform", 0.4),
                                              ("dirichlet", 1.0), ("gaussian_logits", 1.0)])
    def test_on_full_tables_at_n20(self, family, alpha):
        instance = EcmmInstance(generate(GeneratorSpec(family, 20, seed=9), 1)[0], alpha)
        for k in (10, BLOCK_BITS):  # the split exact_ecmm takes, and the widest
            for g0 in self.tangent_points(instance):
                self.assert_keeps_every_feasible_subset(instance, k, g0)
            self.assert_floor_keeps_the_optimum(instance, k)

    def test_feasible_prefix_mass(self):
        # prefixes of [0.4, 0.3, 0.2, 0.1] have entropies 0, 0.683, 1.06, 1.28;
        # none is within a zero budget less the margin
        p = np.array([0.1, 0.4, 0.2, 0.3])
        for budget, mass in [(0.0, 0.0), (0.7, 0.7), (1.1, 0.9), (2.0, 1.0)]:
            got = oracle._feasible_prefix_mass(p, p * np.log(p), budget)
            assert got == pytest.approx(mass, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 0.1, 0.125, 0.3]),
                    min_size=1, max_size=20),
           st.floats(0.0, 3.5))
    @example([0.3, -0.0, 0.1, 0.0, 0.1, 5e-324, 5e-324, 0.3], 1.0)
    def test_feasible_prefix_mass_in_any_tie_order(self, values, budget):
        # tied tokens add equal p and p ln p, so any descending order gives
        # the cumulative sums of the stable one
        probs = np.array(values + [0.25])
        plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        order = np.argsort(-probs, kind="stable")
        mass = np.cumsum(probs[order])
        within = np.flatnonzero(np.log(mass) - np.cumsum(plp[order]) / mass
                                <= budget - oracle._SCREEN_MARGIN)
        expected = np.float64(mass[within[-1]] if within.size else 0.0)
        got = np.float64(oracle._feasible_prefix_mass(probs, plp, budget))
        assert got.tobytes() == expected.tobytes()


class TestTieBreak:
    """Mass ties: fewest items, then the lexicographically smallest index set."""

    # zipf weights 1/rank with every rank used twice, so equal masses abound
    ZIPF_PAIRS = np.repeat(1.0 / np.arange(1, 9), 2)
    ZIPF_PAIRS /= ZIPF_PAIRS.sum()

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_zipf_with_duplicated_masses(self, alpha):
        instance = EcmmInstance(make_distribution(self.ZIPF_PAIRS), alpha)
        assert exact_ecmm(instance) == reference_exact_ecmm(instance)

    def test_winner_is_not_the_smallest_tied_mask(self):
        # (3, 4, 5) (mask 56) ties on mass with (0, 1, 4, 5) (mask 51) in the
        # same high mask, and wins on cardinality
        p = make_distribution(np.array([1, 1, 1, 2, 5, 4, 1]) / 15)
        instance = EcmmInstance(p, 0.7)
        assert exact_ecmm(instance) == reference_exact_ecmm(instance)
        assert exact_ecmm(instance).indices == (3, 4, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, 2**n - 1), min_size=2))))
    def test_numpy_winner_matches_min(self, case):
        n, tied = case
        masks = np.asarray(sorted(tied), dtype=np.int64)

        def key(m):
            return m.bit_count(), mask_indices(m)

        keys = oracle._index_order_keys(masks, n)
        assert masks[np.argmin(keys)] == min(tied, key=key)
        # the keys order every pair as the incumbent comparison needs
        assert masks[np.argsort(keys)].tolist() == sorted(tied, key=key)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _scan_weight(weights, tau):
    """Run ``_exact_sum_blocks`` over the subsets of weight ``tau`` with a count column."""
    for _ in hardness._exact_sum_blocks(weights, np.ones(len(weights), dtype=np.int64),
                                        tau, 1, 1):
        pass


class TestBlockMemory:
    """No enumeration holds a full table: 8 MiB per column at n = m = 20, and
    2 GiB at the search limit m = 28."""

    LIMIT = 4 * 2**20

    def test_exact_ecmm(self):
        p = generate(GeneratorSpec("dirichlet", 20, seed=3), 1)[0]
        assert _peak_bytes(exact_ecmm, EcmmInstance(p, 0.4)) < self.LIMIT

    def test_exact_ecmm_when_most_pairs_pass_the_screen(self):
        # 59 % of the 2**20 subsets pass the entropy screen, 4.8 % the mass
        # floor too, and 50 388 tie at the optimum (0.9 plus 7 of 19 equal
        # tokens): survivors are gathered 2**BLOCK_BITS masks at a time
        p = generate(GeneratorSpec("one_hot_mix", 20, seed=3), 1)[0]
        assert _peak_bytes(exact_ecmm, EcmmInstance(p, 0.4)) < self.LIMIT

    def test_exact_ecmm_with_many_tied_optima(self):
        # 184 756 subsets of 10 tokens tie at the optimum; the tie-break keeps
        # one incumbent instead of gathering them all
        p = generate(GeneratorSpec("uniform", 20, seed=3), 1)[0]
        assert _peak_bytes(exact_ecmm, EcmmInstance(p, 0.8)) < self.LIMIT

    def test_decide_full_mode(self):
        weights = tuple(780 + 2 * i for i in range(20))
        instance = reduce_to_ecme(CcssInstance(weights, sum(weights), 20))
        assert _peak_bytes(decide_ecme_small, instance, "full") < self.LIMIT

    def test_cardinality_lock(self):
        weights = tuple(780 + 2 * i for i in range(20))
        assert _peak_bytes(_scan_weight, weights, sum(weights)) < self.LIMIT

    def test_decide_full_mode_at_its_limit(self):
        m = MAX_FULL_SPACE_ITEMS
        weights = tuple(780 + 2 * i for i in range(m))
        instance = reduce_to_ecme(CcssInstance(weights, sum(weights), m))
        assert _peak_bytes(decide_ecme_small, instance, "full") < self.LIMIT

    def test_cardinality_lock_at_its_limit(self):
        # 120 510 subsets of 11 of the 28 weights weigh 8 810
        weights = tuple(780 + 2 * i for i in range(MAX_FULL_SPACE_ITEMS))
        assert _peak_bytes(_scan_weight, weights, 11 * 780 + 2 * 115) < self.LIMIT


class TestExactEcmm:
    def test_uniform_four(self):
        sol = exact_ecmm(EcmmInstance(uniform_distribution(4), 0.4))
        assert sol.indices == (0,)
        assert sol.gamma == 0.25

    def test_knapsack_instance(self):
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        sol = exact_ecmm(EcmmInstance(p, 0.4))
        assert sol.indices == (0, 3)
        assert sol.gamma == 0.5
        # feasibility re-verified through the independent batch-entropy path
        sub = renormalize(p, sol.indices)
        assert entropy(sub) <= 0.4 * entropy(p)
        assert entropy(sub) == pytest.approx(0.500403, abs=1e-6)
        assert 0.4 * entropy(p) == pytest.approx(0.511942, abs=1e-6)

    def test_three_token_instance(self):
        p = make_distribution([0.4, 0.35, 0.25])
        sol = exact_ecmm(EcmmInstance(p, 0.4))
        assert sol.indices == (0,)
        assert sol.gamma == 0.4

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            raw = rng.random(n) + 1e-9
            p = make_distribution(raw / raw.sum())
            alpha = float(rng.uniform(0.1, 0.9))
            sol = exact_ecmm(EcmmInstance(p, alpha))
            bf_idx, bf_gamma = brute_force_ecmm(p, alpha)
            assert sol.indices == bf_idx
            assert sol.gamma == bf_gamma

    def test_feasibility_post_hoc(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            raw = rng.random(n) + 1e-9
            p = make_distribution(raw / raw.sum())
            alpha = float(rng.uniform(0.1, 0.9))
            sol = exact_ecmm(EcmmInstance(p, alpha))
            assert entropy(renormalize(p, sol.indices)) <= alpha * entropy(p) + 1e-9

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            raw = rng.random(10) + 1e-9
            p = make_distribution(raw / raw.sum())
            a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
            g1 = exact_ecmm(EcmmInstance(p, float(a1))).gamma
            g2 = exact_ecmm(EcmmInstance(p, float(a2))).gamma
            assert g1 <= g2 + 1e-15

    def test_permutation_covariance(self):
        rng = np.random.default_rng(14)
        raw = rng.random(8) + 1e-9
        probs = raw / raw.sum()
        p = make_distribution(probs)
        perm = rng.permutation(8)
        p_perm = make_distribution(probs[perm])
        sol = exact_ecmm(EcmmInstance(p, 0.4))
        sol_perm = exact_ecmm(EcmmInstance(p_perm, 0.4))
        assert sol_perm.gamma == pytest.approx(sol.gamma, abs=1e-12)
        # position j of the permuted vector holds old token perm[j]
        back = sorted(int(perm[j]) for j in sol_perm.indices)
        assert back == sorted(sol.indices)

    def test_vocabulary_limit(self):
        with pytest.raises(VocabularyTooLarge):
            exact_ecmm(EcmmInstance(uniform_distribution(21), 0.4))

    @pytest.mark.parametrize("alpha", [-0.1, -1e-300, float("nan"), float("inf"), -float("inf")])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            EcmmInstance(make_distribution([0.5, 0.3, 0.2]), alpha)

    @pytest.mark.parametrize("alpha,indices", [(0.0, (0,)), (1.0, (0, 1, 2)), (7.5, (0, 1, 2))])
    def test_alpha_zero_and_above_one_are_valid(self, alpha, indices):
        instance = EcmmInstance(make_distribution([0.5, 0.3, 0.2]), alpha)
        assert exact_ecmm(instance).indices == indices

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0))
    # every singleton's float entropy ln p - (p ln p) / p rounds above 0 here
    @example(0.3818147799662388)
    @example(0.80236416)
    def test_alpha_zero_keeps_the_heaviest_token(self, x):
        # a single token has entropy 0, which a zero budget admits; two
        # tokens of positive mass have entropy above 0
        p = make_distribution([x, 1.0 - x])
        instance = EcmmInstance(p, 0.0)
        sol = exact_ecmm(instance)
        assert sol == reference_exact_ecmm(instance)
        assert sol.indices == (int(np.argmax(p.probs)),)
        assert (sol.gamma, sol.entropy) == (float(p.probs.max()), 0.0)


class TestOptimalityGap:
    @settings(max_examples=300, deadline=None)
    @given(near_tie_instances(max_n=12))
    def test_greedy_keeps_half_the_optimal_mass(self, instance):
        # conjecture: uncapped top-H keeps at least half the optimal mass
        report = optimality_gap([instance.p.probs[None, :]], instance.alpha)
        assert report.rows[0].ratio >= 0.5 - 1e-12

    @pytest.mark.parametrize("eps,ratio", [(1e-3, 0.5015), (1e-4, 0.50015)])
    def test_half_is_tight(self, eps, ratio):
        # the top two tokens are nearly equal, so greedy stops at the first;
        # the unequal pair {0, 2} fits a budget between the pairs' entropies
        p = make_distribution([1 / 3 + eps, 1 / 3, 1 / 3 - eps])
        pair = lambda i, j: entropy(renormalize(p, (i, j)))
        alpha = (pair(0, 2) + pair(0, 1)) / 2 / entropy(p)
        row = optimality_gap([p.probs[None, :]], alpha).rows[0]
        assert row.gamma_greedy == p.probs[0]
        assert row.gamma_optimal == p.probs[0] + p.probs[2]
        assert row.ratio == pytest.approx(ratio, rel=1e-9)

    def test_uniform_batch_all_ones(self):
        blocks = [uniform_distribution(n).probs[None, :] for n in (4, 6, 8)]
        report = optimality_gap(blocks, 0.4)
        assert report.mean == 1.0
        assert report.variance == 0.0
        assert report.count_suboptimal == 0

    def test_known_suboptimal_instance(self):
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        report = optimality_gap([p.probs[None, :]], 0.4)
        assert report.rows[0].gamma_greedy == 0.4
        assert report.rows[0].gamma_optimal == 0.5
        assert report.rows[0].ratio == 0.8
        assert report.count_suboptimal == 1

    def test_dominance(self):
        rng = np.random.default_rng(15)
        rows = []
        for _ in range(80):
            n = int(rng.integers(2, 12))
            raw = rng.random(n) + 1e-9
            p = make_distribution(raw / raw.sum())
            # an alpha per instance, so a report per instance
            rows += optimality_gap([p.probs[None, :]], float(rng.uniform(0.1, 0.9))).rows
        report = GapReport(rows=tuple(rows))
        assert all(0.0 < r.ratio <= 1.0 + 1e-12 for r in report.rows)
        assert report.minimum <= report.mean <= 1.0

    def test_csv_round_trip(self):
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        report = optimality_gap([p.probs[None, :]], 0.4)
        text = gap_report_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["instance_id"] == "i000000"
        assert int(rows[0]["n"]) == 4
        assert float(rows[0]["ratio"]) == 0.8

    def test_no_instances_raise_empty_input(self):
        with pytest.raises(EmptyInput):
            optimality_gap([], 0.4)

    def test_summary_line_fields(self):
        line = summary_line(optimality_gap([uniform_distribution(4).probs[None, :]], 0.4))
        assert "mean=" in line and "variance=" in line
        assert "min=" in line and "count_suboptimal=" in line

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_rows_do_not_depend_on_the_block_cut(self, alpha):
        # small integer weights: ties in every row, and exact zeros
        rng = np.random.default_rng(60)
        weights = rng.integers(0, 5, size=(60, 12)).astype(float)
        weights[:, 0] += 1.0
        probs = weights / weights.sum(axis=1, keepdims=True)
        whole = optimality_gap([probs], alpha).rows
        assert [r.instance_id for r in whole] == [f"i{i:06d}" for i in range(60)]
        assert optimality_gap(np.split(probs, 60), alpha).rows == whole
        cuts = np.sort(rng.choice(np.arange(1, 60), size=6, replace=False))
        assert optimality_gap(np.split(probs, cuts), alpha).rows == whole
