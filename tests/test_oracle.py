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

from toph import oracle
from toph.distributions import (
    _entropy_of,
    entropy,
    make_distribution,
    renormalize,
    uniform_distribution,
)
from toph.errors import VocabularyTooLarge
from toph.hardness import CcssInstance, decide_ecme_small, reduce_to_ecme, verify_cardinality_lock
from toph.oracle import (
    BLOCK_BITS,
    EcmmInstance,
    exact_ecmm,
    gap_report_csv,
    mask_indices,
    optimality_gap,
    subset_blocks,
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


class TestSubsetBlocks:
    @pytest.mark.parametrize("block_bits", [3, 7, BLOCK_BITS])
    def test_concatenated_blocks_equal_subset_sums(self, block_bits):
        rng = np.random.default_rng(21)
        for n in range(17):
            columns = (rng.random(n), rng.integers(-10**12, 10**12, n, dtype=np.int64))
            firsts, parts = [], ([], [])
            for first, sums in subset_blocks(columns, block_bits=block_bits):
                firsts.append(first)
                for part, block in zip(parts, sums):
                    part.append(block.copy())  # the enumerator reuses its buffers
            assert firsts == list(range(0, 2**n, 2 ** min(n, block_bits)))
            for column, part in zip(columns, parts):
                got = np.concatenate(part)
                assert got.dtype == column.dtype
                assert got.tobytes() == subset_sums(column).tobytes()


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


class TestExactEcmmAgainstFullTables:
    """``exact_ecmm`` returns the full-table reference's solution exactly."""

    @settings(max_examples=100, deadline=None)
    @given(ecmm_instances())
    def test_matches_reference(self, instance):
        assert exact_ecmm(instance) == reference_exact_ecmm(instance)

    @settings(max_examples=100, deadline=None)
    @given(ecmm_instances(max_n=10), st.sampled_from([1, 3]))
    # the winner (3, 4, 5) (mask 56) ties on mass with (0, 1, 4, 5) (mask 51),
    # found one block earlier, and wins on cardinality
    @example(EcmmInstance(make_distribution(np.array([1, 1, 1, 2, 5, 4, 1]) / 15), 0.7), 3)
    def test_matches_reference_in_small_blocks(self, instance, block_bits):
        # small blocks carry the incumbent and its ties across many blocks
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
    """The log-free screen never drops a subset the float entropy keeps."""

    @staticmethod
    def assert_keeps_every_feasible_subset(instance, k):
        probs = instance.p.probs
        budget = instance.alpha * _entropy_of(probs)
        plp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        mass, hsum = subset_sums(probs), subset_sums(plp)
        with np.errstate(divide="ignore", invalid="ignore"):
            feasible = (mass > 0.0) & (np.log(mass) - hsum / mass <= budget)
        low_key, high_key = oracle._screen_keys(probs, plp, budget, k)
        masks = np.arange(mass.size)
        passes = low_key[masks & (2**k - 1)] <= high_key[masks >> k]
        assert np.all(passes[feasible])

    @settings(max_examples=200, deadline=None)
    @given(ecmm_instances(), st.data())
    def test_on_full_tables(self, instance, data):
        k = data.draw(st.integers(0, instance.p.n), label="k")
        self.assert_keeps_every_feasible_subset(instance, k)

    @pytest.mark.parametrize("family,alpha", [("dirichlet", 0.4), ("zipf", 0.8),
                                              ("one_hot_mix", 0.1), ("uniform", 0.4),
                                              ("dirichlet", 1.0), ("gaussian_logits", 1.0)])
    def test_on_full_tables_at_n20(self, family, alpha):
        p = generate(GeneratorSpec(family, 20, seed=9), 1)[0]
        self.assert_keeps_every_feasible_subset(EcmmInstance(p, alpha), BLOCK_BITS)


class TestTieBreak:
    """Mass ties: fewest items, then the lexicographically smallest index set."""

    # zipf weights 1/rank with every rank used twice, so equal masses abound
    ZIPF_PAIRS = np.repeat(1.0 / np.arange(1, 9), 2)
    ZIPF_PAIRS /= ZIPF_PAIRS.sum()

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_zipf_with_duplicated_masses(self, alpha):
        instance = EcmmInstance(make_distribution(self.ZIPF_PAIRS), alpha)
        assert exact_ecmm(instance) == reference_exact_ecmm(instance)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, 2**n - 1), min_size=2))))
    def test_numpy_winner_matches_min(self, case):
        n, tied = case
        masks = np.asarray(sorted(tied), dtype=np.int64)
        best = min(tied, key=lambda m: (bin(m).count("1"), mask_indices(m)))
        assert masks[oracle._first_in_index_order(masks, n)] == best


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    """At n = m = 20 no enumeration holds a full 2**20 table (8 MiB per column)."""

    LIMIT = 4 * 2**20

    def test_exact_ecmm(self):
        p = generate(GeneratorSpec("dirichlet", 20, seed=3), 1)[0]
        assert _peak_bytes(exact_ecmm, EcmmInstance(p, 0.4)) < self.LIMIT

    def test_decide_full_mode(self):
        weights = tuple(780 + 2 * i for i in range(20))
        instance = reduce_to_ecme(CcssInstance(weights, sum(weights), 20))
        assert _peak_bytes(decide_ecme_small, instance, "full") < self.LIMIT

    def test_cardinality_lock(self):
        weights = tuple(780 + 2 * i for i in range(20))
        assert _peak_bytes(verify_cardinality_lock, weights, sum(weights), 20) < self.LIMIT


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


class TestOptimalityGap:
    def test_uniform_batch_all_ones(self):
        instances = [EcmmInstance(uniform_distribution(n), 0.4) for n in (4, 6, 8)]
        report = optimality_gap(instances)
        assert report.mean == 1.0
        assert report.variance == 0.0
        assert report.count_suboptimal == 0

    def test_known_suboptimal_instance(self):
        inst = EcmmInstance(make_distribution([0.4, 0.3, 0.2, 0.1]), 0.4)
        report = optimality_gap([inst])
        assert report.rows[0].gamma_greedy == 0.4
        assert report.rows[0].gamma_optimal == 0.5
        assert report.rows[0].ratio == 0.8
        assert report.count_suboptimal == 1

    def test_dominance(self):
        rng = np.random.default_rng(15)
        instances = []
        for _ in range(80):
            n = int(rng.integers(2, 12))
            raw = rng.random(n) + 1e-9
            instances.append(
                EcmmInstance(make_distribution(raw / raw.sum()), float(rng.uniform(0.1, 0.9)))
            )
        report = optimality_gap(instances)
        assert all(0.0 < r.ratio <= 1.0 + 1e-12 for r in report.rows)
        assert report.minimum <= report.mean <= 1.0

    def test_csv_round_trip(self):
        inst = EcmmInstance(make_distribution([0.4, 0.3, 0.2, 0.1]), 0.4)
        report = optimality_gap([inst], ids=["case0"])
        text = gap_report_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["instance_id"] == "case0"
        assert int(rows[0]["n"]) == 4
        assert float(rows[0]["ratio"]) == 0.8

    def test_summary_line_fields(self):
        inst = EcmmInstance(uniform_distribution(4), 0.4)
        line = summary_line(optimality_gap([inst]))
        assert "mean=" in line and "variance=" in line
        assert "min=" in line and "count_suboptimal=" in line
