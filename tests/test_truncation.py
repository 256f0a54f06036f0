"""Unit tests for the truncation methods and token sampling."""

import dataclasses
import math
import os
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toph.distributions import (
    SubsetDistribution,
    entropy,
    make_distribution,
    uniform_distribution,
)
from toph.errors import (
    AlphaOutOfRange,
    EtaOutOfRange,
    NonFiniteValue,
    NucleusOutOfRange,
    PBaseOutOfRange,
    ZeroK,
)
from toph.synthgen import CHUNK_ELEMENTS, chunk_rows, read_dataset, write_dataset
from toph.truncation import (
    _HEAD,
    Method,
    TruncationConfig,
    TruncationResult,
    _descending_order,
    draw_tokens,
    sample_token,
    select_block,
    truncate,
)

from toph.rng import u01

from top_h_reference import reference_top_h, reference_truncate


def is_plus_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


def config(method=Method.TOP_H, **kw):
    return TruncationConfig(method=method, **kw)


def random_distribution(rng, n):
    raw = rng.random(n) + 1e-12
    return make_distribution(raw / raw.sum())


class TestTopH:
    def test_peaked_keeps_single_token(self):
        p = make_distribution([0.6, 0.3, 0.1])
        r = truncate(p, config(alpha=0.4), collect_trace=True)
        assert r.selected == (0,)
        assert r.subset.gamma == 0.6
        assert r.threshold == pytest.approx(0.359178, abs=1e-6)
        # the rejected step would have been H([2/3, 1/3]) = 0.636514
        h_two = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert h_two == pytest.approx(0.636514, abs=1e-6)
        assert h_two > r.threshold
        assert r.h_q <= r.threshold

    def test_uniform_eight(self):
        r = truncate(uniform_distribution(8), config(alpha=0.4))
        assert r.selected == (0, 1)
        assert r.subset.gamma == pytest.approx(0.25, abs=1e-15)
        assert math.log(2) <= 0.4 * math.log(8) < math.log(3)

    def test_one_hot(self):
        r = truncate(make_distribution([0.0, 1.0, 0.0]), config(alpha=0.4))
        assert r.selected == (1,)
        assert r.subset.gamma == 1.0
        assert r.h_q == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("probs, alpha", [
        ([0.0, 1.0, 0.0], 0.4),
        ([1.0], 0.4),
        # the running form reads ln 0.65 - (0.65 ln 0.65) / 0.65 = 5.6e-17
        ([0.65, 0.25, 0.1], 0.1),
        # within MASS_TOLERANCE of 1, so kept as read: h_p and the budget are
        # an ulp below 0, and the first token is still kept
        ([1.0000000000000002], 0.4),
        ([1.0000000000000002, 0.0], 0.4),
    ])
    def test_a_single_token_has_entropy_plus_zero(self, probs, alpha):
        p = make_distribution(probs)
        r = truncate(p, config(alpha=alpha), collect_trace=True)
        assert len(r.selected) == 1
        assert is_plus_zero(r.h_q) and is_plus_zero(r.trace[0].entropy)
        if max(probs) == 1.0:
            assert is_plus_zero(entropy(p)) and is_plus_zero(r.h_p)
            assert is_plus_zero(r.threshold)
        for method in Method:  # every method's one-token selection
            cfg = config(method, k=1, p_nucleus=0.5, p_base=0.99, eta=0.99, alpha=alpha)
            one = truncate(p, cfg)
            assert len(one.selected) == 1 and is_plus_zero(one.h_q)

    def test_alpha_validation(self):
        p = uniform_distribution(4)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(AlphaOutOfRange):
                truncate(p, config(alpha=bad))

    def test_selected_is_prefix_of_descending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_distribution(rng, int(rng.integers(2, 40)))
            r = truncate(p, config(alpha=float(rng.uniform(0.05, 0.95))))
            order = np.lexsort((np.arange(p.n), -p.probs))
            assert r.selected == tuple(int(i) for i in order[: len(r.selected)])

    def test_constraint_and_early_termination(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            p = random_distribution(rng, n)
            alpha = float(rng.uniform(0.05, 0.95))
            r = truncate(p, config(alpha=alpha))
            assert len(r.selected) >= 1
            assert r.h_q <= alpha * r.h_p + 1e-9
            if r.h_p > 0:
                assert len(r.selected) < n

    def test_trace_strictly_increases_with_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_distribution(rng, 20)
            r = truncate(p, config(alpha=0.8), collect_trace=True)
            steps = r.trace
            assert len(steps) == len(r.selected)
            for a, b in zip(steps, steps[1:]):
                p_j = b.gamma - a.gamma
                assert b.entropy - a.entropy >= math.log(1 + p_j / a.gamma) - 1e-9

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(6)
        cases = []
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            cases.append((random_distribution(rng, n), float(rng.uniform(0.05, 0.95)), 100))
        # caps that cut through a run of ties
        for alpha in (0.1, 0.4, 0.7, 0.9):
            cases.append((uniform_distribution(300), alpha, 100))
            cases.append((make_distribution([0.1, 0.3, 0.2, 0.2, 0.2]), alpha, 3))
        # prefix {0, 1} has entropy ln 2, exactly the budget 0.5 ln 4: kept
        cases.append((uniform_distribution(4), 0.5, 100))
        for p, alpha, cap in cases:
            r = truncate(p, config(alpha=alpha, candidate_cap=cap))
            assert r.selected == reference_top_h(p.probs, alpha, cap)

    def test_determinism(self):
        p = make_distribution([0.25, 0.25, 0.25, 0.25])
        a = truncate(p, config(alpha=0.4))
        b = truncate(p, config(alpha=0.4))
        assert a.selected == b.selected
        assert a.subset.gamma == b.subset.gamma

    def test_threshold_recomputed_per_call(self):
        sharp = make_distribution([0.9, 0.05, 0.05])
        flat = uniform_distribution(3)
        r_sharp = truncate(sharp, config(alpha=0.4))
        r_flat = truncate(flat, config(alpha=0.4))
        assert r_sharp.threshold != r_flat.threshold
        assert r_sharp.threshold == pytest.approx(0.4 * entropy(sharp), abs=1e-12)

    def test_candidate_cap_restricts_and_renormalizes(self):
        p = uniform_distribution(10)
        r = truncate(p, config(alpha=0.9, candidate_cap=4))
        # working distribution is uniform over 4: budget 0.9 ln4 admits 3 tokens
        assert r.h_p == pytest.approx(math.log(4), abs=1e-12)
        assert set(r.selected) <= {0, 1, 2, 3}


class TestTopK:
    def test_hand_example(self):
        r = truncate(make_distribution([0.5, 0.3, 0.2]), config(Method.TOP_K, k=2))
        assert r.selected == (0, 1)
        assert np.allclose(r.subset.q, [0.625, 0.375], atol=1e-12)

    def test_k_at_least_n_is_identity(self):
        p = make_distribution([0.5, 0.3, 0.2])
        r = truncate(p, config(Method.TOP_K, k=7))
        assert r.selected == (0, 1, 2)
        assert np.allclose(r.subset.q, p.probs, atol=1e-12)

    def test_tie_break_on_uniform(self):
        r = truncate(uniform_distribution(4), config(Method.TOP_K, k=1))
        assert r.selected == (0,)

    def test_zero_k(self):
        with pytest.raises(ZeroK):
            truncate(uniform_distribution(3), config(Method.TOP_K, k=0))


class TestTopP:
    def test_hand_example(self):
        r = truncate(
            make_distribution([0.5, 0.3, 0.15, 0.05]),
            config(Method.TOP_P, p_nucleus=0.9),
        )
        # cumulative masses 0.5, 0.8, 0.95 -> first >= 0.9 is the third
        assert r.selected == (0, 1, 2)

    def test_full_mass(self):
        r = truncate(
            make_distribution([0.5, 0.3, 0.2]), config(Method.TOP_P, p_nucleus=1.0)
        )
        assert r.selected == (0, 1, 2)

    def test_one_hot(self):
        r = truncate(
            make_distribution([0.0, 1.0]), config(Method.TOP_P, p_nucleus=0.9)
        )
        assert r.selected == (1,)

    def test_inclusive_boundary(self):
        # cumulative hits the target exactly at the first token
        r = truncate(
            make_distribution([0.5, 0.25, 0.25]), config(Method.TOP_P, p_nucleus=0.5)
        )
        assert r.selected == (0,)

    def test_range_errors(self):
        for bad in (0.0, 1.2, -0.5):
            with pytest.raises(NucleusOutOfRange):
                truncate(uniform_distribution(3), config(Method.TOP_P, p_nucleus=bad))


class TestMinP:
    def test_hand_example(self):
        r = truncate(
            make_distribution([0.6, 0.25, 0.1, 0.05]),
            config(Method.MIN_P, p_base=0.1),
        )
        # cutoff 0.06 keeps the first three tokens
        assert r.selected == (0, 1, 2)
        expected = [0.6 / 0.95, 0.25 / 0.95, 0.1 / 0.95]
        assert np.allclose(r.subset.q, expected, atol=1e-12)
        assert np.allclose(r.subset.q, [0.631579, 0.263158, 0.105263], atol=1e-6)

    def test_uniform_keeps_all(self):
        r = truncate(uniform_distribution(6), config(Method.MIN_P, p_base=0.5))
        assert r.selected == (0, 1, 2, 3, 4, 5)

    def test_one_hot(self):
        r = truncate(make_distribution([0.0, 0.0, 1.0]), config(Method.MIN_P, p_base=0.1))
        assert r.selected == (2,)

    def test_boundary_token_kept(self):
        # tokens exactly at the cutoff survive (>= comparison);
        # 0.5 * 0.5 = 0.25 is exact in binary
        r = truncate(
            make_distribution([0.5, 0.25, 0.25]), config(Method.MIN_P, p_base=0.5)
        )
        assert r.selected == (0, 1, 2)

    def test_range_errors(self):
        for bad in (0.0, 1.0):
            with pytest.raises(PBaseOutOfRange):
                truncate(uniform_distribution(3), config(Method.MIN_P, p_base=bad))


class TestEta:
    def test_uniform_keeps_all(self):
        p = uniform_distribution(4)
        cutoff = min(0.0002, math.sqrt(0.0002) * math.exp(-entropy(p)))
        assert cutoff == pytest.approx(0.0002, abs=1e-12)
        r = truncate(p, config(Method.ETA, eta=0.0002))
        assert r.selected == (0, 1, 2, 3)

    def test_one_hot(self):
        r = truncate(make_distribution([1.0, 0.0]), config(Method.ETA, eta=0.0002))
        assert r.selected == (0,)

    def test_near_one_hot_drops_tail(self):
        p = make_distribution([0.9999, 0.0001])
        cutoff = min(0.0002, math.sqrt(0.0002) * math.exp(-entropy(p)))
        assert cutoff > 0.0001  # tail falls below the cutoff
        r = truncate(p, config(Method.ETA, eta=0.0002))
        assert r.selected == (0,)

    def test_top_token_survives_cutoff(self):
        # max prob below the cutoff: top token must still be selected
        p = uniform_distribution(10000)
        r = truncate(p, config(Method.ETA, eta=0.5, candidate_cap=10000))
        assert len(r.selected) >= 1

    def test_range_errors(self):
        for bad in (0.0, 1.0):
            with pytest.raises(EtaOutOfRange):
                truncate(uniform_distribution(3), config(Method.ETA, eta=bad))


class TestCommonProperties:
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_all_methods_return_valid_subsets(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, n)
        configs = [
            config(Method.TOP_H, alpha=0.4),
            config(Method.TOP_K, k=3),
            config(Method.TOP_P, p_nucleus=0.9),
            config(Method.MIN_P, p_base=0.1),
            config(Method.ETA, eta=0.0002),
        ]
        for cfg in configs:
            r = truncate(p, cfg)
            assert len(r.selected) >= 1
            assert float(r.subset.q.sum()) == pytest.approx(1.0, abs=1e-9)
            assert r.subset.gamma > 0


class TestConfigValidation:
    def test_every_field_checked_at_construction(self):
        # whatever the method, so a bad field cannot ride along unread
        with pytest.raises(ZeroK):
            TruncationConfig(k=0)
        with pytest.raises(ZeroK):
            TruncationConfig(method=Method.TOP_K, candidate_cap=0)
        with pytest.raises(AlphaOutOfRange):
            TruncationConfig(method=Method.TOP_K, alpha=1.5)
        with pytest.raises(EtaOutOfRange):
            dataclasses.replace(TruncationConfig(), eta=2.0)

    @pytest.mark.parametrize("field, value, error", [
        ("candidate_cap", 2.5, ZeroK),
        ("candidate_cap", 100.0, ZeroK),
        ("candidate_cap", True, ZeroK),
        ("k", True, ZeroK),
        ("k", np.float64(3.0), ZeroK),
        ("k", "3", ZeroK),
        ("alpha", True, AlphaOutOfRange),
        ("alpha", None, AlphaOutOfRange),
        ("p_nucleus", True, NucleusOutOfRange),
        ("p_base", np.bool_(True), PBaseOutOfRange),
        ("eta", False, EtaOutOfRange),
    ])
    def test_wrong_type_fails_where_it_enters(self, field, value, error):
        # a float cap used to crash truncate later with a bare TypeError,
        # and a boolean passed as 1
        with pytest.raises(error, match=f"{field} must be"):
            TruncationConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = TruncationConfig(method=Method.TOP_K, alpha=np.float64(0.3), k=np.int64(2),
                               p_nucleus=np.float32(0.5), candidate_cap=np.int32(7),
                               p_base=1e-3, eta=np.float64(1e-3))
        assert truncate(make_distribution([0.5, 0.3, 0.2]), cfg).selected == (0, 1)


@st.composite
def hostile_probs(draw):
    """Exact zeros, denormals and all-equal runs, one run longer than the cap."""
    cap = draw(st.integers(1, 1000))
    runs = draw(st.lists(st.integers(1, cap + 50), min_size=1, max_size=3))
    runs[0] = cap + draw(st.integers(1, 50))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(runs), max_size=len(runs)))
    tiny = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-320]), max_size=60))
    total = sum(weights)
    parts = [np.full(n, w / total / n) for n, w in zip(runs, weights)]
    probs = np.concatenate(parts + [np.asarray(tiny, dtype=np.float64)])
    if draw(st.booleans()):
        probs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(probs)
    return probs, cap


def assert_top_h_matches_reference(p, r, alpha, cap):
    """Equal to the reference, except where a prefix sits on the budget.

    The library's running entropy ln(gamma) - h/gamma and the reference's
    -sum q ln q round differently, so a prefix whose entropy equals the
    budget (uniform runs make that common) can land on either side of it by
    an ulp.  Only that one-token disagreement is allowed; 1e-12 is far above
    the rounding of sums over at most 1000 terms and far below any real gap.
    """
    ref = reference_top_h(p.probs, alpha, cap)
    if r.selected == ref:
        return
    short, long = sorted((r.selected, ref), key=len)
    assert len(long) == len(short) + 1 and long[: len(short)] == short
    q = p.probs[list(long)] / np.sum(p.probs[list(long)])
    assert abs(float(-np.dot(q, np.log(q))) - r.threshold) <= 1e-12


def check_all_methods(p, cap, alpha):
    for method in Method:
        r = truncate(p, config(method, alpha=alpha, candidate_cap=cap))
        assert len(r.selected) >= 1
        assert math.isfinite(r.h_q)
        assert np.all(np.isfinite(r.subset.q))
        if method == Method.TOP_H:
            assert_top_h_matches_reference(p, r, alpha, cap)


class TestHostileInputs:
    @given(hostile_probs(), st.floats(0.01, 0.99))
    # the library keeps 4 tokens at entropy ln 4 == budget; the reference 3
    @example(case=(np.full(65, 1 / 65), 64), alpha=1 / 3)
    @settings(max_examples=100, deadline=None)
    def test_zeros_denormals_and_tied_runs(self, case, alpha):
        probs, cap = case
        check_all_methods(make_distribution(probs), cap, alpha)

    @given(
        st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-1e6, 0.0, 1e6])),
                 min_size=1, max_size=200),
        st.one_of(st.sampled_from([1e-6, 1.0]), st.floats(1e-6, 100.0)),
        st.integers(1, 1000),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_extreme_logits_and_temperatures(self, logits, temperature, cap, alpha):
        try:
            p = make_distribution(logits, mode="logits", temperature=temperature)
        except NonFiniteValue:
            return
        check_all_methods(p, cap, alpha)


@st.composite
def mixed_chunks(draw):
    """Runs of records of a few vocabulary sizes, each record adversarial.

    Records carry exact zeros, -0.0, denormals and runs of tied values whose
    length is drawn around the candidate cap; n = 1 records are common.
    """
    # caps and sizes above 128 make work rows wider than numpy's unrolled
    # summation block, so row sums and cumulative sums take the pairwise path
    cap = draw(st.sampled_from([1, 2, 3, 4, 7, 64, 100, 200, 1000]))
    dists = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([1, 2, 3, 5, 8, 65, 130, 300, 2000]))
        for _ in range(draw(st.integers(1, 4))):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            weights = rng.random(n) ** draw(st.sampled_from([1, 4]))
            tied = draw(st.integers(0, min(n, cap + 2)))
            start = draw(st.integers(0, n - tied))
            # a tied run at the top (value 1.0) straddles the cap when longer than it
            weights[start:start + tied] = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
            specials = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-320]),
                                     max_size=min(20, n - 1)))
            weights[rng.permutation(n)[:len(specials)]] = specials
            if not np.any(weights > 0.0):
                weights[0] = 1.0
            dists.append(make_distribution(weights / np.sum(weights)))
    return dists, cap


def dataset_blocks(dists):
    """``dists`` cut into blocks as ``read_dataset`` cuts a file of them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        write_dataset(path, dists)
        return list(read_dataset(path))


def assert_block_matches_reference(dists, cfg):
    """Every row of the chunked pass (``sweep``'s path) equals the scalar reference, with ==."""
    blocks = [select_block(block.probs, cfg, collect_trace=True)
              for block in dataset_blocks(dists)]
    rows = [(block, r) for block in blocks for r in range(len(block))]
    assert len(rows) == len(dists)
    draws = [block.draw(block_uniforms(block)) for block in blocks]
    for p, (block, r), drawn in zip(dists, rows, (row for d in draws for row in d)):
        ref = reference_truncate(p.probs, cfg.method.value, alpha=cfg.alpha, k=cfg.k,
                                 p_nucleus=cfg.p_nucleus, p_base=cfg.p_base, eta=cfg.eta,
                                 candidate_cap=cfg.candidate_cap)
        assert tuple(block.selected(r)) == ref.selected
        assert block.gamma[r] == ref.gamma
        assert block.h_p[r] == ref.h_p
        assert block.h_q[r] == ref.h_q
        assert block.threshold[r] == ref.threshold
        assert block.stop_reason[r] == ref.stop_reason
        assert block.dropped_mass[r] == ref.dropped_mass
        # the scalar API is a chunk of one; only top-H keeps a trace
        single = truncate(p, cfg, collect_trace=True)
        assert single.selected == ref.selected
        assert (single.subset.gamma, single.h_p, single.h_q, single.threshold) == (
            ref.gamma, ref.h_p, ref.h_q, ref.threshold)
        for trace in (block.trace[r] if block.trace else None, single.trace):
            steps = None if trace is None else tuple((s.index, s.gamma, s.entropy) for s in trace)
            assert steps == (ref.trace if cfg.method == Method.TOP_H else None)
        # the chunk's draws equal the scalar draws of the same uniforms
        assert drawn.tolist() == draw_tokens(single, block_uniforms(block)[r]).tolist()


def block_uniforms(block):
    """Per-row uniforms for ``block.draw``: generated ones, 0, 1 - ulp and every
    row's middle and last in-order cumulative sum (draws exactly on a boundary)."""
    u = np.empty((len(block), 20))
    u[:, :16] = u01(7, 0, np.arange(len(block) * 16)).reshape(len(block), 16)
    u[:, 16:18] = [0.0, 1.0 - 2**-53]
    for r in range(len(block)):
        cum = np.cumsum(block.result(r).subset.q)
        u[r, 18:] = [cum[cum.shape[0] // 2], cum[-1]]
    return u


class TestChunkedPassAgainstReference:
    @given(
        mixed_chunks(),
        st.floats(0.01, 0.99),
        st.integers(1, 30),
        st.floats(0.05, 1.0),
        st.floats(0.01, 0.99),
        st.floats(1e-5, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_methods_equal_scalar_reference(self, case, alpha, k, p_nucleus, p_base, eta):
        dists, cap = case
        for method in Method:
            cfg = config(method, alpha=alpha, k=k, p_nucleus=p_nucleus, p_base=p_base,
                         eta=eta, candidate_cap=cap)
            assert_block_matches_reference(dists, cfg)

    def test_exact_tie_at_the_budget(self):
        # uniform(65), cap 64, alpha 1/3: the 4-token prefix has entropy ln 4,
        # on the budget in the running form, so it is kept
        dists = [uniform_distribution(65)] * 3
        cfg = config(alpha=1 / 3, candidate_cap=64)
        assert_block_matches_reference(dists, cfg)
        assert len(truncate(dists[0], cfg).selected) == 4

    def test_an_entry_above_one_is_kept(self):
        # a one-hot row an ulp over 1 has a budget below 0; its top token is
        # still the whole selection, in a block and as drawn
        over = 1.0000000000000002
        dists = [make_distribution(v) for v in (
            [0.5, 0.5, 0.0], [over, 0.0, 0.0], [0.0, over, 0.0], [0.7, 0.2, 0.1])]
        for method in Method:
            assert_block_matches_reference(dists, config(method, k=1))
        (block,) = [select_block(b.probs, config()) for b in dataset_blocks(dists)]
        assert block.counts[1:3] == [1, 1]
        drawn = block.draw(block_uniforms(block))
        assert set(drawn[1].tolist()) == {0} and set(drawn[2].tolist()) == {1}

    def test_rows_around_the_top_h_head(self):
        # top-H scans the first _HEAD work entries of a row and rescans the
        # whole row only when it kept them all.  Uniform(m) rows padded with
        # zeros to n = 100 (the first has its zero at index _HEAD) keep
        # floor(m ** alpha) tokens, so alpha 0.9 at cap 100 and an alpha
        # half a token past ln _HEAD / ln (_HEAD + 1) at the small caps put
        # counts on both sides of the head, rescanned or not.
        dists = [make_distribution((np.arange(100) < m) / m) for m in range(_HEAD, 2 * _HEAD)]
        dists.append(uniform_distribution(100))
        kept = {}
        for alpha in (0.9, math.log(_HEAD + 0.5) / math.log(_HEAD + 1)):
            for cap in (_HEAD, _HEAD + 1, 100):
                cfg = config(alpha=alpha, candidate_cap=cap)
                assert_block_matches_reference(dists, cfg)
                (block,) = [select_block(b.probs, cfg) for b in dataset_blocks(dists)]
                kept.setdefault(cap, set()).update(block.counts)
        assert _HEAD - 1 in kept[_HEAD]
        assert _HEAD in kept[_HEAD + 1]
        assert {_HEAD - 1, _HEAD, _HEAD + 1} <= kept[100]

    @pytest.mark.parametrize("cap, alpha", [(_HEAD + 1, 0.9), (_HEAD + 1, 0.99), (64, 0.9),
                                            (100, 0.9), (1000, 0.9)])
    def test_rows_that_keep_more_than_the_head(self, cap, alpha):
        # a row that keeps its whole head goes on from entry _HEAD with the
        # head's running sums.  Softmax rows of 1000 tokens and zero-padded
        # uniform(m) rows (floor(m ** alpha) tokens) keep 17 to 100 tokens and
        # more at alpha 0.9; at cap 17 they stop inside the head, and at alpha
        # 0.99 they keep it and stop on entry 17, whose entropy is over budget
        rng = np.random.default_rng(cap)
        dists = [make_distribution(rng.normal(0.0, sigma, 1000), mode="logits")
                 for sigma in (0.5, 1.0, 2.0)]
        dists += [make_distribution((np.arange(1000) < m) / m) for m in (24, 60, 120, 166)]
        cfg = config(alpha=alpha, candidate_cap=cap)
        assert_block_matches_reference(dists, cfg)
        kept = []
        for block in dataset_blocks(dists):
            plain, traced = (select_block(block.probs, cfg, trace) for trace in (False, True))
            assert plain.trace is None
            assert (plain.counts, plain.gamma, plain.h_q, plain.stop_reason) == (
                traced.counts, traced.gamma, traced.h_q, traced.stop_reason)
            kept += plain.counts
        assert (min(kept) >= _HEAD) is (cap > _HEAD + 1 or alpha > 0.9)
        assert any(_HEAD < count <= 100 for count in kept) is (cap > _HEAD + 1)

    @pytest.mark.parametrize("n", [100, 5000])
    def test_full_chunks_of_generated_records(self, n):
        # more records than one chunk holds, so the pass runs several chunks
        rng = np.random.default_rng(n)
        count = CHUNK_ELEMENTS // n + 2
        dists = [make_distribution(rng.normal(0.0, 2.0, n), mode="logits")
                 for _ in range(count)]
        for method in Method:
            assert_block_matches_reference(dists, config(method))


class TestChunkMemory:
    @pytest.mark.parametrize("collect_trace", [False, True])
    def test_large_vocabulary_goes_one_record_at_a_time(self, collect_trace):
        # one record's arrays: a float64 copy of its probabilities and its
        # int64 ordering.  Stacking the four records would need four times
        # that; the pass must stay below two.
        n = 32768
        rng = np.random.default_rng(32768)
        dists = [make_distribution(rng.normal(0.0, 2.0, n), mode="logits") for _ in range(4)]
        record_arrays = 8 * n + 8 * n
        assert chunk_rows(n) == 1
        for method in Method:
            tracemalloc.start()
            try:
                for dist in dists:
                    select_block(dist.probs[None, :], config(method), collect_trace).selected(0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * record_arrays, (method, peak)


class TestSelectionMemory:
    """The tracemalloc peak of one selection of a 131 072-token row, in units
    of the row's 8n bytes.

    The ordering keeps only the capped head of a row, so an untraced softmax
    row peaks at about its argsort (1.0), and a uniform row, whose tied run
    straddles the cap, at that plus the indices of the run (1.1).  Ordering
    the whole row peaked at 3.13 and 4.00 with or without a trace; the
    traced cut mass must stay below those.
    """

    @pytest.mark.parametrize("family, collect_trace, limit", [
        ("softmax", False, 1.5), ("uniform", False, 2.5),
        ("softmax", True, 3.13), ("uniform", True, 4.01),
    ])
    def test_peak_of_one_large_row(self, family, collect_trace, limit):
        n = 131072
        if family == "softmax":
            probs = make_distribution(np.random.default_rng(n).normal(0.0, 2.0, n),
                                      mode="logits").probs
        else:
            probs = uniform_distribution(n).probs
        tracemalloc.start()
        try:
            select_block(probs[None, :], config(), collect_trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit * 8 * n, peak / (8 * n)


#: Tie-heavy values: exact zeros of both signs, the least denormal and a few fractions.
TIED = [0.0, -0.0, 5e-324, 0.125, 1 / 3, 0.5]


class TestDescendingOrder:
    @given(
        st.lists(st.sampled_from(TIED + [0.25]), min_size=1, max_size=300),
        st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_stable_argsort_equals_two_key_lexsort(self, tied, free):
        # tie-heavy values, exact zeros of both signs: ties stay in index order
        probs = np.asarray(tied + free, dtype=np.float64)
        expected = np.lexsort((np.arange(probs.shape[0]), -probs))
        assert np.array_equal(_descending_order(probs[None, :], probs.shape[0])[0], expected)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_head_of_a_block_is_the_stable_order(self, data):
        # every c in 1..n over a block that holds, besides drawn tie-heavy
        # rows, a row of one value (it straddles every c < n), a row of
        # distinct values (it straddles none) and a row with one positive
        # entry (for c >= 2 the boundary value is a zero of either sign)
        n = data.draw(st.integers(1, 40))
        value = st.one_of(st.sampled_from(TIED), st.floats(0.0, 1.0))
        drawn = data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                   min_size=1, max_size=4))
        signs = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
        one = np.asarray(signs)
        one[data.draw(st.integers(0, n - 1))] = 1.0
        probs = np.array(drawn + [np.full(n, 1 / 3), np.arange(1, n + 1) / n, one])
        index = np.arange(n)
        expected = [np.lexsort((index, -row)) for row in probs]
        for c in range(1, n + 1):
            got = _descending_order(probs, c)
            assert got.shape == (probs.shape[0], c)
            for head, order in zip(got, expected):
                assert np.array_equal(head, order[:c]), c

    @staticmethod
    def assert_rows_in_stable_order(probs):
        # the head of one place, of the default cap and of every place
        n = probs.shape[1]
        index = np.arange(n)
        expected = [np.lexsort((index, -row)) for row in probs]
        for c in sorted({1, min(100, n), n}):
            got = _descending_order(probs, c)
            assert got.shape == (probs.shape[0], c)
            for head, order in zip(got, expected):
                assert np.array_equal(head, order[:c])

    # n <= 16 takes numpy's small-array sort, larger n its vectorized one
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 100, 1000, 32768, 131072])
    def test_blocks_of_tie_free_and_tie_heavy_rows(self, n):
        rng = np.random.default_rng(n)
        free = rng.random(n)
        zero_tail = rng.random(n)
        zero_tail[rng.permutation(n)[: 3 * n // 4]] = 0.0
        zero_tail[rng.permutation(n)[: n // 8]] *= -0.0  # both signs of zero
        tiny = rng.random(n)
        tiny[rng.permutation(n)[: n // 2]] = rng.choice([0.0, -0.0, 5e-324, 1e-320, 2.2e-308],
                                                        n // 2)
        few = rng.choice([0.125, 0.25, 1 / 3, 0.5], n)
        mixed = np.where(rng.random(n) < 0.5, free, few)
        # two equal rows side by side: a run must not continue into the next row
        rows = [free, np.full(n, 1.0 / n), np.full(n, 1.0 / n), zero_tail, tiny, few, mixed,
                rng.random(n)]
        self.assert_rows_in_stable_order(np.stack(rows))
        for row in rows[:4]:
            self.assert_rows_in_stable_order(row[None, :])

    def test_ties_at_the_cap_boundary_of_a_large_row(self):
        # ranks 90-109 of a 128k row share one value, so the tied run
        # straddles the default cap of 100; the tail holds zeros of both signs
        n = 131072
        rng = np.random.default_rng(17)
        raw = np.sort(rng.random(n))[::-1] ** 8
        raw[90:110] = raw[100]
        raw[-n // 4:] = 0.0
        raw[-n // 8:] = -0.0
        probs = rng.permutation(raw)
        probs = probs / np.sum(probs)
        self.assert_rows_in_stable_order(probs[None, :])
        p = make_distribution(probs)
        for method in Method:
            cfg = config(method)
            got = truncate(p, cfg, collect_trace=True)
            ref = reference_truncate(p.probs, method.value)
            assert got.selected == ref.selected
            assert (got.subset.gamma, got.h_p, got.h_q) == (ref.gamma, ref.h_p, ref.h_q)


class TestSampleToken:
    def test_singleton_always_that_token(self):
        p = make_distribution([0.6, 0.3, 0.1])
        r = truncate(p, config(alpha=0.4))
        assert r.selected == (0,)
        assert all(sample_token(r, seed, i) == 0 for seed in (0, 1, 99) for i in range(20))

    def test_two_token_frequencies(self):
        p = make_distribution([0.5, 0.5])
        r = truncate(p, config(Method.TOP_K, k=2))
        counts = Counter(sample_token(r, 42, i) for i in range(10_000))
        for token in (0, 1):
            assert 0.48 <= counts[token] / 10_000 <= 0.52

    def test_reproducible(self):
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        r = truncate(p, config(Method.TOP_K, k=4))
        first = [sample_token(r, 7, i) for i in range(100)]
        second = [sample_token(r, 7, i) for i in range(100)]
        assert first == second

    def test_samples_respect_support(self):
        p = make_distribution([0.6, 0.3, 0.1])
        r = truncate(p, config(Method.TOP_K, k=2))
        tokens = {sample_token(r, 3, i) for i in range(500)}
        assert tokens <= {0, 1}


def result_with_q(indices, q):
    """A truncation result over ``indices`` with exactly the weights ``q``."""
    subset = SubsetDistribution(parent_n=max(indices) + 1, parent_indices=tuple(indices),
                                q=np.asarray(q, dtype=np.float64), gamma=1.0)
    return TruncationResult(selected=subset.parent_indices, subset=subset, h_p=0.0, h_q=0.0)


def loop_draw(result, u):
    """The sequential inverse CDF: first token whose running sum exceeds u."""
    cum = 0.0
    for token, q in zip(result.subset.parent_indices, result.subset.q):
        cum += float(q)
        if u < cum:
            return token
    return result.subset.parent_indices[-1]


class TestDrawTokens:
    def test_boundary_picks_next_token(self):
        # probs [0.25, 0.5, 0.25] order as tokens 1, 0, 2 with sums 0.5, 0.75, 1
        r = truncate(make_distribution([0.25, 0.5, 0.25]), config(Method.TOP_K, k=3))
        assert r.selected == (1, 0, 2)
        u = np.array([0.0, 0.5 - 2**-53, 0.5, 0.75 - 2**-53, 0.75])
        assert draw_tokens(r, u).tolist() == [1, 1, 0, 0, 2]

    def test_at_or_above_last_sum_picks_last_token(self):
        # q sums to 1 - 2**-53, the largest uniform u01 can return
        r = result_with_q([4, 9], [0.5, 0.5 - 2**-53])
        assert float(np.cumsum(r.subset.q)[-1]) == 1.0 - 2**-53
        u = np.array([1.0 - 2**-53, 0.5])
        assert draw_tokens(r, u).tolist() == [9, 9]
        assert draw_tokens(r, np.array([0.5 - 2**-54])).tolist() == [4]

    def test_singleton_always_its_token(self):
        r = result_with_q([17], [1.0])
        assert set(draw_tokens(r, u01(5, 0, np.arange(1000))).tolist()) == {17}

    def test_empty_batch(self):
        r = result_with_q([0, 1], [0.5, 0.5])
        assert draw_tokens(r, np.empty(0)).shape == (0,)

    def test_sample_token_is_batch_of_one(self):
        r = truncate(make_distribution([0.4, 0.3, 0.2, 0.1]), config(Method.TOP_K, k=4))
        for seed in (0, 7, 2**40 + 3):
            batch = draw_tokens(r, u01(seed, 0, np.arange(300)))
            assert [sample_token(r, seed, i) for i in range(300)] == batch.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 0.5])),
                 min_size=1, max_size=40),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
    )
    def test_matches_sequential_loop(self, weights, us):
        total = math.fsum(weights)
        q = [w / total for w in weights] if total > 0.0 else [1.0] + [0.0] * (len(weights) - 1)
        r = result_with_q(list(range(len(q))), q)
        got = draw_tokens(r, np.array(us, dtype=np.float64)).tolist()
        assert got == [loop_draw(r, u) for u in us]


class TestScaleInvariance:
    def test_logit_scaling_against_matching_temperature(self):
        # softmax(c * logits, T = c) equals softmax(logits, T = 1), so the
        # selected set can depend on the logits only through the distribution
        rng = np.random.default_rng(8)
        for _ in range(50):
            logits = rng.normal(size=12) * 3.0
            base = make_distribution(logits, mode="logits", temperature=1.0)
            doubled = make_distribution(2.0 * logits, mode="logits", temperature=2.0)
            assert np.array_equal(base.probs, doubled.probs)
            cfg = config(alpha=0.4)
            assert truncate(base, cfg).selected == truncate(doubled, cfg).selected
