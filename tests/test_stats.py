"""Tests for the consistency vectors, Welch t-test, and t-tail machinery."""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcwmf import (
    AdoptionRecords,
    ConsistencyVectors,
    SynthConfig,
    TTestResult,
    build_consistency_vectors,
    generate_corpus,
    regularized_incomplete_beta,
    student_t_upper_tail,
    welch_ttest_one_sided,
)

# Reference upper-tail probability for t=1, df=8, from scipy.stats.t.sf.
# Hand check: the tail equals I_x(4, 1/2)/2 at x = 8/9, which the even-df
# closed form evaluates exactly to 379/2187 (see test_frozen_reference_at_df_8).
T1_DF8_TAIL = 0.17329675354366708


class TestConsistencyVectors:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ConsistencyVectors(hc_u=(1, 2), hc_r=(1,))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConsistencyVectors(hc_u=(1, -1), hc_r=(0, 0))


class TestBuildConsistencyVectors:
    def test_repeated_tag_counting(self):
        # User a repeats only A; user b repeats nothing. With two users the
        # partner is always the other one, so hc_r is the mutual overlap.
        records = AdoptionRecords.of(
            [
                ("a", "A", 0),
                ("a", "A", 10),
                ("a", "A", 20),
                ("a", "B", 30),
                ("b", "A", 40),
                ("b", "B", 50),
            ]
        )
        vec = build_consistency_vectors(records, seed=0)
        assert vec.hc_u == (1, 0)
        assert vec.hc_r == (2, 2)

    def test_all_singleton_usage_counts_zero(self):
        records = AdoptionRecords.of(
            [("a", "A", 0), ("a", "B", 1), ("b", "A", 2), ("b", "C", 3)]
        )
        vec = build_consistency_vectors(records, seed=1)
        assert vec.hc_u == (0, 0)

    def test_vectors_follow_sorted_user_order(self):
        fwd = AdoptionRecords.of([("a", "A", 0), ("a", "A", 1), ("b", "B", 2)])
        rev = AdoptionRecords.of([("b", "B", 2), ("a", "A", 1), ("a", "A", 0)])
        assert build_consistency_vectors(fwd, seed=3) == build_consistency_vectors(
            rev, seed=3
        )

    def test_seeded_partner_assignment_is_reproducible(self):
        records = generate_corpus(SynthConfig(n_users=40, n_bins=24, seed=2), 4)
        assert build_consistency_vectors(records, seed=9) == build_consistency_vectors(
            records, seed=9
        )

    def test_needs_two_users_and_two_hashtags(self):
        with pytest.raises(ValueError, match="2 users"):
            build_consistency_vectors(
                AdoptionRecords.of([("a", "A", 0), ("a", "B", 1)]), seed=0
            )
        with pytest.raises(ValueError, match="2 hashtags"):
            build_consistency_vectors(
                AdoptionRecords.of([("a", "A", 0), ("b", "A", 1)]), seed=0
            )


def _nested_counter_vectors(records, seed):
    """(hc_u, hc_r) from one Counter of hashtags per user, users in sorted order."""
    usage: dict[str, Counter] = {}
    for user, hashtag, _ in records:
        usage.setdefault(user, Counter())[hashtag] += 1
    users = sorted(usage)
    if len(users) < 2:
        raise ValueError(f"need at least 2 users to pair, got {len(users)}")
    all_tags = set().union(*usage.values())
    if len(all_tags) < 2:
        raise ValueError(f"need at least 2 hashtags, got {len(all_tags)}")
    rng = np.random.default_rng(seed)
    hc_u, hc_r = [], []
    for i, u in enumerate(users):
        hc_u.append(sum(1 for n in usage[u].values() if n >= 2))
        j = int(rng.integers(0, len(users) - 1))
        if j >= i:
            j += 1
        hc_r.append(len(set(usage[u]) & set(usage[users[j]])))
    return tuple(hc_u), tuple(hc_r)


_USERS = st.sampled_from(
    ["a", "b", "B", "u10", "u9", "\u00e9", "\u00e9t\u00e9", "\u7528", "\U0001f600"]
)
_TAGS = st.sampled_from(["h0", "h1", "#\u00fc", "t"])
_EVENTS = st.lists(st.tuples(_USERS, _TAGS, st.integers(0, 99)))


@settings(deadline=None)
@given(_EVENTS, st.integers(0, 2**32 - 1))
# Single-event users and hashtags used by one user only.
@example([("\u00e9", "h0", 0), ("\u00e9", "h0", 5), ("b", "h1", 1)], 0)
@example([("a", "h0", 0), ("a", "h1", 1), ("a", "h1", 2), ("\U0001f600", "t", 3)], 7)
def test_pair_counts_match_nested_counter_oracle(events, seed):
    records = AdoptionRecords.of(events)
    try:
        want = _nested_counter_vectors(records, seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            build_consistency_vectors(records, seed)
        return
    vec = build_consistency_vectors(records, seed)
    assert (vec.hc_u, vec.hc_r) == want
    assert all(type(n) is int for n in vec.hc_u + vec.hc_r)


def _per_user_loop_vectors(records, seed):
    """build_consistency_vectors as first written: Counter pair counts, each user's
    hashtags as a list, and one scalar partner draw per user."""
    pair_counts = Counter((user, hashtag) for user, hashtag, _ in records)
    tags: dict[str, list] = {}
    for user, hashtag in pair_counts:
        tags.setdefault(user, []).append(hashtag)
    repeated = Counter(user for (user, _), n in pair_counts.items() if n >= 2)
    users = sorted(tags)
    if len(users) < 2:
        raise ValueError(f"need at least 2 users to pair, got {len(users)}")
    all_tags = {hashtag for _, hashtag in pair_counts}
    if len(all_tags) < 2:
        raise ValueError(f"need at least 2 hashtags, got {len(all_tags)}")
    rng = np.random.default_rng(seed)
    hc_u, hc_r = [], []
    for i, u in enumerate(users):
        hc_u.append(repeated[u])
        j = int(rng.integers(0, len(users) - 1))
        if j >= i:
            j += 1
        hc_r.append(len(set(tags[u]).intersection(tags[users[j]])))
    return tuple(hc_u), tuple(hc_r)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 60).map("u{}".format), st.sampled_from(["h0", "h1", "h2", "h3"]), st.integers(0, 9)),
        max_size=150,
    ),
    st.integers(0, 2**64 - 1),
)
# Two users, whose partners are fixed; users with a single hashtag; other seeds.
@example([("a", "h0", 0), ("b", "h1", 1)], 0)
@example([("a", "h0", 0), ("a", "h0", 1), ("b", "h1", 2), ("b", "h0", 3)], 2**64 - 1)
@example([("u1", "h0", 0), ("u2", "h1", 0), ("u3", "h2", 0), ("u3", "h2", 1), ("u4", "h0", 0)], 12345)
def test_vectors_match_the_per_user_loop(events, seed):
    records = AdoptionRecords.of(events)
    try:
        want = _per_user_loop_vectors(records, seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            build_consistency_vectors(records, seed)
        return
    vec = build_consistency_vectors(records, seed)
    assert (vec.hc_u, vec.hc_r) == want


@pytest.mark.parametrize("n", [2, 3, 1000, 2**32, 2**32 + 2, 2**33])
def test_one_partner_draw_is_the_scalar_draws(n):
    # build_consistency_vectors draws every partner in one call; each user once drew its own.
    rng = np.random.default_rng(7)
    scalar = [int(rng.integers(0, n - 1)) for _ in range(64)]
    assert np.random.default_rng(7).integers(0, n - 1, size=64).tolist() == scalar


class TestWelchTTest:
    def test_unit_shift_example(self):
        # Means 3 and 2, both sample variances 2.5, so se = 1 and t = 1 with
        # df = 8 exactly; the tail probability is the frozen reference.
        res = welch_ttest_one_sided([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert res.t_stat == pytest.approx(1.0, abs=1e-12)
        assert res.degrees_freedom == pytest.approx(8.0, abs=1e-12)
        assert res.p_value == pytest.approx(T1_DF8_TAIL, abs=1e-12)

    def test_identical_samples_are_null(self):
        res = welch_ttest_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t_stat == 0.0
        assert res.p_value == 0.5
        assert not res.reject

    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=int(rng.integers(3, 40)))
            b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=int(rng.integers(3, 40)))
            res = welch_ttest_one_sided(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
            assert res.t_stat == pytest.approx(float(ref.statistic), rel=1e-10)
            assert res.degrees_freedom == pytest.approx(float(ref.df), rel=1e-10)
            assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-12)

    def test_direction_swap_complements_p(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.normal(size=8)
            b = rng.normal(size=11)
            fwd = welch_ttest_one_sided(a, b)
            rev = welch_ttest_one_sided(b, a)
            assert fwd.t_stat == pytest.approx(-rev.t_stat, abs=1e-12)
            assert fwd.p_value + rev.p_value == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=9)
        b = rng.normal(size=7)
        base = welch_ttest_one_sided(a, b)
        scaled = welch_ttest_one_sided(3.5 * a, 3.5 * b)
        assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-10)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-10)

    def test_consistent_corpus_rejects_null(self):
        cfg = SynthConfig(
            n_users=150, n_bins=48, trend_decay=0.15,
            repeat_prob=0.7, repeat_decay=0.1, seed=3,
        )
        vec = build_consistency_vectors(generate_corpus(cfg, 6), seed=7)
        res = welch_ttest_one_sided(vec.hc_u, vec.hc_r, alpha=0.01)
        assert res.p_value < 0.01
        assert res.reject

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -1.0, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            welch_ttest_one_sided([1.0, 2.0, 3.0], [0.0, 1.0, 1.5], alpha=alpha)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match=">= 2 values"):
            welch_ttest_one_sided([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="zero variance"):
            welch_ttest_one_sided([2.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            welch_ttest_one_sided([[1.0, 2.0]], [1.0, 2.0])


class TestTTestResult:
    def test_reject_compares_p_to_alpha(self):
        assert TTestResult(2.0, 10.0, 0.005, 0.01).reject
        assert not TTestResult(1.0, 10.0, 0.2, 0.01).reject

    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError, match="p_value"):
            TTestResult(1.0, 10.0, 1.5, 0.01)
        with pytest.raises(ValueError, match="degrees_freedom"):
            TTestResult(1.0, 0.0, 0.5, 0.01)

    @pytest.mark.parametrize("alpha", [7.0, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        # Unchecked, 7.0 would make every result a rejection and NaN none.
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
            TTestResult(1.0, 10.0, 0.2, alpha)


class TestRegularizedIncompleteBeta:
    def test_domain_validation(self):
        with pytest.raises(ValueError, match="> 0"):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_closed_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = float(rng.uniform(0.01, 0.99))
            a = float(rng.uniform(0.3, 8.0))
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)
            assert regularized_incomplete_beta(a, 1.0, x) == pytest.approx(
                x**a, rel=1e-10
            )
            assert regularized_incomplete_beta(1.0, a, x) == pytest.approx(
                1.0 - (1.0 - x) ** a, rel=1e-10, abs=1e-14
            )

    def test_reflection_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, b = rng.uniform(0.2, 20.0, size=2)
            x = float(rng.uniform(0.01, 0.99))
            lhs = regularized_incomplete_beta(float(a), float(b), x)
            rhs = 1.0 - regularized_incomplete_beta(float(b), float(a), 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(0.1, 60.0, size=2)
            x = float(rng.uniform(0.0, 1.0))
            got = regularized_incomplete_beta(float(a), float(b), x)
            want = float(scipy.special.betainc(a, b, x))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 200)
        vals = [regularized_incomplete_beta(3.0, 0.5, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestStudentTUpperTail:
    def test_zero_statistic_is_half(self):
        for df in (1.0, 2.5, 8.0, 100.0, 1e6):
            assert student_t_upper_tail(0.0, df) == 0.5

    def test_frozen_reference_at_df_8(self):
        tail = student_t_upper_tail(1.0, 8.0)
        assert tail == pytest.approx(T1_DF8_TAIL, abs=1e-12)
        # Even-df closed form, in exact rationals: with x = t/sqrt(df+t^2) = 1/3
        # and s = 1 - x^2 = 8/9, P(T > 1 | df=8) = (1 - x(1 + s/2 + 3s^2/8 + 5s^3/16))/2.
        x = Fraction(1, 3)
        s = 1 - x * x
        exact = (1 - x * (1 + s / 2 + 3 * s**2 / 8 + 5 * s**3 / 16)) / 2
        assert exact == Fraction(379, 2187)
        assert tail == pytest.approx(float(exact), abs=1e-12)

    def test_normal_limit(self):
        assert student_t_upper_tail(1.96, 1e6) == pytest.approx(0.025, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = float(rng.uniform(-6, 6))
            df = float(rng.uniform(0.5, 200))
            total = student_t_upper_tail(t, df) + student_t_upper_tail(-t, df)
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_decreasing_in_t(self):
        ts = np.linspace(-5, 5, 101)
        vals = [student_t_upper_tail(float(t), 7.0) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_scipy(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            t = float(rng.uniform(-8, 8))
            df = float(rng.uniform(0.5, 1e4))
            got = student_t_upper_tail(t, df)
            want = float(scipy.stats.t.sf(t, df))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_matches_scipy_up_to_huge_df(self):
        # Up to df = 1e12, where the incomplete-beta route loses the tail to
        # cancellation in lgamma(a + b) - lgamma(a).
        rng = np.random.default_rng(33)
        ts = rng.normal(0.0, 4.0, 3000)
        dfs = np.exp(rng.uniform(math.log(0.3), math.log(1e12), 3000))
        got = np.array([student_t_upper_tail(float(t), float(df)) for t, df in zip(ts, dfs)])
        np.testing.assert_allclose(got, scipy.stats.t.sf(ts, dfs), rtol=0, atol=1e-9)

    def test_heavy_tails_at_low_df(self):
        # Cauchy tail: P(T > 1) = 1/4 at df = 1.
        assert student_t_upper_tail(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert student_t_upper_tail(1.0, 1.0) > student_t_upper_tail(1.0, 30.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="finite"):
            student_t_upper_tail(math.inf, 5.0)
        with pytest.raises(ValueError, match="df"):
            student_t_upper_tail(1.0, 0.0)
