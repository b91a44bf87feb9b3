"""Statistical machinery vs independent references (scipy, mpmath and enumeration)."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import betainc, kolmogorov

from homedest.stats import (
    EXACT_LIMIT,
    _kolmogorov_sf,
    _ks_statistic,
    _log_beta_half,
    _signed_rank_distribution,
    _tie_sum,
    _two_sided_normal,
    _two_sided_t,
    _u_distribution,
    ks_two_sample,
    midranks,
    pearson,
    significance_stars,
    spearman,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)


class TestMidranks:
    def test_no_ties(self):
        assert midranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]

    def test_tie_block_shares_mean_rank(self):
        assert midranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert midranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    def test_empty(self):
        assert midranks([]) == []


class TestStars:
    def test_thresholds_are_strict(self):
        assert significance_stars(0.0099) == "***"
        assert significance_stars(0.01) == "**"
        assert significance_stars(0.049) == "**"
        assert significance_stars(0.05) == "*"
        assert significance_stars(0.099) == "*"
        assert significance_stars(0.1) == ""
        assert significance_stars(1.0) == ""

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            significance_stars(-0.001)
        with pytest.raises(ValueError):
            significance_stars(1.001)


class TestUDistribution:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (3, 3), (4, 6), (5, 5)])
    def test_total_and_symmetry(self, n1, n2):
        counts = _u_distribution(n1, n2)
        assert len(counts) == n1 * n2 + 1
        assert sum(counts) == math.comb(n1 + n2, n1)
        assert counts == counts[::-1]

    def test_small_case_by_hand(self):
        # n1=2, n2=2: U over subsets of {1..4} -> 1,1,2,1,1.
        assert _u_distribution(2, 2) == [1, 1, 2, 1, 1]


class TestRankSumExact:
    def test_complete_separation_three_vs_three(self):
        res = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.statistic == 0.0
        assert res.p_value == 0.1
        assert res.method == "wilcoxon_rank_sum"
        assert (res.n1, res.n2) == (3, 3)

    def test_complete_separation_two_vs_three(self):
        res = wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0, 5.0])
        assert res.statistic == 0.0
        assert res.p_value == 0.2

    def test_exchange_symmetry(self):
        x = [0.3, 1.9, 2.2, 4.5]
        y = [0.7, 1.1, 3.8]
        a = wilcoxon_rank_sum(x, y)
        b = wilcoxon_rank_sum(y, x)
        assert a.p_value == b.p_value
        assert a.statistic + b.statistic == len(x) * len(y)

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n1 = int(rng.integers(2, 10))
            n2 = int(rng.integers(2, min(12, EXACT_LIMIT - n1) + 1))
            x = rng.normal(size=n1)
            y = rng.normal(size=n2) + rng.normal() * 0.5
            if len(set(np.concatenate([x, y]))) != n1 + n2:
                continue
            res = wilcoxon_rank_sum(list(x), list(y))
            ref = sps.mannwhitneyu(x, y, alternative="two-sided", method="exact")
            assert res.statistic == ref.statistic
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_p_capped_at_one(self):
        res = wilcoxon_rank_sum([1.0, 4.0], [2.0, 3.0])
        assert res.p_value <= 1.0


class TestRankSumAsymptotic:
    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n1 = int(rng.integers(5, 40))
            n2 = int(rng.integers(5, 40))
            # Integer draws force ties, which also forces the normal path.
            x = rng.integers(0, 8, size=n1).astype(float)
            y = rng.integers(2, 10, size=n2).astype(float)
            res = wilcoxon_rank_sum(list(x), list(y))
            ref = sps.mannwhitneyu(
                x, y, alternative="two-sided", method="asymptotic", use_continuity=True
            )
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_large_tie_free_uses_normal_path(self):
        rng = np.random.default_rng(13)
        x = list(rng.normal(size=30))
        y = list(rng.normal(size=25) + 0.4)
        res = wilcoxon_rank_sum(x, y)
        ref = sps.mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_everything_tied_gives_p_one(self):
        res = wilcoxon_rank_sum([2.0, 2.0, 2.0], [2.0, 2.0])
        assert res.p_value == 1.0
        assert res.log_p == 0.0

    def test_deep_tail_survives_in_log_space(self):
        x = [float(v) for v in range(2000)]
        y = [float(v) for v in range(3000, 5000)]
        res = wilcoxon_rank_sum(x, y)
        assert res.p_value == 0.0  # underflows as a plain float
        assert res.log_p < -1000.0
        assert math.isfinite(res.log_p)

    def test_log_p_consistent_when_representable(self):
        rng = np.random.default_rng(17)
        x = list(rng.normal(size=40))
        y = list(rng.normal(size=40) + 1.0)
        res = wilcoxon_rank_sum(x, y)
        assert 0.0 < res.p_value < 1.0
        assert res.log_p == pytest.approx(math.log(res.p_value), rel=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])


class TestSignedRank:
    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(4, 16))
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
            diffs = x - y
            if 0.0 in diffs or len(set(np.abs(diffs))) != n:
                continue
            res = wilcoxon_signed_rank(list(x), list(y))
            ref = sps.wilcoxon(x, y, alternative="two-sided", method="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            # scipy reports min(W+, W-); ours is W+.
            max_w = n * (n + 1) / 2
            assert min(res.statistic, max_w - res.statistic) == ref.statistic

    def test_normal_approximation_matches_scipy(self):
        # Past the exact limit, or with tied |d|, both use the tie-corrected
        # normal approximation with continuity correction.
        rng = np.random.default_rng(29)
        for case in range(40):
            n = int(rng.integers(EXACT_LIMIT + 1, 400))
            decimals = int(rng.integers(0, 2))  # coarse values: tied |d| and zero differences
            x = rng.normal(size=n).round(decimals)
            y = (x + rng.normal(0.1 * (case % 3), 1.0, size=n)).round(decimals)
            if case == 0:
                x, y = np.ones(n), np.zeros(n)  # every |d| in one tie block
            d = (x - y)[x != y]
            assert len(d) > EXACT_LIMIT or len(set(np.abs(d))) < len(d)  # never the exact path
            res = wilcoxon_signed_rank(list(x), list(y))
            ref = sps.wilcoxon(x, y, zero_method="wilcox", correction=True, method="approx")
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)
            # scipy reports min(W+, W-); ours is W+.
            assert min(res.statistic, len(d) * (len(d) + 1) / 2 - res.statistic) == ref.statistic

    def test_zero_differences_dropped(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [1.0, 2.0, 1.5, 1.0, 0.5]
        res = wilcoxon_signed_rank(x, y)
        ref = sps.wilcoxon(x, y, alternative="two-sided", method="exact", zero_method="wilcox")
        assert res.p_value == 0.25
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_identical_pairs_give_p_one(self):
        res = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert res.p_value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestKolmogorovSmirnov:
    def test_statistic_matches_scipy_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n1 = int(rng.integers(3, 60))
            n2 = int(rng.integers(3, 60))
            x = rng.normal(size=n1)
            y = rng.normal(size=n2) + rng.normal() * 0.8
            res = ks_two_sample(list(x), list(y))
            ref = sps.ks_2samp(x, y)
            assert res.statistic == ref.statistic

    def test_statistic_with_ties(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [1.0, 2.0, 2.0, 4.0]
        d = _ks_statistic(x, y)
        assert d == sps.ks_2samp(x, y).statistic

    def test_hand_checked_distance(self):
        # ECDF gap peaks at 1 when supports are disjoint.
        assert _ks_statistic([1.0, 2.0], [3.0, 4.0]) == 1.0
        # At value 1: ECDF_x = 2/3 while no y is that small yet -> gap 2/3.
        assert _ks_statistic([0.0, 1.0, 5.0], [1.5, 2.0, 6.0, 7.0]) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_sf_matches_scipy_special(self):
        for lam in np.linspace(0.05, 4.0, 80):
            sf, log_sf = _kolmogorov_sf(float(lam))
            assert sf == pytest.approx(float(kolmogorov(lam)), abs=1e-12)
            if sf > 0:
                assert log_sf == pytest.approx(math.log(sf), abs=1e-9)

    def test_sf_edges(self):
        assert _kolmogorov_sf(0.0) == (1.0, 0.0)
        assert _kolmogorov_sf(-1.0) == (1.0, 0.0)
        sf, log_sf = _kolmogorov_sf(10.0)
        assert sf == 0.0 or sf < 1e-80
        assert log_sf < -150.0 and math.isfinite(log_sf)

    def test_p_value_is_limit_distribution_at_scaled_d(self):
        rng = np.random.default_rng(31)
        x = list(rng.normal(size=45))
        y = list(rng.normal(size=35) + 0.3)
        res = ks_two_sample(x, y)
        en = math.sqrt(45 * 35 / 80)
        assert res.p_value == pytest.approx(float(kolmogorov(en * res.statistic)), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestCorrelations:
    def test_pearson_matches_scipy(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            x = rng.normal(size=n)
            y = 0.6 * x + rng.normal(size=n)
            res = pearson(list(x), list(y))
            ref = sps.pearsonr(x, y)
            assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-13)

    def test_spearman_matches_scipy_with_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 10, size=n).astype(float)
            y = x + rng.integers(0, 6, size=n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            res = spearman(list(x), list(y))
            ref = sps.spearmanr(x, y)
            assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-13)

    def test_five_point_rank_fixture_is_exact(self):
        res = spearman([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 2.0, 5.0, 4.0])
        assert res.statistic == 0.8

    def test_perfect_correlation(self):
        res = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert res.statistic == 1.0
        assert res.p_value == 0.0
        assert res.log_p == -math.inf
        anti = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert anti.statistic == -1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError, match="equal length"):  # a value without its pair
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_stars_on_results(self):
        res = pearson([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.9])
        assert res.stars in ("", "*", "**", "***")


# Values that stress ranking and the ECDFs: heavy ties (few distinct values),
# signed zeros, subnormal and huge magnitudes, and arbitrary finite floats.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1.0 + 2**-52, 1e300, -1e300, 1.7976931348623157e308]
VALUES = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
SAMPLES = st.lists(VALUES, min_size=1, max_size=40)
PROPERTY = settings(max_examples=200, deadline=None)


class TestArrayPropertiesAgainstReferences:
    @PROPERTY
    @given(SAMPLES)
    def test_midranks_equal_scipy_average_ranks(self, values):
        assert midranks(values) == sps.rankdata(values, method="average").tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from scipy's p-value, which is not compared
    @PROPERTY
    @given(SAMPLES, SAMPLES)
    def test_ks_statistic_is_the_exact_ecdf_gap(self, x, y):
        def ecdf(sample, at):
            return Fraction(sum(v <= at for v in sample), len(sample))

        exact = max(abs(ecdf(x, v) - ecdf(y, v)) for v in x + y)
        d = _ks_statistic(x, y)
        assert d == float(exact)
        # scipy subtracts the two ECDFs in floats, so it may differ in the last bits.
        assert d == pytest.approx(sps.ks_2samp(x, y, method="asymp").statistic, rel=0, abs=4 * np.finfo(float).eps)

    @PROPERTY
    @given(SAMPLES)
    def test_tie_sum_equals_the_counter_formula(self, values):
        counts = np.unique(values, return_counts=True)[1]
        assert _tie_sum(counts) == sum(c**3 - c for c in Counter(values).values())

    def test_tie_sum_is_exact_past_int64(self):
        # One block of 3M tied values: c**3 is 2.7e19, beyond int64's 9.2e18.
        assert _tie_sum(np.array([3_000_000, 2, 1])) == 3_000_000**3 - 3_000_000 + 6

    @pytest.mark.parametrize("n", range(1, 11))
    def test_signed_rank_distribution_enumerates_every_sign_assignment(self, n):
        sums = Counter(sum(r for r, plus in zip(range(1, n + 1), signs) if plus)
                       for signs in itertools.product((False, True), repeat=n))
        assert _signed_rank_distribution(n) == [sums[w] for w in range(n * (n + 1) // 2 + 1)]

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 5), (3, 4), (5, 5), (4, 6)])
    def test_u_distribution_enumerates_every_rank_subset(self, n1, n2):
        base = n1 * (n1 + 1) // 2
        sums = Counter(sum(c) - base for c in itertools.combinations(range(1, n1 + n2 + 1), n1))
        assert _u_distribution(n1, n2) == [sums[u] for u in range(n1 * n2 + 1)]

    @PROPERTY
    @given(st.lists(VALUES, min_size=3, max_size=20), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_every_test_rejects_a_non_finite_value(self, values, bad, data):
        i = data.draw(st.integers(0, len(values) - 1))
        spoiled = values[:i] + [bad] + values[i + 1:]
        for test in (wilcoxon_rank_sum, wilcoxon_signed_rank, ks_two_sample, pearson, spearman):
            for x, y in ((spoiled, values), (values, spoiled)):
                with pytest.raises(ValueError, match="finite"):
                    test(x, y)


def assert_tail_close(p, log_p, ref_log_p):
    """Relative error at most 1e-10 on p where p >= 1e-300, and on log p below that."""
    ref_p = float(mpmath.exp(ref_log_p))
    if ref_p >= 1e-300:
        assert p == pytest.approx(ref_p, rel=1e-10, abs=0)
    else:
        assert math.isfinite(log_p)
        assert log_p == pytest.approx(float(ref_log_p), rel=1e-10, abs=0)


def student_t_log_tail(df, x):
    """log I_x(df/2, 1/2) from the integral x^a / B(a, 1/2) * int_0^inf exp(-a s) (1 - x e^-s)^(-1/2) ds."""
    with mpmath.workdps(25):
        a, x = mpmath.mpf(df) / 2, mpmath.mpf(x)
        integrand = lambda s: mpmath.exp(-a * s) / mpmath.sqrt(1 - x * mpmath.exp(-s))  # noqa: E731
        # The integrand changes on the scales 1 - x and 1/a.
        cuts = sorted({mpmath.mpf(0), 1 - x, 10 * (1 - x), 1 / a, 10 / a, 100 / a}) + [mpmath.inf]
        return a * mpmath.log(x) - mpmath.log(mpmath.beta(a, 0.5)) + mpmath.log(mpmath.quad(integrand, cuts))


class TestTailsAgainstMpmath:
    # Either side of the switch to the asymptotic series at z = 26 sqrt 2.
    SWITCH = 26 * math.sqrt(2)
    Z = [*np.linspace(-0.5, 40, 163), *np.geomspace(40, 1e3, 40), SWITCH * (1 - 1e-12), SWITCH * (1 + 1e-12)]

    def test_normal_tail(self):
        for z in map(float, self.Z):
            p, log_p = _two_sided_normal(z)
            with mpmath.workdps(30):
                ref = min(mpmath.mpf(1), mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)))
                assert_tail_close(p, log_p, mpmath.log(ref))

    def test_normal_log_tail_stays_finite(self):
        p, log_p = _two_sided_normal(1e3)
        assert p == 0.0 and log_p == pytest.approx(-500_007.13, abs=0.01)

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 19, 20, 21, 22, 100, 1_000, 10_000, 100_000, 200_000])
    def test_student_t_tail(self, df):
        for t in (1e-3, 0.1, 0.5, 1.0, 1.5, 1.75, 2.0, 3.0, 5.0, 10.0, 40.0, 200.0, 1e6):
            t_sq = t * t
            p, log_p = _two_sided_t(t_sq, df)
            assert_tail_close(p, log_p, student_t_log_tail(df, df / (df + t_sq)))

    def test_student_t_at_zero(self):
        assert _two_sided_t(0.0, 5) == (1.0, 0.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 9.5, 10.0, 10.5, 1e3, 5e4, 1e5, 1e7])
    def test_log_beta_half(self, a):
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.beta(a, 0.5)))
        assert _log_beta_half(a) == pytest.approx(ref, rel=0, abs=1e-13)

    def test_pearson_log_p_where_p_underflows(self):
        # n = 20,000 with r near 0.5: the p-value is ~1e-1250, and scipy's betainc returns 0.0.
        rng = np.random.default_rng(43)
        x = rng.normal(size=20_000)
        y = x + math.sqrt(3) * rng.normal(size=20_000)
        res = pearson(x.tolist(), y.tolist())
        assert res.statistic == pytest.approx(0.5, abs=0.02)
        df = 20_000 - 2
        t_sq = df * res.statistic**2 / (1.0 - res.statistic**2)
        assert betainc(df / 2, 0.5, df / (df + t_sq)) == 0.0
        assert res.p_value == 0.0 and math.isfinite(res.log_p)
        assert res.log_p == pytest.approx(float(student_t_log_tail(df, df / (df + t_sq))), rel=1e-10, abs=0)
