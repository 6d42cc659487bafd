"""Summaries, standardization, rank correlation, and FDR control."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from arealstat.ingest import AttributeTable
from arealstat.stats import (
    _average_ranks,
    _chi2_sf,
    _norm_sf,
    _t_sf,
    bh_fdr,
    spearman,
    summarize,
    zscore,
)


def table(columns, values):
    values = np.asarray(values, dtype=float)
    ids = [str(i) for i in range(values.shape[0])]
    return AttributeTable(ids=ids, columns=columns, values=values)


class TestSummarize:
    def test_basic_moments(self):
        t = table(["a", "b"], [[1, 10], [2, 20], [3, 30]])
        rows = {r.name: r for r in summarize(t)}
        assert rows["a"].mean == pytest.approx(2.0)
        assert rows["a"].sd == pytest.approx(1.0)
        assert rows["a"].n == 3
        assert rows["b"].minimum == 10 and rows["b"].maximum == 30

    def test_missing_excluded_per_column(self):
        t = table(["a"], [[1], [np.nan], [3]])
        (row,) = summarize(t)
        assert row.n == 2
        assert row.mean == pytest.approx(2.0)

    def test_single_observation_has_zero_sd(self):
        t = table(["a"], [[5], [np.nan]])
        (row,) = summarize(t)
        assert row.sd == 0.0

    def test_all_missing_column_rejected(self):
        t = table(["a"], [[np.nan], [np.nan]])
        with pytest.raises(ValueError, match="a"):
            summarize(t)

    def test_row_order_follows_columns(self):
        t = table(["z", "a"], [[1, 2], [3, 4]])
        assert [r.name for r in summarize(t)] == ["z", "a"]


class TestZscore:
    def test_unit_moments(self):
        rng = np.random.default_rng(3)
        z = zscore(rng.normal(10, 5, size=40))
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std(ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_affine_invariance(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert np.allclose(zscore(x), zscore(3.0 * x - 7.0))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            zscore(np.full(5, 2.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            zscore(np.array([1.0, np.nan, 2.0]))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            zscore(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_named_by_position(self, bad):
        # one value per unit of a 5 x 5 lattice, the fifth infinite
        x = np.arange(25.0)
        x[4] = bad
        with pytest.raises(ValueError, match=rf"non-finite value {bad} at position 4$"):
            zscore(x)


def rank_then_pearson(x, y):
    """Oracle: average-rank transform, then plain Pearson correlation."""
    rx = sps.rankdata(x, method="average")
    ry = sps.rankdata(y, method="average")
    return np.corrcoef(rx, ry)[0, 1]


def loop_average_ranks(x):
    """Average ranks by walking each tie group of the stably sorted values,
    the per-element loop the vectorised ranks replaced."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), max_size=60),
        st.sampled_from([1.0, 0.1, 1e300]),
    )
    @example([], 1.0)
    @example([2, 2, 2, 2], 1.0)
    def test_bit_equal_to_loop_on_ties(self, values, scale):
        x = np.array(values, dtype=float) * scale
        assert np.array_equal(_average_ranks(x), loop_average_ranks(x))

    @pytest.mark.parametrize("n", [900, 40_000])
    def test_bit_equal_to_loop_on_normal_data(self, n):
        x = np.random.default_rng(n).normal(size=n)
        assert np.array_equal(_average_ranks(x), loop_average_ranks(x))

    def test_ties_share_the_mean_position(self):
        x = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
        assert _average_ranks(x).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        rho, p = spearman(x, np.exp(x))
        assert rho == 1.0
        assert p == 0.0

    def test_perfect_reversal(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        rho, p = spearman(x, -x)
        assert rho == -1.0
        assert p == 0.0

    def test_matches_rank_then_pearson_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.integers(0, 6, size=30).astype(float)
            y = rng.integers(0, 6, size=30).astype(float) + 0.3 * x
            rho, _ = spearman(x, y)
            assert rho == pytest.approx(rank_then_pearson(x, y), abs=1e-12)

    def test_p_value_matches_t_reference(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = rng.normal(size=25) + 0.5 * x
        rho, p = spearman(x, y)
        n = 25
        t = rho * np.sqrt((n - 2) / (1 - rho * rho))
        assert p == pytest.approx(2 * sps.t.sf(abs(t), n - 2), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        rho1, p1 = spearman(x, y)
        rho2, p2 = spearman(np.exp(x), y**3)
        assert rho1 == pytest.approx(rho2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman(np.full(5, 1.0), np.arange(5.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman(np.arange(4.0), np.arange(5.0))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spearman(np.arange(2.0), np.arange(2.0))


def stepup_oracle(p, alpha):
    """Definitional step-up: adjusted_i = min over j with p_(j) >= p_(i)
    of m*p_(j)/rank_j, clipped at 1."""
    p = np.asarray(p, dtype=float)
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    for pos, idx in enumerate(order):
        candidates = [
            m * p[order[j]] / (j + 1) for j in range(pos, m)
        ]
        # the tail min cannot fall below p[idx] in exact arithmetic; the
        # same ulp guard the library applies keeps the float routes aligned
        adjusted[idx] = max(p[idx], min(1.0, min(candidates)))
    return adjusted, adjusted <= alpha


class TestFdr:
    def test_matches_stepup_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = rng.uniform(size=rng.integers(1, 40))
            res = bh_fdr(p, 0.1)
            oracle_adj, oracle_sig = stepup_oracle(p, 0.1)
            assert np.array_equal(res.adjusted_p, oracle_adj)
            assert np.array_equal(res.significant, oracle_sig)

    def test_known_hand_case(self):
        p = np.array([0.01, 0.04, 0.03, 0.005])
        res = bh_fdr(p, 0.05)
        # sorted: .005, .01, .03, .04 -> m*p/k: .02, .02, .04, .04
        assert np.allclose(res.adjusted_p, [0.02, 0.04, 0.04, 0.02])
        assert res.significant.all()

    def test_adjusted_never_below_raw(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(size=50)
        res = bh_fdr(p, 0.05)
        assert np.all(res.adjusted_p >= p - 1e-15)

    def test_adjusted_monotone_in_raw_order(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(size=50)
        res = bh_fdr(p, 0.05)
        order = np.argsort(p)
        assert np.all(np.diff(res.adjusted_p[order]) >= 0)

    def test_significance_is_threshold_on_adjusted(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(size=30) ** 3
        res = bh_fdr(p, 0.05)
        assert np.array_equal(res.significant, res.adjusted_p <= 0.05)

    def test_all_ones_never_significant(self):
        res = bh_fdr(np.ones(5), 0.05)
        assert not res.significant.any()
        assert np.all(res.adjusted_p == 1.0)

    def test_alpha_recorded(self):
        res = bh_fdr(np.array([0.5]), 0.07)
        assert res.alpha == 0.07

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr(np.array([0.5, 1.5]), 0.05)
        with pytest.raises(ValueError):
            bh_fdr(np.array([-0.1]), 0.05)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            bh_fdr(np.array([0.5]), 1.0)


def same_bits(a, b):
    """Elementwise bit equality, with every NaN equal to every NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


# every float, plus the edges written out; df spans what a design can give
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
dfs = st.integers(min_value=1, max_value=10**4)


class TestTailHelpersMatchScipyStats:
    """The private upper-tail helpers are bit-equal to the scipy.stats
    distributions they stand in for, which the library no longer imports."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=8))
    def test_norm(self, xs):
        x = np.array(xs + EDGES)
        assert same_bits(_norm_sf(x), sps.norm.sf(x))
        for v in x.tolist():
            assert same_bits(_norm_sf(v), sps.norm.sf(v))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=8), dfs)
    @example([], 1)
    @example([], 10**4)
    def test_t(self, xs, df):
        x = np.array(xs + EDGES)
        assert same_bits(_t_sf(x, df), sps.t.sf(x, df))
        for v in x.tolist():
            assert same_bits(_t_sf(v, df), sps.t.sf(v, df))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=8), dfs)
    @example([], 1)
    @example([], 10**4)
    def test_chi2(self, xs, df):
        x = np.array(xs + EDGES)
        assert same_bits(_chi2_sf(x, df), sps.chi2.sf(x, df))
        for v in x.tolist():
            assert same_bits(_chi2_sf(v, df), sps.chi2.sf(v, df))

    def test_scalars_stay_numpy_scalars(self):
        for got, want in (
            (_norm_sf(1.5), sps.norm.sf(1.5)),
            (_t_sf(1.5, 7), sps.t.sf(1.5, 7)),
            (_chi2_sf(1.5, 3), sps.chi2.sf(1.5, 3)),
        ):
            assert type(got) is type(want)
