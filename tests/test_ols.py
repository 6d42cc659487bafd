"""Least squares, collinearity handling, selection, diagnostics, and the
spatial-dependence score tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from arealstat import ols
from arealstat.ols import (
    INTERCEPT,
    LmSuite,
    _lstsq,
    condition_number,
    design_matrix,
    fit,
    jarque_bera,
    koenker_bassett,
    lm_tests,
    model_decision,
    significance_prune,
    stepwise_aic,
    vif,
    vif_prune,
)
from arealstat.weights import queen_contiguity
from conftest import adjacency_from_neighbors, grid_units


def random_problem(seed, n=40, k=3):
    rng = np.random.default_rng(seed)
    cols = [(f"x{j}", rng.normal(size=n)) for j in range(1, k + 1)]
    X = design_matrix(cols)
    beta = rng.normal(size=k + 1)
    y = X.values @ beta + rng.normal(scale=0.5, size=n)
    return X, y


class TestDesignMatrix:
    def test_intercept_prepended(self):
        X = design_matrix([("a", [1.0, 2.0, 3.0])])
        assert X.names == [INTERCEPT, "a"]
        assert np.all(X.values[:, 0] == 1.0)
        assert X.n == 3 and X.q == 2

    def test_reserved_name_rejected(self):
        with pytest.raises(ValueError):
            design_matrix([(INTERCEPT, [1.0, 2.0])])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            design_matrix([("a", [1.0, 2.0]), ("a", [3.0, 4.0])])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            design_matrix([("a", [1.0, 2.0]), ("b", [1.0])])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            design_matrix([("a", [1.0, np.nan])])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_named_by_column_and_row(self, bad):
        # one value per unit of a 5 x 5 lattice, the fifth infinite
        x = np.arange(25.0)
        x[4] = bad
        with pytest.raises(ValueError, match=rf"column 'b' has non-finite value {bad} at row 4$"):
            design_matrix([("a", np.ones(25)), ("b", x)])

    def test_drop_protects_intercept(self):
        X = design_matrix([("a", [1.0, 2.0, 3.0])])
        with pytest.raises(ValueError):
            X.drop(INTERCEPT)

    def test_drop_and_restore(self):
        X = design_matrix(
            [("a", [1.0, 2.0, 0.0]), ("b", [4.0, 5.0, 1.0]), ("c", [0.0, 2.0, 2.0])]
        )
        reduced = X.drop("b")
        assert reduced.names == [INTERCEPT, "a", "c"]
        # with_columns restores this design's canonical ordering
        restored = X.with_columns(["c", "a", "b"])
        assert restored.names == [INTERCEPT, "a", "b", "c"]

    def test_with_columns_unknown_name(self):
        X = design_matrix([("a", [1.0, 2.0])])
        with pytest.raises(KeyError):
            X.with_columns(["zzz"])


class TestFit:
    def test_exact_line(self):
        X = design_matrix([("x", [0.0, 1.0, 2.0])])
        res = fit(X, np.array([1.0, 3.0, 5.0]))
        assert np.allclose(res.beta, [1.0, 2.0])
        assert res.r2 == pytest.approx(1.0)
        assert res.sse == pytest.approx(0.0, abs=1e-24)

    def test_hand_computed_small_case(self):
        X = design_matrix([("x", [0.0, 1.0, 2.0])])
        res = fit(X, np.array([0.0, 0.0, 3.0]))
        assert np.allclose(res.beta, [-0.5, 1.5])
        assert res.sse == pytest.approx(1.5)
        assert res.r2 == pytest.approx(0.75)

    def test_residuals_orthogonal_to_design(self):
        X, y = random_problem(1)
        res = fit(X, y)
        assert np.allclose(X.values.T @ res.residuals, 0.0, atol=1e-9)
        assert np.allclose(res.fitted + res.residuals, y)

    def test_log_likelihood_and_aic_definitions(self):
        X, y = random_problem(2)
        res = fit(X, y)
        n = X.n
        expected_ll = -n / 2 * (np.log(2 * np.pi) + np.log(res.sse / n) + 1)
        assert res.log_likelihood == pytest.approx(expected_ll, rel=1e-12)
        assert res.aic == pytest.approx(-2 * expected_ll + 2 * X.q, rel=1e-12)

    def test_p_values_from_t_distribution(self):
        X, y = random_problem(3)
        res = fit(X, y)
        expected = 2 * sps.t.sf(np.abs(res.t), X.n - X.q)
        assert np.allclose(res.p, expected, atol=1e-14)

    def test_constant_outcome_r2_zero(self):
        X, _ = random_problem(4)
        res = fit(X, np.full(X.n, 7.0))
        assert res.r2 == 0.0

    @pytest.mark.parametrize("n", [20, 30, 60, 200, 500])
    def test_intercept_only_r2_exactly_zero(self, n):
        # the SVD residual's sse differs from tss in the last bit at these n,
        # so 1 - sse/tss would read +-1.1e-16 or +-2.2e-16
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=n), rng.normal(size=n)
        res = fit(design_matrix([("a", x)]).drop("a"), y)
        assert res.q == 1
        assert res.r2 == 0.0
        assert res.adj_r2 == 0.0

    def test_duplicate_column_named_in_error(self):
        x = np.arange(10.0)
        X = design_matrix([("a", x), ("b", 2 * x)])
        with pytest.raises(ValueError, match="'a'|'b'"):
            fit(X, np.arange(10.0))

    @pytest.mark.parametrize(
        "columns, named",
        [
            # b = a + 1 is a + intercept: all three carry null-space weight
            (lambda x: [("a", x), ("b", x + 1.0)], "['a', 'b', 'intercept']"),
            (lambda x: [("a", x), ("b", 2.0 * x)], "['a', 'b']"),
            (
                lambda x: [("a", x), ("b", 3.0 * x), ("c", np.sin(x)),
                           ("d", np.sin(x) - 2.0)],
                "['a', 'b', 'c', 'd', 'intercept']",
            ),
        ],
        ids=["shifted", "scaled", "two-dependencies"],
    )
    def test_every_dependent_column_named(self, columns, named):
        x = np.arange(12.0)
        X = design_matrix(columns(x) + [("e", np.cos(x))])
        with pytest.raises(ValueError) as err:
            fit(X, x**2)
        assert str(err.value).endswith(f"linearly dependent columns include {named}")

    def test_more_columns_than_rows_rejected(self):
        X = design_matrix([("a", [1.0, 2.0]), ("b", [0.0, 1.0])])
        with pytest.raises(ValueError):
            fit(X, np.array([1.0, 2.0]))

    def test_coefficient_lookup(self):
        X, y = random_problem(5)
        res = fit(X, y)
        assert res.coefficient("x1") == res.beta[1]
        with pytest.raises(KeyError):
            res.coefficient("zzz")


@st.composite
def lstsq_problems(draw):
    """A random design, of full rank or with duplicated, scaled and summed
    columns inserted, n from q + 1 to 200, and a 1-d or (n, 2) response."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    dependent = draw(
        st.lists(st.sampled_from(["duplicate", "scaled", "summed"]), max_size=3)
    )
    q = k + len(dependent)
    n = draw(st.integers(q + 1, 200))
    a = rng.standard_normal((n, k))
    for kind in dependent:
        i, j = rng.integers(0, a.shape[1], size=2)
        if kind == "duplicate":
            col = a[:, i]
        elif kind == "scaled":
            col = draw(st.sampled_from([-3.0, -0.5, 0.25, 2.0, 7.0])) * a[:, i]
        else:
            col = a[:, i] + a[:, j]
        a = np.insert(a, draw(st.integers(0, a.shape[1])), col, axis=1)
    shape = draw(st.sampled_from([(n,), (n, 2)]))
    return a, rng.standard_normal(shape)


@settings(max_examples=200, deadline=None)
@given(lstsq_problems())
def test_lstsq_matches_numpy_minimum_norm_solution(problem):
    """The one SVD behind every least-squares solve against
    np.linalg.lstsq(rcond=None), which has the same singular value cutoff."""
    a, b = problem
    coef, _ = _lstsq(a, b)
    ref, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert coef.shape == ref.shape
    assert np.linalg.norm(coef - ref) <= 1e-10 * np.linalg.norm(ref)
    resid_gap = (b - a @ coef) - (b - a @ ref)
    assert np.linalg.norm(resid_gap) <= 1e-10 * np.linalg.norm(b)


class TestVif:
    def test_independent_columns_near_one(self):
        rng = np.random.default_rng(40)
        X = design_matrix([(f"x{j}", rng.normal(size=400)) for j in range(3)])
        assert np.all(vif(X) < 1.2)

    def test_matches_direct_auxiliary_regression(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=60)
        b = rng.normal(size=60) + 0.8 * a
        c = rng.normal(size=60)
        X = design_matrix([("a", a), ("b", b), ("c", c)])
        got = vif(X)
        for j, name in enumerate(["a", "b", "c"]):
            others = X.drop(name)
            target = X.values[:, X.column_index(name)]
            coef, *_ = np.linalg.lstsq(others.values, target, rcond=None)
            resid = target - others.values @ coef
            tss = np.sum((target - target.mean()) ** 2)
            r2 = 1 - resid @ resid / tss
            assert got[j] == pytest.approx(1.0 / (1.0 - r2), rel=1e-10)

    def test_exact_duplicate_is_infinite(self):
        x = np.arange(30.0)
        rng = np.random.default_rng(42)
        X = design_matrix([("a", x), ("b", x), ("c", rng.normal(size=30))])
        v = vif(X)
        assert np.isinf(v[0]) and np.isinf(v[1])
        # the duplicate adds nothing to the regression of c on the others
        assert v[2] == pytest.approx(vif(X.drop("b"))[1], rel=1e-12)

    def test_requires_two_slopes(self):
        X = design_matrix([("a", np.arange(5.0))])
        with pytest.raises(ValueError):
            vif(X)

    def test_constant_slope_rejected(self):
        X = design_matrix([("a", np.ones(5)), ("b", np.arange(5.0))])
        with pytest.raises(ValueError):
            vif(X)


class TestVifPrune:
    def test_near_duplicate_removed_and_max_drops(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=300)
        dup = a + rng.normal(scale=0.05, size=300)
        b = rng.normal(size=300)
        X = design_matrix([("a", a), ("dup", dup), ("b", b)])
        assert vif(X).max() > 40
        pruned, removed = vif_prune(X, threshold=10.0)
        assert [name for name, _ in removed] in (["a"], ["dup"])
        assert vif(pruned).max() <= 10.0

    def test_nothing_removed_when_clean(self):
        rng = np.random.default_rng(44)
        X = design_matrix([(f"x{j}", rng.normal(size=200)) for j in range(3)])
        pruned, removed = vif_prune(X, threshold=10.0)
        assert removed == []
        assert pruned.names == X.names

    def test_all_collinear_prunes_down_to_one(self):
        # with every slope a near-copy of the same line, pruning continues
        # until the inflation factor is no longer defined
        x = np.arange(50.0)
        rng = np.random.default_rng(45)
        X = design_matrix(
            [("a", x), ("b", x + rng.normal(scale=1e-6, size=50)),
             ("c", 2 * x + rng.normal(scale=1e-6, size=50))]
        )
        pruned, removed = vif_prune(X, threshold=10.0)
        assert len(pruned.slope_names) == 1
        assert len(removed) == 2


class TestStepwise:
    def test_recovers_planted_support(self):
        rng = np.random.default_rng(46)
        n = 300
        cols = {f"x{j}": rng.normal(size=n) for j in range(1, 6)}
        y = 2.0 * cols["x1"] - 1.5 * cols["x2"] + rng.normal(scale=1.0, size=n)
        X = design_matrix(sorted(cols.items()))
        final, final_fit, trace = stepwise_aic(X, y)
        assert set(final.slope_names) == {"x1", "x2"}
        assert trace[0]["action"] == "start"
        assert final_fit.aic <= trace[0]["aic"]

    def test_trace_aic_strictly_improves(self):
        rng = np.random.default_rng(47)
        n = 200
        cols = {f"x{j}": rng.normal(size=n) for j in range(1, 5)}
        y = cols["x1"] + rng.normal(size=n)
        _, _, trace = stepwise_aic(design_matrix(sorted(cols.items())), y)
        aics = [t["aic"] for t in trace]
        assert all(b < a for a, b in zip(aics, aics[1:]))

    def test_keeps_everything_when_all_matter(self):
        rng = np.random.default_rng(48)
        n = 400
        cols = {f"x{j}": rng.normal(size=n) for j in range(1, 4)}
        y = sum(cols.values()) + rng.normal(scale=0.3, size=n)
        final, _, trace = stepwise_aic(design_matrix(sorted(cols.items())), y)
        assert set(final.slope_names) == {"x1", "x2", "x3"}
        assert len(trace) == 1  # just the start row


    def test_readds_a_column_dropped_earlier(self):
        # a seeded search found this design: once x4 and x1 are gone too,
        # x2, the first column dropped, lowers AIC again
        rng = np.random.default_rng(213)
        z = rng.normal(size=(30, 5)) @ (np.eye(5) + rng.normal(size=(5, 5)))
        y = z[:, 0] + 2.0 * rng.normal(size=30)
        X = design_matrix([(f"x{j}", z[:, j]) for j in range(5)])
        final, final_fit, trace = stepwise_aic(X, y)
        assert [(t["action"], t["column"]) for t in trace] == [
            ("start", None), ("drop", "x2"), ("drop", "x4"), ("drop", "x1"), ("add", "x2"),
        ]
        assert final.slope_names == ["x0", "x2", "x3"]
        assert final_fit.aic == trace[-1]["aic"] == fit(final, y).aic
        assert trace[-1]["aic"] < fit(X.with_columns(["x0", "x3"]), y).aic == trace[-2]["aic"]

    def test_takes_the_fit_of_the_move_it_makes(self, monkeypatch):
        # one fit to start and one per candidate in each pass; the last pass
        # finds no move, and a move reuses its candidate's fit
        rng = np.random.default_rng(213)
        z = rng.normal(size=(30, 5)) @ (np.eye(5) + rng.normal(size=(5, 5)))
        y = z[:, 0] + 2.0 * rng.normal(size=30)
        X = design_matrix([(f"x{j}", z[:, j]) for j in range(5)])
        calls = []

        def counting(design, outcome):
            calls.append(design.names)
            return fit(design, outcome)

        monkeypatch.setattr(ols, "fit", counting)
        final, final_fit, trace = stepwise_aic(X, y)
        assert len(trace) == 5
        assert len(calls) == 1 + 5 * len(trace)
        refit = fit(final, y)
        assert np.array_equal(final_fit.beta, refit.beta)
        assert np.array_equal(final_fit.se, refit.se)


class TestSignificancePrune:
    def test_null_predictor_removed(self):
        rng = np.random.default_rng(49)
        n = 500
        strong = rng.normal(size=n)
        noise = rng.normal(size=n)
        y = 2.0 * strong + rng.normal(size=n)
        X = design_matrix([("strong", strong), ("noise", noise)])
        final, final_fit, removed = significance_prune(X, y, alpha=0.05)
        assert removed == ["noise"]
        assert final.slope_names == ["strong"]
        slope_ps = final_fit.p[1:]
        assert np.all(slope_ps < 0.05)

    def test_intercept_survives_even_when_insignificant(self):
        rng = np.random.default_rng(50)
        n = 200
        x = rng.normal(size=n)
        y = 3.0 * x + rng.normal(size=n)  # true intercept 0
        X = design_matrix([("x", x)])
        final, _, removed = significance_prune(X, y, alpha=0.05)
        assert INTERCEPT in final.names


class TestResidualDiagnostics:
    def test_skewless_two_kurtosis_fixture(self):
        resid = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, -1.0, 1.0])
        stat, p = jarque_bera(resid)
        assert stat == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert p == pytest.approx(1 - sps.chi2.cdf(1.0 / 3.0, 2), rel=1e-12)

    def test_normality_stat_small_for_normal_large_for_heavy_tails(self):
        rng = np.random.default_rng(51)
        normal_stat, _ = jarque_bera(rng.normal(size=2000))
        heavy_stat, heavy_p = jarque_bera(rng.standard_t(2, size=2000))
        assert heavy_stat > normal_stat
        assert heavy_p < 0.01

    def test_too_few_residuals_rejected(self):
        with pytest.raises(ValueError):
            jarque_bera(np.arange(7.0))

    def test_constant_residuals_rejected(self):
        with pytest.raises(ValueError):
            jarque_bera(np.zeros(10))

    def test_heteroskedasticity_stat_is_n_times_aux_r2(self):
        rng = np.random.default_rng(52)
        n = 150
        x = rng.normal(size=n)
        X = design_matrix([("x", x)])
        resid = rng.normal(size=n) * (1 + 0.5 * np.abs(x))
        stat, p = koenker_bassett(X, resid)
        e2 = resid**2
        coef, *_ = np.linalg.lstsq(X.values, e2, rcond=None)
        r = e2 - X.values @ coef
        r2 = 1 - r @ r / np.sum((e2 - e2.mean()) ** 2)
        assert stat == pytest.approx(n * r2, rel=1e-10)
        assert p == pytest.approx(sps.chi2.sf(stat, X.q - 1), rel=1e-10)

    def test_heteroskedasticity_needs_a_slope(self):
        X = design_matrix([("x", np.arange(8.0))]).drop("x")
        with pytest.raises(ValueError):
            koenker_bassett(X, np.arange(8.0))

    def test_condition_number_matches_singular_value_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            X = design_matrix([(f"x{j}", rng.normal(size=30)) for j in range(3)])
            scaled = X.values / np.linalg.norm(X.values, axis=0)
            svals = np.linalg.svd(scaled, compute_uv=False)
            assert condition_number(X) == pytest.approx(
                svals[0] / svals[-1], rel=1e-8
            )

    def test_orthogonal_design_condition_one(self):
        X = design_matrix([("s", [1.0, 1.0, -1.0, -1.0]), ("t", [1.0, -1.0, 1.0, -1.0])])
        assert condition_number(X) == pytest.approx(1.0, rel=1e-12)

    def test_duplicate_column_condition_infinite(self):
        x = np.arange(20.0)
        X = design_matrix([("a", x), ("b", x)])
        assert np.isinf(condition_number(X))

    def test_zero_column_rejected(self):
        X = design_matrix([("z", np.zeros(5))])
        with pytest.raises(ValueError, match="z"):
            condition_number(X)


@pytest.fixture(scope="module")
def lm_setup():
    units = grid_units(7, 7)
    w = queen_contiguity(units)
    rng = np.random.default_rng(60)
    n = 49
    X = design_matrix([("x1", rng.normal(size=n)), ("x2", rng.normal(size=n))])
    y = X.values @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=n)
    return X, y, w


def dense_lm_oracle(X, y, w_dense):
    """Direct dense-matrix evaluation of all four score statistics."""
    n = len(y)
    coef, *_ = np.linalg.lstsq(X.values, y, rcond=None)
    e = y - X.values @ coef
    sigma2 = e @ e / n
    d_e = e @ (w_dense @ e) / sigma2
    d_y = e @ (w_dense @ y) / sigma2
    T = np.sum(w_dense * w_dense) + np.sum(w_dense * w_dense.T)
    wxb = w_dense @ (X.values @ coef)
    proj = X.values @ np.linalg.lstsq(X.values, wxb, rcond=None)[0]
    m_wxb = wxb - proj
    J = (m_wxb @ m_wxb + T * sigma2) / sigma2
    lm_error = d_e**2 / T
    lm_lag = d_y**2 / J
    robust_lag = (d_y - d_e) ** 2 / (J - T)
    robust_error = (d_e - (T / J) * d_y) ** 2 / (T * (1 - T / J))
    return lm_error, lm_lag, robust_error, robust_lag


class TestLmTests:
    def test_matches_dense_oracle(self, lm_setup):
        X, y, w = lm_setup
        res = fit(X, y)
        suite = lm_tests(X, y, res, w)
        a = w.to_dense()
        o_err, o_lag, o_rerr, o_rlag = dense_lm_oracle(
            X, y, a / a.sum(axis=1, keepdims=True)
        )
        assert suite.lm_error == pytest.approx(o_err, rel=1e-10)
        assert suite.lm_lag == pytest.approx(o_lag, rel=1e-10)
        assert suite.robust_lm_error == pytest.approx(o_rerr, rel=1e-10)
        assert suite.robust_lm_lag == pytest.approx(o_rlag, rel=1e-10)

    def test_additive_identity(self, lm_setup):
        X, y, w = lm_setup
        rng = np.random.default_rng(61)
        for _ in range(10):
            yy = y + rng.normal(size=len(y))
            suite = lm_tests(X, yy, fit(X, yy), w)
            left = suite.lm_lag + suite.robust_lm_error
            right = suite.lm_error + suite.robust_lm_lag
            assert left == pytest.approx(right, abs=1e-8)

    def test_p_values_are_chi2_one_tails(self, lm_setup):
        X, y, w = lm_setup
        suite = lm_tests(X, y, fit(X, y), w)
        for name, stat, p in suite.as_rows():
            assert p == pytest.approx(sps.chi2.sf(stat, 1), rel=1e-10)

    def test_isolated_unit_named(self, lm_setup):
        X, y, w = lm_setup
        # drop unit 48's links both ways, leaving it an island
        kept = [nb[nb != 48] for nb in w.neighbors[:48]]
        links = adjacency_from_neighbors(kept + [np.empty(0, dtype=int)])
        with pytest.raises(ValueError, match=r"isolated units \[48\]"):
            lm_tests(X, y, fit(X, y), links)

    def test_size_mismatch_rejected(self, lm_setup):
        X, y, w = lm_setup
        Xs = design_matrix([("x", np.arange(9.0))])
        ys = np.arange(9.0)
        with pytest.raises(ValueError):
            lm_tests(Xs, ys, fit(Xs, ys), w)

    def test_intercept_only_design_degenerates(self, lm_setup):
        _, y, w = lm_setup
        X0 = design_matrix([("x", np.arange(float(len(y))))]).drop("x")
        res = fit(X0, y)
        suite = lm_tests(X0, y, res, w)
        # the lagged mean is itself constant, so the robust variants carry
        # no information
        assert suite.degenerate
        assert suite.robust_lm_error == 0.0
        assert suite.robust_lm_lag == 0.0
        assert suite.robust_lm_error_p == 1.0
        # W1 = 1 makes the two plain tests coincide, so they fire together
        # or not at all; here neither does, and the decision needs no robust
        # variant
        assert suite.lm_lag == pytest.approx(suite.lm_error, rel=1e-12)
        assert suite.lm_error_p > 0.05
        assert model_decision(suite) == "stay-OLS"


def make_suite(err_p, lag_p, rerr_p, rlag_p, rerr=1.0, rlag=1.0, degenerate=False):
    return LmSuite(
        lm_error=1.0,
        lm_error_p=err_p,
        lm_lag=1.0,
        lm_lag_p=lag_p,
        robust_lm_error=rerr,
        robust_lm_error_p=rerr_p,
        robust_lm_lag=rlag,
        robust_lm_lag_p=rlag_p,
        degenerate=degenerate,
    )


class TestModelDecision:
    def test_neither_plain_significant(self):
        assert model_decision(make_suite(0.4, 0.6, 0.9, 0.9)) == "stay-OLS"

    def test_only_error_significant(self):
        assert model_decision(make_suite(0.01, 0.4, 0.9, 0.9)) == "fit-error"

    def test_only_lag_significant(self):
        assert model_decision(make_suite(0.4, 0.01, 0.9, 0.9)) == "fit-lag"

    def test_both_plain_robust_error_wins(self):
        decision = model_decision(
            make_suite(0.01, 0.01, 0.001, 0.2, rerr=12.0, rlag=1.5)
        )
        assert decision == "fit-error"

    def test_both_plain_robust_lag_wins(self):
        decision = model_decision(
            make_suite(0.01, 0.01, 0.2, 0.001, rerr=1.5, rlag=12.0)
        )
        assert decision == "fit-lag"

    def test_both_robust_significant_larger_stat_wins(self):
        decision = model_decision(
            make_suite(0.01, 0.01, 0.002, 0.001, rerr=9.0, rlag=11.0)
        )
        assert decision == "fit-lag"

    def test_both_robust_exact_tie_prefers_error(self):
        decision = model_decision(
            make_suite(0.01, 0.01, 0.001, 0.001, rerr=10.0, rlag=10.0)
        )
        assert decision == "fit-error"

    def test_both_plain_but_no_robust_warns_and_stays(self):
        with pytest.warns(UserWarning):
            decision = model_decision(make_suite(0.01, 0.01, 0.4, 0.4))
        assert decision == "stay-OLS"

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            model_decision(make_suite(0.01, 0.01, 1.0, 1.0, degenerate=True))

    def test_degenerate_suite_without_plain_signal_stays(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = model_decision(make_suite(0.4, 0.6, 1.0, 1.0, degenerate=True))
        assert decision == "stay-OLS"

    def test_degenerate_suite_with_one_plain_test_fits_it(self):
        assert model_decision(make_suite(0.01, 0.4, 1.0, 1.0, degenerate=True)) == "fit-error"
        assert model_decision(make_suite(0.4, 0.01, 1.0, 1.0, degenerate=True)) == "fit-lag"

    def test_alpha_threshold_respected(self):
        suite = make_suite(0.04, 0.5, 0.9, 0.9)
        assert model_decision(suite, alpha=0.05) == "fit-error"
        assert model_decision(suite, alpha=0.01) == "stay-OLS"
