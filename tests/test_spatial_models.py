"""Spectral machinery and maximum-likelihood spatial regression."""

import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import identity

from arealstat import spatial_models
from arealstat.ols import design_matrix, fit
from arealstat.spatial_models import (
    compare,
    error_concentrated_loglik,
    fit_error_ml,
    fit_lag_ml,
    lag_concentrated_loglik,
    log_det,
    spectral_cache,
)
from arealstat.synth import autoregressive_solver
from arealstat.weights import queen_contiguity, to_weights
from conftest import adjacency_from_neighbors, grid_units


@pytest.fixture(scope="module")
def w10():
    return to_weights(queen_contiguity(grid_units(10, 10)), "row-standardized")


@pytest.fixture(scope="module")
def cache10(w10):
    return spectral_cache(w10)


def make_error_data(w, lam, seed, beta=(1.0, 2.0, -1.0)):
    rng = np.random.default_rng(seed)
    n = w.n
    X = design_matrix([("x1", rng.normal(size=n)), ("x2", rng.normal(size=n))])
    u = autoregressive_solver(w, lam)(rng.normal(size=n))
    y = X.values @ np.array(beta) + u
    return X, y


def make_lag_data(w, rho, seed, beta=(1.0, 2.0, -1.0)):
    rng = np.random.default_rng(seed)
    n = w.n
    X = design_matrix([("x1", rng.normal(size=n)), ("x2", rng.normal(size=n))])
    signal = X.values @ np.array(beta) + rng.normal(size=n)
    y = autoregressive_solver(w, rho)(signal)
    return X, y


class TestSpectralCache:
    def test_interval_brackets_zero(self, w10, cache10):
        # dense oracle: the ends are 1/min and 1/max of W's own spectrum
        dense_eigs = np.linalg.eigvals(w10.to_dense()).real
        lo, hi = cache10.interval
        assert lo < 0 < hi
        assert lo == pytest.approx(1.0 / dense_eigs.min(), rel=1e-12)
        assert hi == pytest.approx(1.0 / dense_eigs.max(), rel=1e-12)

    def test_row_standardized_upper_bound_is_one(self, cache10):
        assert cache10.interval[1] == pytest.approx(1.0, abs=1e-8)

    def test_binary_weights_rejected(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "binary")
        with pytest.raises(ValueError):
            spectral_cache(w)

    def test_isolated_units_named(self):
        adj = queen_contiguity(grid_units(3, 3))
        adj = adjacency_from_neighbors(list(adj.neighbors) + [np.empty(0, dtype=int)])
        with pytest.warns(UserWarning):
            w = to_weights(adj, "row-standardized")
        with pytest.raises(ValueError, match=r"\[9\]"):
            spectral_cache(w)

    def test_repeated_builds_give_bit_equal_intervals(self, w10):
        assert spectral_cache(w10).interval == spectral_cache(w10).interval

    def test_lattice_above_former_dense_limit_is_accepted(self):
        # 101 x 101 = 10 201 units, beyond the old dense n <= 10 000 budget
        w = to_weights(queen_contiguity(grid_units(101, 101)), "row-standardized")
        cache = spectral_cache(w)
        assert cache.n == 10201
        assert np.isfinite(log_det(cache, 0.5))

    def test_memo_holds_one_entry_per_distinct_p(self, w10, monkeypatch):
        X, y = make_lag_data(w10, 0.4, seed=79)
        cache = spectral_cache(w10)
        seen = []
        inner = spatial_models.log_det

        def recording(c, p):
            seen.append(float(p))
            return inner(c, p)

        monkeypatch.setattr(spatial_models, "log_det", recording)
        fit_lag_ml(X, y, w10, cache=cache)
        assert len(seen) > len(set(seen))
        assert sorted(cache.log_dets) == sorted(set(seen))


class TestLogDet:
    def test_matches_dense_determinant(self, w10, cache10):
        dense = w10.to_dense()
        eye = np.eye(w10.n)
        for p in (-0.9, -0.3, 0.0, 0.25, 0.5, 0.8, 0.95):
            sign, dense_ld = np.linalg.slogdet(eye - p * dense)
            assert sign > 0
            assert log_det(cache10, p) == pytest.approx(dense_ld, abs=1e-8)

    def test_zero_is_exactly_zero(self, cache10):
        assert log_det(cache10, 0.0) == 0.0

    def test_nonpositive_pivot_rejected(self, w10):
        # with the interval widened past 1/omega_max, I - pS is indefinite
        # at p = 2 and its LU has negative pivots
        cache = spectral_cache(w10)
        cache.interval = (cache.interval[0], 10.0)
        with pytest.raises(ValueError, match="p=2.0"):
            log_det(cache, 2.0)
        assert 2.0 not in cache.log_dets

    def test_outside_interval_rejected(self, cache10):
        lo, hi = cache10.interval
        for p in (lo, hi, lo - 0.1, hi + 0.1):
            with pytest.raises(ValueError):
                log_det(cache10, p)


class TestConcentratedLikelihoods:
    def test_error_likelihood_at_zero_equals_plain_fit(self, w10, cache10):
        X, y = make_error_data(w10, 0.0, seed=70)
        res = fit(X, y)
        ll0 = error_concentrated_loglik(X, y, w10, 0.0, cache=cache10)
        assert ll0 == pytest.approx(res.log_likelihood, abs=1e-9)

    def test_lag_likelihood_at_zero_equals_plain_fit(self, w10, cache10):
        X, y = make_lag_data(w10, 0.0, seed=71)
        res = fit(X, y)
        ll0 = lag_concentrated_loglik(X, y, w10, 0.0, cache=cache10)
        assert ll0 == pytest.approx(res.log_likelihood, abs=1e-9)

    def test_error_profile_peaks_near_truth(self, w10, cache10):
        X, y = make_error_data(w10, 0.5, seed=72)
        grid = np.linspace(-0.5, 0.9, 57)
        lls = [error_concentrated_loglik(X, y, w10, g, cache=cache10) for g in grid]
        assert abs(grid[int(np.argmax(lls))] - 0.5) < 0.2


class TestErrorFit:
    def test_recovers_planted_parameters(self, w10, cache10):
        X, y = make_error_data(w10, 0.5, seed=73)
        res = fit_error_ml(X, y, w10, cache=cache10)
        assert res.kind == "error"
        assert abs(res.param - 0.5) < 0.25
        # the intercept is noisy under planted error dependence; slopes are not
        assert abs(res.beta[0] - 1.0) < 1.0
        assert np.allclose(res.beta[1:], [2.0, -1.0], atol=0.35)

    def test_likelihood_beats_every_grid_point(self, w10, cache10):
        X, y = make_error_data(w10, 0.4, seed=74)
        res = fit_error_ml(X, y, w10, cache=cache10)
        for g in np.linspace(-0.8, 0.95, 36):
            assert res.log_likelihood >= error_concentrated_loglik(
                X, y, w10, g, cache=cache10
            ) - 1e-9

    def test_aic_definition(self, w10, cache10):
        X, y = make_error_data(w10, 0.3, seed=75)
        res = fit_error_ml(X, y, w10, cache=cache10)
        assert res.aic == pytest.approx(
            -2 * res.log_likelihood + 2 * (X.q + 1), rel=1e-12
        )

    def test_pseudo_r2_is_squared_correlation(self, w10, cache10):
        X, y = make_error_data(w10, 0.3, seed=76)
        res = fit_error_ml(X, y, w10, cache=cache10)
        yhat = X.values @ res.beta
        assert res.pseudo_r2 == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-10)

    def test_standard_errors_present_and_positive(self, w10, cache10):
        X, y = make_error_data(w10, 0.5, seed=77)
        res = fit_error_ml(X, y, w10, cache=cache10)
        assert res.se_available
        assert res.param_se > 0
        assert np.all(res.beta_se > 0)
        assert 0 <= res.param_p <= 1

    def test_residual_vector_is_unfiltered(self, w10, cache10):
        X, y = make_error_data(w10, 0.4, seed=78)
        res = fit_error_ml(X, y, w10, cache=cache10)
        assert np.allclose(res.u, y - X.values @ res.beta)

    def test_unconverged_optimizer_is_an_error(self, w10, cache10, monkeypatch):
        X, y = make_error_data(w10, 0.5, seed=73)
        seen = []

        def nan_log_det(c, p):
            seen.append(p)
            return math.nan

        monkeypatch.setattr(spatial_models, "log_det", nan_log_det)
        with pytest.raises(ValueError, match="log-likelihood is NaN") as exc:
            fit_error_ml(X, y, w10, cache=cache10)
        last = float(re.search(r"last p=(\S+)\)", str(exc.value)).group(1))
        assert last == float(seen[-1])

    def test_evaluation_limit_is_an_error(self, w10, cache10, monkeypatch):
        assert spatial_models._MAX_EVALS == 500
        X, y = make_error_data(w10, 0.5, seed=73)
        seen = []
        inner = spatial_models.log_det

        def recording(c, p):
            seen.append(p)
            return inner(c, p)

        monkeypatch.setattr(spatial_models, "log_det", recording)
        monkeypatch.setattr(spatial_models, "_MAX_EVALS", 4)
        with pytest.raises(ValueError, match="reached 4 evaluations"):
            fit_error_ml(X, y, w10, cache=cache10)
        assert len(seen) == 4


def quadratic(a, c, d):
    return lambda x: a * (x - c) ** 2 + d


def quartic(a, c, b):
    return lambda x: a * (x - c) ** 4 + b * (x - c) ** 2 + 0.1 * x


def wavy(a, c, k):
    # several local minima inside the bounds
    return lambda x: math.sin(k * (x - c)) + a * x * x


class TestBoundedMinimizeMatchesScipy:
    """The in-house bounded Brent search takes the same steps as
    scipy.optimize.minimize_scalar(method="bounded"), the oracle it was
    ported from."""

    @staticmethod
    def check(f, lo, hi, maxfun=500):
        want = scipy.optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-8, "maxiter": maxfun},
        )
        x, nfev, status, _ = spatial_models._bounded_minimize(f, lo, hi, 1e-8, maxfun)
        assert (nfev, status) == (want.nfev, want.status)
        assert float(x) == float(want.x) or (math.isnan(x) and math.isnan(want.x))
        return status

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([quadratic, quartic, wavy]),
        st.floats(1e-3, 1e3),
        st.floats(-2.0, 2.0),
        st.floats(0.5, 40.0),
        st.floats(-3.0, 0.0),
        st.floats(0.01, 4.0),
    )
    def test_profiles(self, family, a, c, k, lo, width):
        self.check(family(a, c, k), lo, lo + width)

    def test_profile_on_lattice(self, w10, cache10):
        X, y = make_error_data(w10, 0.5, seed=73)
        profile = lambda p: -error_concentrated_loglik(X, y, w10, p, cache=cache10)
        lo, hi = cache10.interval
        self.check(profile, lo + 1e-10 * (hi - lo), hi - 1e-10 * (hi - lo))

    def test_evaluation_limit(self):
        assert self.check(quadratic(1.0, 0.3, 0.0), -1.0, 1.0, maxfun=5) == 1

    def test_nan(self):
        assert self.check(lambda x: math.nan, -1.0, 1.0) == 2
        # as in scipy, only a NaN at the last or the best point counts
        assert self.check(lambda x: math.nan if x > 0.2 else (x - 0.5) ** 2, -1.0, 1.0) == 0


class TestLagFit:
    def test_recovers_planted_parameters(self, w10, cache10):
        X, y = make_lag_data(w10, 0.488, seed=80)
        res = fit_lag_ml(X, y, w10, cache=cache10)
        assert res.kind == "lag"
        assert abs(res.param - 0.488) < 0.25
        assert np.allclose(res.beta[1:], [2.0, -1.0], atol=0.35)

    def test_likelihood_beats_every_grid_point(self, w10, cache10):
        X, y = make_lag_data(w10, 0.4, seed=81)
        res = fit_lag_ml(X, y, w10, cache=cache10)
        for g in np.linspace(-0.8, 0.95, 36):
            assert res.log_likelihood >= lag_concentrated_loglik(
                X, y, w10, g, cache=cache10
            ) - 1e-9

    def test_fitted_values_solve_the_filter(self, w10, cache10):
        X, y = make_lag_data(w10, 0.3, seed=82)
        res = fit_lag_ml(X, y, w10, cache=cache10)
        # yhat = (I - rho W)^-1 X beta, so corr(y, yhat)^2 is the fit score
        a = identity(w10.n, format="csc") - res.param * w10.matrix.tocsc()
        from scipy.sparse.linalg import spsolve

        yhat = spsolve(a, X.values @ res.beta)
        assert res.pseudo_r2 == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-8)

    def test_residuals_subtract_both_parts(self, w10, cache10):
        X, y = make_lag_data(w10, 0.3, seed=83)
        res = fit_lag_ml(X, y, w10, cache=cache10)
        wy = w10.matrix @ y
        assert np.allclose(res.u, y - res.param * wy - X.values @ res.beta)


@pytest.mark.parametrize("fit_fn", [fit_error_ml, fit_lag_ml])
def test_rank_deficient_design_names_the_dependency(w10, cache10, fit_fn):
    X, y = make_error_data(w10, 0.3, seed=84)
    x1 = X.values[:, 1]
    X = design_matrix([("x1", x1), ("x2", X.values[:, 2]), ("x3", 0.5 * x1)])
    with pytest.raises(ValueError, match=r"rank 3 of 4.*\['x1', 'x3'\]"):
        fit_fn(X, y, w10, cache=cache10)


class TestCompare:
    def test_rows_and_preference(self, w10, cache10):
        X, y = make_error_data(w10, 0.6, seed=84)
        ols_res = fit(X, y)
        sp_res = fit_error_ml(X, y, w10, cache=cache10)
        cmp_ = compare(ols_res, sp_res)
        models = [r["model"] for r in cmp_.rows]
        assert models == ["ols", "spatial-error"]
        stats = {r["model"]: r for r in cmp_.rows}
        assert stats["ols"]["fit_statistic"] == "adj_r2"
        assert stats["spatial-error"]["fit_statistic"] == "pseudo_r2"
        assert stats["ols"]["n_params"] == X.q
        assert stats["spatial-error"]["n_params"] == X.q + 1
        # strong planted dependence: the spatial model must win on AIC
        assert sp_res.aic < ols_res.aic
        assert cmp_.preferred == "spatial-error"

    def test_mismatched_sizes_rejected(self, w10, cache10):
        X, y = make_error_data(w10, 0.3, seed=85)
        sp_res = fit_error_ml(X, y, w10, cache=cache10)
        Xs = design_matrix([("x", np.arange(10.0))])
        small = fit(Xs, np.arange(10.0) * 2 + np.random.default_rng(0).normal(size=10))
        with pytest.raises(ValueError):
            compare(small, sp_res)
