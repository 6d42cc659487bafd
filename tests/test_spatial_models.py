"""Spectral machinery and maximum-likelihood spatial regression."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg

from arealstat import ols, spatial_models
from arealstat.ols import design_matrix, fit, koenker_bassett, lm_tests
from arealstat.spatial_models import (
    SpectralCache,
    compare,
    error_concentrated_loglik,
    fit_error_ml,
    fit_lag_ml,
    lag_concentrated_loglik,
    log_det,
    spectral_cache,
)
from arealstat.synth import autoregressive_solver
from arealstat.weights import (
    SpatialWeights,
    queen_contiguity,
    read_weights,
    rook_contiguity,
    write_weights,
)
from conftest import adjacency_from_neighbors, grid_units, torus_adjacency


@pytest.fixture(scope="module")
def w10():
    return queen_contiguity(grid_units(10, 10))


def row_standardized_dense(links):
    """The models' W built densely from the links: A / rowsum."""
    a = links.matrix.toarray()
    return a / a.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def cache10(w10):
    return spectral_cache(w10)


@pytest.fixture
def built_caches(monkeypatch):
    """Every SpectralCache the fits build, in order."""
    built = []
    inner = spatial_models.spectral_cache

    def recording(links):
        built.append(inner(links))
        return built[-1]

    monkeypatch.setattr(spatial_models, "spectral_cache", recording)
    return built


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


def adjacency_sym(adj):
    """S = D^-1/2 A D^-1/2 from the contiguity links, written out here as
    the oracle; the links read back from weights text must give the same
    bits."""
    deg = adj.degree()
    d_isqrt = sp.diags(1.0 / np.sqrt(deg.astype(float)))
    return (d_isqrt @ adj.matrix @ d_isqrt).tocsc()


class TestSpectralCache:
    @pytest.mark.parametrize(
        "links",
        [
            queen_contiguity(grid_units(10, 10)),
            rook_contiguity(grid_units(7, 9)),
            torus_adjacency(6, 5),
        ],
        ids=["queen", "rook", "torus"],
    )
    @pytest.mark.parametrize("via_text", [False, True])
    def test_sym_and_log_det_bit_equal_to_adjacency_oracle(self, links, via_text):
        # zero-padded ids sort in unit order, so the file reads back as the same links
        ids = [f"{i:03d}" for i in range(links.n)]
        w = read_weights(write_weights(links, ids))[1] if via_text else links
        cache = spectral_cache(w)
        sym = adjacency_sym(links)
        for got, want in ((cache.sym.indptr, sym.indptr),
                          (cache.sym.indices, sym.indices),
                          (cache.sym.data, sym.data)):
            assert np.array_equal(got, want)
        oracle = SpectralCache(sym=sym)
        lo, hi = spatial_models._INTERVAL
        for p in (lo + 1e-6, 0.5 * lo, -0.1, 0.0, 0.3, 0.9, hi - 1e-6):
            assert log_det(cache, p) == log_det(oracle, p)

    def test_interval_brackets_zero(self):
        # the restricted range (-1, 1) lies inside the feasible range
        # (1/omega_min, 1/omega_max) of W's own dense spectrum, and equals
        # it for the bipartite rook lattice, whose omega_min is exactly -1
        for name, links in (
            ("queen", queen_contiguity(grid_units(10, 10))),
            ("rook", rook_contiguity(grid_units(7, 9))),
            ("torus", torus_adjacency(6, 5)),
        ):
            dense_eigs = np.linalg.eigvals(row_standardized_dense(links)).real
            dense_lo, dense_hi = 1.0 / dense_eigs.min(), 1.0 / dense_eigs.max()
            lo, hi = spatial_models._INTERVAL
            assert (lo, hi) == (-1.0, 1.0)
            assert hi == pytest.approx(dense_hi, rel=1e-12)
            if name == "rook":
                assert lo == pytest.approx(dense_lo, rel=1e-12)
            else:
                assert dense_lo < lo - 0.1, name

    def test_row_standardized_upper_bound_is_one(self, cache10):
        # the interval's upper end is 1/omega_max, with omega_max = 1 for
        # every row-stochastic W
        omega_max = np.linalg.eigvalsh(cache10.sym.toarray()).max()
        assert spatial_models._INTERVAL[1] == pytest.approx(1.0 / omega_max, abs=1e-8)

    def test_isolated_units_named(self):
        adj = queen_contiguity(grid_units(3, 3))
        adj = adjacency_from_neighbors(list(adj.neighbors) + [np.empty(0, dtype=int)])
        with pytest.raises(ValueError, match=r"\[9\]"):
            spectral_cache(adj)

    def test_repeated_builds_give_bit_equal_log_dets(self, w10):
        first, second = spectral_cache(w10), spectral_cache(w10)
        for p in (-0.999, 0.3, 0.999):
            assert log_det(first, p) == log_det(second, p)

    def test_lattice_above_former_dense_limit_is_accepted(self):
        # 101 x 101 = 10 201 units, beyond the old dense n <= 10 000 budget
        w = queen_contiguity(grid_units(101, 101))
        cache = spectral_cache(w)
        assert cache.n == 10201
        assert np.isfinite(log_det(cache, 0.5))

    def test_memo_holds_one_entry_per_distinct_p(self, w10, built_caches, monkeypatch):
        X, y = make_lag_data(w10, 0.4, seed=79)
        seen = []
        inner = spatial_models.log_det

        def recording(c, p):
            seen.append(float(p))
            return inner(c, p)

        monkeypatch.setattr(spatial_models, "log_det", recording)
        fit_lag_ml(X, y, w10)
        (cache,) = built_caches
        assert len(seen) > len(set(seen))
        assert sorted(cache.log_dets) == sorted(set(seen))


class TestLogDet:
    def test_matches_dense_determinant(self, w10, cache10):
        dense = row_standardized_dense(w10)
        eye = np.eye(w10.n)
        for p in (-0.9, -0.3, 0.0, 0.25, 0.5, 0.8, 0.95):
            sign, dense_ld = np.linalg.slogdet(eye - p * dense)
            assert sign > 0
            assert log_det(cache10, p) == pytest.approx(dense_ld, abs=1e-8)

    def test_zero_is_exactly_zero(self, cache10):
        assert log_det(cache10, 0.0) == 0.0

    def test_nonpositive_pivot_rejected(self, w10):
        # past 1/omega_max = 1, I - pS is indefinite at p = 2 and its LU has
        # negative pivots
        cache = spectral_cache(w10)
        with pytest.raises(ValueError, match="p=2.0"):
            spatial_models._factorize(cache, 2.0)
        assert 2.0 not in cache.log_dets

    def test_outside_interval_rejected(self, cache10):
        lo, hi = spatial_models._INTERVAL
        for p in (lo, hi, lo - 0.1, hi + 0.1):
            with pytest.raises(ValueError):
                log_det(cache10, p)


class TestConcentratedLikelihoods:
    def test_error_likelihood_at_zero_equals_plain_fit(self, w10):
        X, y = make_error_data(w10, 0.0, seed=70)
        res = fit(X, y)
        ll0 = error_concentrated_loglik(X, y, w10, 0.0)
        assert ll0 == pytest.approx(res.log_likelihood, abs=1e-9)

    def test_lag_likelihood_at_zero_equals_plain_fit(self, w10):
        X, y = make_lag_data(w10, 0.0, seed=71)
        res = fit(X, y)
        ll0 = lag_concentrated_loglik(X, y, w10, 0.0)
        assert ll0 == pytest.approx(res.log_likelihood, abs=1e-9)

    def test_error_profile_peaks_near_truth(self, w10):
        X, y = make_error_data(w10, 0.5, seed=72)
        grid = np.linspace(-0.5, 0.9, 57)
        lls = [error_concentrated_loglik(X, y, w10, g) for g in grid]
        assert abs(grid[int(np.argmax(lls))] - 0.5) < 0.2


class TestErrorFit:
    def test_recovers_planted_parameters(self, w10):
        X, y = make_error_data(w10, 0.5, seed=73)
        res = fit_error_ml(X, y, w10)
        assert res.kind == "error"
        assert abs(res.param - 0.5) < 0.25
        # the intercept is noisy under planted error dependence; slopes are not
        assert abs(res.beta[0] - 1.0) < 1.0
        assert np.allclose(res.beta[1:], [2.0, -1.0], atol=0.35)

    def test_likelihood_beats_every_grid_point(self, w10):
        X, y = make_error_data(w10, 0.4, seed=74)
        res = fit_error_ml(X, y, w10)
        for g in np.linspace(-0.8, 0.95, 36):
            assert res.log_likelihood >= error_concentrated_loglik(X, y, w10, g) - 1e-9

    def test_aic_definition(self, w10):
        X, y = make_error_data(w10, 0.3, seed=75)
        res = fit_error_ml(X, y, w10)
        assert res.aic == pytest.approx(
            -2 * res.log_likelihood + 2 * (X.q + 1), rel=1e-12
        )

    def test_pseudo_r2_is_squared_correlation(self, w10):
        X, y = make_error_data(w10, 0.3, seed=76)
        res = fit_error_ml(X, y, w10)
        yhat = X.values @ res.beta
        assert res.pseudo_r2 == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-10)

    def test_standard_errors_present_and_positive(self, w10):
        X, y = make_error_data(w10, 0.5, seed=77)
        res = fit_error_ml(X, y, w10)
        assert res.se_available
        assert res.param_se > 0
        assert np.all(res.beta_se > 0)
        assert 0 <= res.param_p <= 1

    def test_residual_vector_is_unfiltered(self, w10):
        X, y = make_error_data(w10, 0.4, seed=78)
        res = fit_error_ml(X, y, w10)
        assert np.allclose(res.u, y - X.values @ res.beta)

    def test_unconverged_optimizer_is_an_error(self, w10, monkeypatch):
        X, y = make_error_data(w10, 0.5, seed=73)
        seen = []

        def nan_log_det(c, p):
            seen.append(p)
            return math.nan

        monkeypatch.setattr(spatial_models, "log_det", nan_log_det)
        with pytest.raises(ValueError, match="log-likelihood is NaN") as exc:
            fit_error_ml(X, y, w10)
        # refused at the first NaN, which the message names
        first = float(re.search(r"NaN at p=(\S+)$", str(exc.value)).group(1))
        assert len(seen) == 1
        assert first == float(seen[0])

    def test_search_into_a_nan_region_is_refused(self):
        # Brent alone converges to the edge of the NaN region, 0.19999999
        seen = []

        def profile(p):
            seen.append(float(p))
            return math.nan if p > 0.2 else -((p - 0.5) ** 2)

        with pytest.raises(ValueError, match="NaN") as exc:
            spatial_models._optimize_profile(profile)
        first = float(re.search(r"NaN at p=(\S+)$", str(exc.value)).group(1))
        assert first == next(p for p in seen if p > 0.2)

    def test_estimate_beyond_minus_one_is_refused_as_pinned(self, w10):
        # planted -1.5 is feasible for queen links (1/omega_min is about
        # -1.97), so the profile rises toward -1, the end of the interval
        X, y = make_error_data(w10, -1.5, seed=73)
        grid = [error_concentrated_loglik(X, y, w10, g)
                for g in (-0.999, -0.99, -0.9)]
        assert grid[0] > grid[1] > grid[2]
        with pytest.raises(ValueError, match=r"pinned at the interval boundary \(-1\.0, 1\.0\)"):
            fit_error_ml(X, y, w10)

    def test_evaluation_limit_is_an_error(self, w10, monkeypatch):
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
            fit_error_ml(X, y, w10)
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

    def test_profile_on_lattice(self, w10):
        X, y = make_error_data(w10, 0.5, seed=73)
        profile = lambda p: -error_concentrated_loglik(X, y, w10, p)
        lo, hi = spatial_models._INTERVAL
        self.check(profile, lo + 1e-10 * (hi - lo), hi - 1e-10 * (hi - lo))

    def test_evaluation_limit(self):
        assert self.check(quadratic(1.0, 0.3, 0.0), -1.0, 1.0, maxfun=5) == 1

    def test_nan(self):
        assert self.check(lambda x: math.nan, -1.0, 1.0) == 2
        # as in scipy, only a NaN at the last or the best point counts
        assert self.check(lambda x: math.nan if x > 0.2 else (x - 0.5) ** 2, -1.0, 1.0) == 0


class TestLagFit:
    def test_recovers_planted_parameters(self, w10):
        X, y = make_lag_data(w10, 0.488, seed=80)
        res = fit_lag_ml(X, y, w10)
        assert res.kind == "lag"
        assert abs(res.param - 0.488) < 0.25
        assert np.allclose(res.beta[1:], [2.0, -1.0], atol=0.35)

    def test_likelihood_beats_every_grid_point(self, w10):
        X, y = make_lag_data(w10, 0.4, seed=81)
        res = fit_lag_ml(X, y, w10)
        for g in np.linspace(-0.8, 0.95, 36):
            assert res.log_likelihood >= lag_concentrated_loglik(X, y, w10, g) - 1e-9

    def test_fitted_values_solve_the_filter(self, w10):
        X, y = make_lag_data(w10, 0.3, seed=82)
        res = fit_lag_ml(X, y, w10)
        # yhat = (I - rho W)^-1 X beta, so corr(y, yhat)^2 is the fit score
        a = np.eye(w10.n) - res.param * row_standardized_dense(w10)
        yhat = np.linalg.solve(a, X.values @ res.beta)
        assert res.pseudo_r2 == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-8)

    def test_residuals_subtract_both_parts(self, w10):
        X, y = make_lag_data(w10, 0.3, seed=83)
        res = fit_lag_ml(X, y, w10)
        wy = row_standardized_dense(w10) @ y
        assert np.allclose(res.u, y - res.param * wy - X.values @ res.beta)


def exact_curvature(cache, p):
    """d^2/dp^2 ln det(I - pW) = -sum w^2/(1 - pw)^2 over the dense spectrum."""
    omega = np.linalg.eigvalsh(cache.sym.toarray())
    return float(-np.sum(omega**2 / (1.0 - p * omega) ** 2))


def observed_hessian(kind, xv, y, wd, beta, p, s2, curvature):
    """Hessian of the full log-likelihood in (beta, p, sigma^2), built block
    by block with the dense weights wd: the innovation r, its Jacobian J in
    (beta, p) and, for the error model, r' d^2r/(dbeta dp) = (WX)'r."""
    n, q = xv.shape
    if kind == "lag":
        r = y - p * (wd @ y) - xv @ beta
        jac = -np.column_stack([xv, wd @ y])
        cross = np.zeros(q)
    else:
        u = y - xv @ beta
        r = u - p * (wd @ u)
        jac = -np.column_stack([xv - p * (wd @ xv), wd @ u])
        cross = (wd @ xv).T @ r
    h = np.empty((q + 2, q + 2))
    h[: q + 1, : q + 1] = -(jac.T @ jac) / s2
    h[:q, q] -= cross / s2
    h[q, :q] -= cross / s2
    h[q, q] += curvature
    h[: q + 1, q + 1] = h[q + 1, : q + 1] = jac.T @ r / s2**2
    h[q + 1, q + 1] = n / (2.0 * s2**2) - (r @ r) / s2**3
    return h


def oracle_se(kind, X, y, w, cache, res):
    h = observed_hessian(
        kind, X.values, y, row_standardized_dense(w), res.beta, res.param, res.sigma2,
        exact_curvature(cache, res.param),
    )
    se = np.sqrt(np.diag(np.linalg.inv(-h)))
    return se[: X.q], se[X.q]


FITS = {"error": (make_error_data, fit_error_ml), "lag": (make_lag_data, fit_lag_ml)}


class TestStandardErrors:
    """Standard errors against the exact observed information matrix."""

    @pytest.mark.parametrize("kind", ["error", "lag"])
    @pytest.mark.parametrize("side, seed", [(10, 90), (30, 91)])
    def test_match_dense_oracle(self, kind, side, seed):
        w = queen_contiguity(grid_units(side, side))
        cache = spectral_cache(w)
        make, fit_fn = FITS[kind]
        X, y = make(w, 0.5, seed=seed)
        res = fit_fn(X, y, w)
        assert res.se_available
        beta_se, param_se = oracle_se(kind, X, y, w, cache, res)
        np.testing.assert_allclose(res.beta_se, beta_se, rtol=1e-7, atol=0)
        assert res.param_se == pytest.approx(param_se, rel=1e-7)

    @pytest.mark.parametrize("side", [10, 30])
    def test_curvature_near_interval_ends(self, side):
        # 2e-6 * span is just inside the closest estimate the search accepts.
        # 1 = 1/omega_max is singular for every W, and -1 = 1/omega_min for
        # the bipartite rook lattice; the steps shrink toward either end.
        # For queen links -1 is not singular and rounding over the shrunken
        # steps grows: 1.5e-6 relative at -1 + 1e-3, so -1 + 1e-2 is checked.
        # The slope feeds the Newton step; the third derivative only carries
        # the curvature over that step, about 1e-8, so 1e-2 is ample for it.
        lo, hi = -1.0, 1.0
        gap = 2e-6 * (hi - lo)
        for build, points in (
            (queen_contiguity, (lo + 1e-2, hi - 1e-3, hi - gap)),
            (rook_contiguity, (lo + gap, lo + 1e-3, hi - 1e-3, hi - gap)),
        ):
            w = build(grid_units(side, side))
            cache = spectral_cache(w)
            assert spatial_models._INTERVAL == (lo, hi)
            omega = np.linalg.eigvalsh(cache.sym.toarray())
            for p in points:
                slope, curvature, third = spatial_models._log_det_derivatives(cache, p)
                assert curvature == pytest.approx(exact_curvature(cache, p), rel=1e-6)
                ratio = omega / (1.0 - p * omega)
                assert slope == pytest.approx(-np.sum(ratio), rel=1e-6)
                assert third == pytest.approx(-2.0 * np.sum(ratio**3), rel=1e-2)

    @pytest.mark.parametrize("kind", ["error", "lag"])
    def test_unavailable_when_not_negative_definite(self, w10, kind, monkeypatch):
        monkeypatch.setattr(spatial_models, "_log_det_derivatives", lambda c, p: (0.0, 1e12, 0.0))
        make, fit_fn = FITS[kind]
        X, y = make(w10, 0.5, seed=93)
        res = fit_fn(X, y, w10)
        assert not res.se_available
        assert math.isnan(res.param_se) and math.isnan(res.param_p)
        assert np.isnan(res.beta_se).all() and np.isnan(res.beta_p).all()

    @pytest.mark.parametrize("kind", ["error", "lag"])
    def test_closed_form_matches_high_precision_differences(self, kind):
        # n = 25: central differences of the full log-likelihood at 40 digits
        # check the block formula itself, independently of its derivation
        w = queen_contiguity(grid_units(5, 5))
        cache = spectral_cache(w)
        make, fit_fn = FITS[kind]
        X, y = make(w, 0.5, seed=92)
        res = fit_fn(X, y, w)
        n, q = X.n, X.q
        wd = row_standardized_dense(w)
        closed = observed_hessian(
            kind, X.values, y, wd, res.beta, res.param, res.sigma2,
            exact_curvature(cache, res.param),
        )

        with mpmath.workdps(40):
            wm = mpmath.matrix(wd.tolist())
            xm = mpmath.matrix(X.values.tolist())
            ym = mpmath.matrix(y.tolist())
            eye = mpmath.eye(n)
            log_dets = {}

            def full_ll(theta):
                b = mpmath.matrix(theta[:q])
                p, s2 = theta[q], theta[q + 1]
                a = eye - p * wm
                if p not in log_dets:
                    log_dets[p] = mpmath.log(mpmath.det(a))
                r = a * ym - xm * b if kind == "lag" else a * (ym - xm * b)
                rr = sum(v * v for v in r)
                return (
                    -mpmath.mpf(n) / 2 * mpmath.log(2 * mpmath.pi * s2)
                    + log_dets[p] - rr / (2 * s2)
                )

            theta0 = [mpmath.mpf(float(v)) for v in (*res.beta, res.param, res.sigma2)]
            step = mpmath.mpf("1e-12")

            def at(*moves):
                theta = list(theta0)
                for i, s in moves:
                    theta[i] += s * step
                return full_ll(theta)

            k = q + 2
            f0 = full_ll(theta0)
            numeric = np.empty((k, k))
            for i in range(k):
                numeric[i, i] = float((at((i, 1)) - 2 * f0 + at((i, -1))) / step**2)
                for j in range(i + 1, k):
                    val = (
                        at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                        - at((i, -1), (j, 1)) + at((i, -1), (j, -1))
                    ) / (4 * step**2)
                    numeric[i, j] = numeric[j, i] = float(val)
        np.testing.assert_allclose(closed, numeric, rtol=1e-9, atol=1e-9 * abs(numeric).max())
        beta_se, param_se = oracle_se(kind, X, y, w, cache, res)
        np.testing.assert_allclose(res.beta_se, beta_se, rtol=1e-7, atol=0)
        assert res.param_se == pytest.approx(param_se, rel=1e-7)


def exact_score(kind, X, y, w, cache):
    """The concentrated score s(p) = r'W(y - Xb)/sigma^2 + L'(p) (error) or
    r'Wy/sigma^2 + L'(p) (lag), with b and sigma^2 at p from dense least
    squares and L' = -sum w/(1 - pw) over the dense spectrum."""
    omega = np.linalg.eigvalsh(cache.sym.toarray())
    wd = row_standardized_dense(w)
    xv, wy, wx = X.values, wd @ y, wd @ X.values

    def score(p):
        if kind == "error":
            b = np.linalg.lstsq(xv - p * wx, y - p * wy, rcond=None)[0]
            u = y - xv @ b
            r = u - p * (wd @ u)
            tail = wd @ u
        else:
            b = np.linalg.lstsq(xv, y - p * wy, rcond=None)[0]
            r = y - p * wy - xv @ b
            tail = wy
        return (r @ tail) / (r @ r / y.size) - np.sum(omega / (1.0 - p * omega))

    return score


def permuted(w, perm):
    """The same weights with unit perm[i] renumbered i."""
    m = w.matrix[perm][:, perm].tocsr()
    m.sort_indices()
    return SpatialWeights(matrix=m)


class TestScoreRoot:
    """The estimate sits at the root of the concentrated score, not at
    Brent's bracket, which ends about sqrt(eps) from it."""

    @pytest.mark.parametrize("kind", ["error", "lag"])
    @pytest.mark.parametrize(
        "side, planted, seed", [(10, 0.5, 110), (20, 0.2, 111), (30, 0.5, 112)]
    )
    def test_matches_dense_score_root(self, kind, side, planted, seed):
        w = queen_contiguity(grid_units(side, side))
        cache = spectral_cache(w)
        make, fit_fn = FITS[kind]
        X, y = make(w, planted, seed=seed)
        res = fit_fn(X, y, w)
        score = exact_score(kind, X, y, w, cache)
        root = scipy.optimize.brentq(
            score, res.param - 1e-6, res.param + 1e-6, xtol=1e-15, rtol=1e-15
        )
        assert abs(res.param - root) < 1e-11

    @pytest.mark.parametrize("kind", ["error", "lag"])
    def test_unit_order_does_not_move_the_estimate(self, kind):
        w = queen_contiguity(grid_units(30, 30))
        make, fit_fn = FITS[kind]
        X, y = make(w, 0.5, seed=113)
        res = fit_fn(X, y, w)
        rng = np.random.default_rng(114)
        for _ in range(3):
            perm = rng.permutation(w.n)
            Xp = design_matrix([(name, X.values[perm, j]) for j, name in enumerate(X.names) if j])
            wp = permuted(w, perm)
            moved = fit_fn(Xp, y[perm], wp)
            assert abs(moved.param - res.param) < 1e-11
            np.testing.assert_allclose(moved.beta, res.beta, rtol=1e-9, atol=1e-12)
            assert moved.sigma2 == pytest.approx(res.sigma2, rel=1e-11)
            assert moved.log_likelihood == pytest.approx(res.log_likelihood, rel=1e-12)


    @pytest.mark.parametrize("kind", ["error", "lag"])
    def test_refused_step_leaves_brents_estimate(self, w10, kind, monkeypatch):
        # a score too large by 20 sends the step about 0.1 past the peak,
        # where the profile has fallen far beyond rounding
        brent = []
        optimize, derivatives = spatial_models._optimize_profile, spatial_models._log_det_derivatives

        def recording(fun):
            brent.append(optimize(fun))
            return brent[-1]

        def steep(cache, p):
            slope, curvature, third = derivatives(cache, p)
            return slope + 20.0, curvature, third

        monkeypatch.setattr(spatial_models, "_optimize_profile", recording)
        monkeypatch.setattr(spatial_models, "_log_det_derivatives", steep)
        make, fit_fn = FITS[kind]
        X, y = make(w10, 0.5, seed=122)
        res = fit_fn(X, y, w10)
        assert res.param == brent[0]
        assert res.se_available
        profile = error_concentrated_loglik if kind == "error" else lag_concentrated_loglik
        assert res.log_likelihood == pytest.approx(profile(X, y, w10, res.param), rel=1e-12)
        # the lag fit's fitted values solve the filter at Brent's point, not
        # with the LU factorised at the refused step
        a = np.eye(w10.n) - res.param * row_standardized_dense(w10)
        yhat = np.linalg.solve(a, X.values @ res.beta) if kind == "lag" else X.values @ res.beta
        assert res.pseudo_r2 == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-10)


class TestNoEigensolve:
    def test_fits_run_without_arpack_or_a_separate_solve(self, w10, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not expected to run")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", refuse)
        X, y = make_error_data(w10, 0.5, seed=115)
        assert fit_error_ml(X, y, w10).kind == "error"
        X, y = make_lag_data(w10, 0.5, seed=116)
        assert fit_lag_ml(X, y, w10).kind == "lag"

    def test_lag_fit_factorises_the_estimate_at_most_once_more(self, w10, built_caches, monkeypatch):
        inner = spatial_models._factorize
        calls = []

        def recording(c, p):
            calls.append(p)
            return inner(c, p)

        monkeypatch.setattr(spatial_models, "_factorize", recording)
        for seed in range(117, 121):
            X, y = make_lag_data(w10, 0.5, seed=seed)
            calls.clear()
            res = fit_lag_ml(X, y, w10)
            cache = built_caches[-1]
            counts = {p: calls.count(p) for p in calls}
            # Brent's and the curvature's points once each; the estimate once
            # more at most, when the Newton step left it at Brent's point
            assert counts[res.param] <= 2
            assert all(v == 1 for p, v in counts.items() if p != res.param)
            assert len(calls) <= len(cache.log_dets) + 1


@pytest.mark.parametrize("fit_fn", [fit_error_ml, fit_lag_ml])
def test_one_design_is_factorised_once(w10, monkeypatch, fit_fn):
    """The least-squares fit, its heteroskedasticity test, the score tests
    and the spatial fit of one design share that design's one SVD."""
    X, y = make_error_data(w10, 0.5, seed=85)
    inner = ols._svd
    calls = []

    def counting(a):
        if a is X.values:
            calls.append(a)
        return inner(a)

    monkeypatch.setattr(ols, "_svd", counting)
    res = fit(X, y)
    koenker_bassett(X, res.residuals)
    lm_tests(X, y, res, w10)
    fit_fn(X, y, w10)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("fit_fn", [fit_error_ml, fit_lag_ml])
def test_intercept_only_pseudo_r2_is_zero(fit_fn, seed):
    # the fitted values are constant, Xb for the error model and
    # (I - rho W)^-1 1 b = 1 b / (1 - rho) for the lag model, so their
    # correlation with y is rounding noise or NaN
    w = queen_contiguity(grid_units(12, 12))
    rng = np.random.default_rng(seed)
    y = autoregressive_solver(w, 0.6)(rng.normal(size=w.n))
    X = design_matrix([("x", rng.normal(size=w.n))]).drop("x")
    assert fit_fn(X, y, w).pseudo_r2 == 0.0


@pytest.mark.parametrize("fit_fn", [fit_error_ml, fit_lag_ml])
def test_rank_deficient_design_names_the_dependency(w10, fit_fn):
    X, y = make_error_data(w10, 0.3, seed=84)
    x1 = X.values[:, 1]
    X = design_matrix([("x1", x1), ("x2", X.values[:, 2]), ("x3", 0.5 * x1)])
    with pytest.raises(ValueError, match=r"rank 3 of 4.*\['x1', 'x3'\]"):
        fit_fn(X, y, w10)


class TestCompare:
    def test_rows_and_preference(self, w10):
        X, y = make_error_data(w10, 0.6, seed=84)
        ols_res = fit(X, y)
        sp_res = fit_error_ml(X, y, w10)
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

    def test_mismatched_sizes_rejected(self, w10):
        X, y = make_error_data(w10, 0.3, seed=85)
        sp_res = fit_error_ml(X, y, w10)
        Xs = design_matrix([("x", np.arange(10.0))])
        small = fit(Xs, np.arange(10.0) * 2 + np.random.default_rng(0).normal(size=10))
        with pytest.raises(ValueError):
            compare(small, sp_res)
