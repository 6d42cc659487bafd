"""Maximum-likelihood spatial regression.

Two models over row-standardized contiguity weights W:

* spatial error: y = Xb + u, u = lam*W*u + eps
* spatial lag:   y = rho*W*y + Xb + eps

Both are fit by concentrating the likelihood down to the single spatial
parameter, searched over the interval where the Jacobian determinant is
positive.  The log-determinant term is evaluated exactly from a sparse LU
factorization of I - pS, where S is the symmetric degree-normalized
adjacency that shares W's spectrum; no dense n x n matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .ols import DesignMatrix, OlsFit, _lstsq
from .stats import _norm_sf
from .weights import SpatialWeights

__all__ = [
    "SpectralCache",
    "spectral_cache",
    "log_det",
    "error_concentrated_loglik",
    "lag_concentrated_loglik",
    "SpatialFit",
    "fit_error_ml",
    "fit_lag_ml",
    "ModelComparison",
    "compare",
]


@dataclass(eq=False)
class SpectralCache:
    """The sparse symmetric normalization S = D^-1/2 A D^-1/2 of the
    adjacency behind W, the open interval of spatial parameter values with a
    positive Jacobian determinant, and the log-determinants found so far,
    keyed by parameter value."""

    sym: sp.csc_matrix
    interval: tuple[float, float]
    log_dets: dict[float, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.sym.shape[0]


def spectral_cache(weights: SpatialWeights) -> SpectralCache:
    """Prepare the exact log-determinant of I - pW for these weights.

    Row-standardized W = D^-1 A is similar to the symmetric S, so both have
    the same real spectrum and det(I - pW) = det(I - pS).  W is
    row-stochastic, so its largest eigenvalue is exactly 1; the smallest
    comes from sparse Lanczos iteration (ARPACK) started from a fixed
    vector, so that repeated runs agree bit for bit.
    """
    if weights.mode != "row-standardized":
        raise ValueError("spectral cache requires row-standardized weights")
    if weights.include_self:
        raise ValueError("spectral cache requires weights without self-links")
    adj = weights.adjacency
    n = adj.n
    deg = adj.degree()
    if (deg == 0).any():
        isolated = [int(i) for i in np.nonzero(deg == 0)[0]]
        raise ValueError(
            f"isolated units {isolated} have zero degree; the normalized "
            "adjacency is undefined"
        )
    d_isqrt = sp.diags(1.0 / np.sqrt(deg.astype(float)))
    sym = (d_isqrt @ adj.matrix @ d_isqrt).tocsc()
    v0 = np.random.default_rng(0).standard_normal(n)
    omega_min = float(
        scipy.sparse.linalg.eigsh(
            sym, k=1, which="SA", tol=0, v0=v0, return_eigenvectors=False
        )[0]
    )
    if not omega_min < 0:
        raise ValueError("adjacency spectrum does not straddle 0; no valid interval")
    return SpectralCache(sym=sym, interval=(1.0 / omega_min, 1.0))


def log_det(cache: SpectralCache, p: float) -> float:
    """ln det(I - p W), exactly, as the sum of ln(diag U) over a sparse LU
    of I - pS (Pace & Barry 1997), memoised by p in the cache.

    Defined only strictly inside the cache interval, where I - pS is
    symmetric positive definite and every pivot is positive.
    """
    lo, hi = cache.interval
    if not (lo < p < hi):
        raise ValueError(
            f"spatial parameter {p} outside the open interval ({lo}, {hi})"
        )
    p = float(p)
    if p not in cache.log_dets:
        lu = scipy.sparse.linalg.splu(
            sp.identity(cache.n, format="csc") - p * cache.sym,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        pivots = lu.U.diagonal()
        if not (pivots > 0).all():
            raise ValueError(
                f"sparse LU of I - pS at p={p!r} has a non-positive pivot; "
                f"I - pS is not positive definite inside ({lo}, {hi})"
            )
        cache.log_dets[p] = float(np.sum(np.log(pivots)))
    return cache.log_dets[p]


def _prepare(X, y, weights, cache):
    """Check the inputs and return y, Wy, the least-squares coefficients of
    y and Wy on X (one solve, which also refuses a rank-deficient design),
    the cache and W."""
    if weights.mode != "row-standardized":
        raise ValueError("spatial models require row-standardized weights")
    if weights.include_self:
        raise ValueError("spatial models require weights without self-links")
    y = np.asarray(y, dtype=float)
    if y.shape != (X.n,):
        raise ValueError(f"y must have shape ({X.n},), got {y.shape}")
    if weights.n != X.n:
        raise ValueError(f"weights are for {weights.n} units, design has {X.n}")
    if np.isnan(y).any():
        raise ValueError("y contains missing values")
    if X.n <= X.q + 1:
        raise ValueError(
            f"need more observations than parameters (n={X.n}, q={X.q} + spatial)"
        )
    w = weights.matrix
    wy = w @ y
    coef, _ = _lstsq(X.values, np.column_stack([y, wy]), X.names)
    if cache is None:
        cache = spectral_cache(weights)
    return y, wy, coef, cache, w


_LL_CONST = math.log(2.0 * math.pi) + 1.0


def _profile_ll(n: int, sig2: float, cache: SpectralCache, p: float) -> float:
    return -0.5 * n * _LL_CONST - 0.5 * n * math.log(sig2) + log_det(cache, p)


def error_concentrated_loglik(
    X: DesignMatrix,
    y: np.ndarray,
    weights: SpatialWeights,
    lam: float,
    cache: SpectralCache | None = None,
) -> float:
    """Profile log-likelihood of the error model at lam, with b and sigma^2
    concentrated out by filtered least squares."""
    y, wy, _, cache, w = _prepare(X, y, weights, cache)
    return _error_profile(X.values, y, w @ X.values, wy, cache, lam)


def _error_profile(xv, y, wx, wy, cache, lam) -> float:
    xf = xv - lam * wx
    yf = y - lam * wy
    resid = yf - xf @ _lstsq(xf, yf)[0]
    return _profile_ll(y.size, float(resid @ resid) / y.size, cache, lam)


def lag_concentrated_loglik(
    X: DesignMatrix,
    y: np.ndarray,
    weights: SpatialWeights,
    rho: float,
    cache: SpectralCache | None = None,
) -> float:
    """Profile log-likelihood of the lag model at rho, concentrated through
    the two auxiliary regressions of y and Wy on X."""
    y, wy, coef, cache, _ = _prepare(X, y, weights, cache)
    e0, e1 = (np.column_stack([y, wy]) - X.values @ coef).T
    return _lag_profile(e0, e1, cache, rho)


def _lag_profile(e0, e1, cache, rho) -> float:
    er = e0 - rho * e1
    return _profile_ll(e0.size, float(er @ er) / e0.size, cache, rho)


@dataclass(eq=False)
class SpatialFit:
    """A fitted spatial model.

    ``kind`` is "error" or "lag".  ``u`` holds the spatially correlated
    disturbance y - Xb for the error model and the innovation
    y - rho*W*y - Xb for the lag model.  Standard errors come from the
    numerical Hessian of the full likelihood; when that Hessian is not
    negative definite ``se_available`` is False and the se/p arrays are
    NaN.
    """

    kind: str
    names: list[str]
    param: float
    param_se: float
    param_p: float
    beta: np.ndarray
    beta_se: np.ndarray
    beta_p: np.ndarray
    sigma2: float
    log_likelihood: float
    aic: float
    pseudo_r2: float
    u: np.ndarray
    n: int
    q: int
    se_available: bool


# evaluations of the profile before the spatial parameter search gives up
_MAX_EVALS = 500


def _bounded_minimize(func, x1, x2, xatol, maxfun):
    """Minimise ``func`` over [x1, x2] by Brent's (1973) bounded method.

    Ported from ``_minimize_scalar_bounded`` in scipy/optimize/_optimize.py
    (scipy 1.17; BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
    2003- SciPy Developers) with the same arithmetic in the same order, so
    its iterates and evaluation count equal those of
    ``minimize_scalar(method="bounded")``; the printing and the checks of
    the bounds are left out.  Returns (x, nfev, status, last): status is 0
    on convergence, 1 when ``maxfun`` evaluations were reached and 2 when a
    NaN was seen, and ``last`` is the final point evaluated.
    """
    flag = 0
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # check for a parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (
                p < q * (b - xf)
            ):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:  # golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return xf, num, flag, x


def _optimize_profile(fun, interval: tuple[float, float]) -> float:
    lo, hi = interval
    span = hi - lo
    margin = 1e-10 * span
    param, _, status, last = _bounded_minimize(
        lambda p: -fun(p), lo + margin, hi - margin, 1e-8, _MAX_EVALS
    )
    if status == 2:
        raise ValueError(
            "spatial parameter search did not converge: profile "
            f"log-likelihood is NaN (last p={float(last)})"
        )
    if status == 1:
        raise ValueError(
            "spatial parameter search did not converge: reached "
            f"{_MAX_EVALS} evaluations"
        )
    param = float(param)
    if min(param - lo, hi - param) < 1e-6 * span:
        raise ValueError(
            f"spatial parameter estimate {param} is pinned at the interval "
            f"boundary ({lo}, {hi}); the model is not identified here"
        )
    return param


def _numerical_hessian(f, theta: np.ndarray, steps: np.ndarray) -> np.ndarray:
    k = theta.size
    h = np.zeros((k, k))
    f0 = f(theta)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        h[i, i] = (f(theta + ei) - 2.0 * f0 + f(theta - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            val = (
                f(theta + ei + ej)
                - f(theta + ei - ej)
                - f(theta - ei + ej)
                + f(theta - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            h[i, j] = val
            h[j, i] = val
    return h


def _hessian_se(
    full_ll, beta: np.ndarray, param: float, sigma2: float, interval
) -> tuple[np.ndarray, float, bool]:
    theta = np.concatenate([beta, [param, sigma2]])
    q = beta.size
    steps = np.empty(q + 2)
    steps[:q] = 1e-5 * np.maximum(np.abs(beta), 1.0)
    steps[q] = 1e-5 * max(abs(param), 1.0)
    steps[q + 1] = 1e-5 * sigma2
    # the parameter step must not cross the interval edge where the
    # log-determinant blows up
    lo, hi = interval
    steps[q] = min(steps[q], 0.5 * (hi - param), 0.5 * (param - lo))
    hess = _numerical_hessian(full_ll, theta, steps)
    neg = -hess
    try:
        eigs = np.linalg.eigvalsh(neg)
        if eigs.min() <= 0:
            raise np.linalg.LinAlgError
        cov = np.linalg.inv(neg)
        diag = np.diag(cov)
        if (diag[: q + 1] <= 0).any():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        return np.full(q, np.nan), math.nan, False
    se = np.sqrt(diag)
    return se[:q], float(se[q]), True


def _wald_p(est: np.ndarray | float, se: np.ndarray | float):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(np.asarray(est, dtype=float) / np.asarray(se, dtype=float))
    return 2.0 * _norm_sf(z)


def _spatial_fit(
    kind, X, y, cache, param, beta, sigma2, resid, fitted, u
) -> SpatialFit:
    """Likelihood, Hessian standard errors and fit scores shared by both
    models; ``resid(b, p)`` is the innovation eps at coefficients b and
    spatial parameter p."""
    n, q = X.n, X.q
    ll = _profile_ll(n, sigma2, cache, param)

    def full_ll(theta):
        s2 = theta[q + 1]
        r = resid(theta[:q], theta[q])
        return (
            -0.5 * n * math.log(2.0 * math.pi * s2)
            + log_det(cache, theta[q])
            - 0.5 * float(r @ r) / s2
        )

    beta_se, param_se, ok = _hessian_se(full_ll, beta, param, sigma2, cache.interval)
    return SpatialFit(
        kind=kind,
        names=list(X.names),
        param=param,
        param_se=param_se,
        param_p=float(_wald_p(param, param_se)) if ok else math.nan,
        beta=beta,
        beta_se=beta_se,
        beta_p=_wald_p(beta, beta_se) if ok else np.full(q, np.nan),
        sigma2=sigma2,
        log_likelihood=ll,
        aic=-2.0 * ll + 2.0 * (q + 1),
        pseudo_r2=float(np.corrcoef(y, fitted)[0, 1]) ** 2,
        u=u,
        n=n,
        q=q,
        se_available=ok,
    )


def fit_error_ml(
    X: DesignMatrix,
    y: np.ndarray,
    weights: SpatialWeights,
    cache: SpectralCache | None = None,
) -> SpatialFit:
    """Fit the spatial error model by concentrated maximum likelihood."""
    y, wy, _, cache, w = _prepare(X, y, weights, cache)
    xv = X.values
    wx = w @ xv

    lam = _optimize_profile(
        lambda p: _error_profile(xv, y, wx, wy, cache, p), cache.interval
    )
    xf = xv - lam * wx
    yf = y - lam * wy
    beta = _lstsq(xf, yf)[0]
    resid_f = yf - xf @ beta
    sigma2 = float(resid_f @ resid_f) / X.n

    def resid(b, p):
        return (y - p * wy) - (xv - p * wx) @ b

    fitted = xv @ beta
    return _spatial_fit(
        "error", X, y, cache, lam, beta, sigma2, resid, fitted, y - fitted
    )


def fit_lag_ml(
    X: DesignMatrix,
    y: np.ndarray,
    weights: SpatialWeights,
    cache: SpectralCache | None = None,
) -> SpatialFit:
    """Fit the spatial lag model by concentrated maximum likelihood."""
    y, wy, coef, cache, w = _prepare(X, y, weights, cache)
    xv = X.values
    b0, b1 = coef.T
    e0, e1 = (np.column_stack([y, wy]) - xv @ coef).T

    rho = _optimize_profile(lambda p: _lag_profile(e0, e1, cache, p), cache.interval)
    beta = b0 - rho * b1
    er = e0 - rho * e1
    sigma2 = float(er @ er) / X.n

    def resid(b, p):
        return y - p * wy - xv @ b

    ident = sp.identity(X.n, format="csc")
    fitted = scipy.sparse.linalg.spsolve(ident - rho * w.tocsc(), xv @ beta)
    return _spatial_fit(
        "lag", X, y, cache, rho, beta, sigma2, resid, fitted, resid(beta, rho)
    )


@dataclass(eq=False)
class ModelComparison:
    """Side-by-side table for a least-squares fit and a spatial fit."""

    rows: list[dict]
    preferred: str
    note: str


def compare(ols_fit: OlsFit, spatial_fit: SpatialFit) -> ModelComparison:
    """Tabulate both fits and name the preferred model by lower AIC.

    Fit shares (adjusted R^2 versus squared correlation of y with fitted
    values) are reported but never compared across models; exact AIC ties
    go to the model with fewer parameters.
    """
    if ols_fit.n != spatial_fit.n:
        raise ValueError(
            f"fits cover different unit counts ({ols_fit.n} vs {spatial_fit.n})"
        )
    spatial_name = f"spatial-{spatial_fit.kind}"
    rows = [
        {
            "model": "ols",
            "fit_statistic": "adj_r2",
            "fit_value": ols_fit.adj_r2,
            "log_likelihood": ols_fit.log_likelihood,
            "aic": ols_fit.aic,
            "n_params": ols_fit.q,
        },
        {
            "model": spatial_name,
            "fit_statistic": "pseudo_r2",
            "fit_value": spatial_fit.pseudo_r2,
            "log_likelihood": spatial_fit.log_likelihood,
            "aic": spatial_fit.aic,
            "n_params": spatial_fit.q + 1,
        },
    ]
    if spatial_fit.aic < ols_fit.aic:
        preferred = spatial_name
    elif ols_fit.aic < spatial_fit.aic:
        preferred = "ols"
    else:
        preferred = "ols" if ols_fit.q <= spatial_fit.q + 1 else spatial_name
    note = (
        "adj_r2 and pseudo_r2 are different quantities and are not compared; "
        "the preferred model is the one with lower AIC, ties going to fewer "
        "parameters"
    )
    return ModelComparison(rows=rows, preferred=preferred, note=note)
