"""Maximum-likelihood spatial regression.

Two models over row-standardized contiguity weights W:

* spatial error: y = Xb + u, u = lam*W*u + eps
* spatial lag:   y = rho*W*y + Xb + eps

Both are fit by concentrating the likelihood down to the single spatial
parameter, searched over (-1, 1): W is row-stochastic, so every eigenvalue
lies in [-1, 1] and the Jacobian determinant is positive there without an
eigensolve.  Brent's search is polished by one Newton step on the
concentrated score, so the estimate sits at the score's root and not at
the search's bracket.  The log-determinant term is evaluated exactly from
a sparse LU factorization of I - pS, where S is the symmetric
degree-normalized adjacency that shares W's spectrum; the lag model's
fitted values come from the same LU at the estimate.  No dense n x n
matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .ols import DesignMatrix, OlsFit
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


# the open interval searched for the spatial parameter, inside which
# I - pS is positive definite (see ``spectral_cache``)
_INTERVAL = (-1.0, 1.0)


@dataclass(eq=False)
class SpectralCache:
    """The sparse symmetric normalization S = D^-1/2 A D^-1/2 of the
    adjacency behind W and the log-determinants found so far, keyed by
    parameter value.  Each fit builds its own."""

    sym: sp.csc_matrix
    log_dets: dict[float, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.sym.shape[0]


def spectral_cache(links: SpatialWeights) -> SpectralCache:
    """Prepare the exact log-determinant of I - pW, where W = D^-1 A is the
    row standardization of the contiguity links A.

    W is similar to the symmetric S = D^-1/2 A D^-1/2, built here from the
    links, so both have the same real spectrum and det(I - pW) =
    det(I - pS).  W is row-stochastic, so every eigenvalue lies in [-1, 1]
    and I - pS is positive definite for p in (-1, 1), the interval searched
    (the restricted range of LeSage & Pace 2009, ch. 4).  No eigenvalue is
    computed.  For bipartite links, such as the rook lattice, -1 is an
    eigenvalue and the interval is the whole feasible range
    (1/omega_min, 1/omega_max); otherwise an estimate in
    (1/omega_min, -1] is refused as pinned at the boundary.
    """
    deg = links.degree()
    if (deg == 0).any():
        isolated = [int(i) for i in np.nonzero(deg == 0)[0]]
        raise ValueError(
            f"isolated units {isolated} have zero degree; the normalized "
            "adjacency is undefined"
        )
    d_isqrt = sp.diags(1.0 / np.sqrt(deg.astype(float)))
    sym = (d_isqrt @ links.matrix @ d_isqrt).tocsc()
    return SpectralCache(sym=sym)


def log_det(cache: SpectralCache, p: float) -> float:
    """ln det(I - p W), exactly, as the sum of ln(diag U) over a sparse LU
    of I - pS (Pace & Barry 1997), memoised by p in the cache.

    Defined only strictly inside (-1, 1), where I - pS is symmetric
    positive definite and every pivot is positive.
    """
    lo, hi = _INTERVAL
    if not (lo < p < hi):
        raise ValueError(
            f"spatial parameter {p} outside the open interval ({lo}, {hi})"
        )
    p = float(p)
    if p not in cache.log_dets:
        _factorize(cache, p)
    return cache.log_dets[p]


def _factorize(cache: SpectralCache, p: float):
    """Sparse LU of I - pS, whose pivots give ``log_det`` at p (memoised
    here) and whose solve serves the lag model's fitted values."""
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
            "I - pS is not positive definite there"
        )
    cache.log_dets[p] = float(np.sum(np.log(pivots)))
    return lu


_LL_CONST = math.log(2.0 * math.pi) + 1.0


def _profile_ll(n: int, sig2: float, cache: SpectralCache, p: float) -> float:
    return -0.5 * n * _LL_CONST - 0.5 * n * math.log(sig2) + log_det(cache, p)


def _model(kind: str, X: DesignMatrix, y, links: SpatialWeights):
    """Check the inputs and return y and the model's ``state(p)``.

    ``state(p)`` returns (b, sigma^2, r, jac, cross) at p: the
    coefficients and residual variance concentrated out at p, the
    innovation r, its Jacobian in (b, p) and the vector r' d^2r/(db dp).
    The error model filters y and X by I - pW, which keeps X's rank, and
    solves least squares at each p; the lag model's b and r are linear in p,
    from the least-squares coefficients of y and Wy on X.  That solve, on
    X's factors, is made for both: it refuses a rank-deficient X by name.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (X.n,):
        raise ValueError(f"y must have shape ({X.n},), got {y.shape}")
    if links.n != X.n:
        raise ValueError(f"weights are for {links.n} units, design has {X.n}")
    if np.isnan(y).any():
        raise ValueError("y contains missing values")
    if X.n <= X.q + 1:
        raise ValueError(
            f"need more observations than parameters (n={X.n}, q={X.q} + spatial)"
        )
    xv = X.values
    w = links.row_standardized()
    wy = w @ y
    coef = X.solve(np.column_stack([y, wy]))
    if kind == "error":
        wx = w @ xv

        def state(lam):
            xf = xv - lam * wx
            yf = y - lam * wy
            beta = DesignMatrix(X.names, xf).solve(yf)
            resid_f = yf - xf @ beta
            # eps = (I - lam W)(y - Xb): d eps/db = -(X - lam WX),
            # d eps/dlam = -W(y - Xb)
            jac = -np.column_stack([xf, wy - wx @ beta])
            return beta, float(resid_f @ resid_f) / X.n, resid_f, jac, wx.T @ resid_f

        return y, state
    b0, b1 = coef.T
    e0, e1 = (np.column_stack([y, wy]) - xv @ coef).T
    # eps = y - rho Wy - Xb is linear in (b, rho): no cross terms
    jac = -np.column_stack([xv, wy])

    def state(rho):
        beta = b0 - rho * b1
        er = e0 - rho * e1
        u = y - rho * wy - xv @ beta
        return beta, float(er @ er) / X.n, u, jac, 0.0

    return y, state


def _concentrated_loglik(kind, X, y, links, p) -> float:
    state = _model(kind, X, y, links)[1]
    return _profile_ll(X.n, state(p)[1], spectral_cache(links), p)


def error_concentrated_loglik(
    X: DesignMatrix, y: np.ndarray, links: SpatialWeights, lam: float
) -> float:
    """Profile log-likelihood of the error model at lam, with b and sigma^2
    concentrated out by filtered least squares."""
    return _concentrated_loglik("error", X, y, links, lam)


def lag_concentrated_loglik(
    X: DesignMatrix, y: np.ndarray, links: SpatialWeights, rho: float
) -> float:
    """Profile log-likelihood of the lag model at rho, concentrated through
    the two auxiliary regressions of y and Wy on X."""
    return _concentrated_loglik("lag", X, y, links, rho)


@dataclass(eq=False)
class SpatialFit:
    """A fitted spatial model.

    ``kind`` is "error" or "lag".  ``u`` holds the spatially correlated
    disturbance y - Xb for the error model and the innovation
    y - rho*W*y - Xb for the lag model.  Standard errors come from the
    closed-form Hessian of the full likelihood in (b, p, sigma^2), with
    the log-determinant's curvature from the memoised ``log_det``; when
    that Hessian is not negative definite ``se_available`` is False and
    the se/p arrays are NaN.
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
# Brent's absolute tolerance on p.  The Newton step that follows the search
# squares its error, so the search need not resolve p to sqrt(eps), where
# profile values differ by rounding alone and its steps wander.
_XATOL = 1e-7


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


def _optimize_profile(fun) -> float:
    """Maximise the profile ``fun`` over (-1, 1) by Brent's search.

    A search that meets a NaN profile value is refused at that first p:
    Brent's method notices a NaN only at its best or its last point, and
    would otherwise converge to the edge of a NaN region.
    """
    lo, hi = _INTERVAL
    span = hi - lo
    margin = 1e-10 * span

    def negated(p):
        value = fun(p)
        if math.isnan(value):
            raise ValueError(
                "spatial parameter search did not converge: profile "
                f"log-likelihood is NaN at p={float(p)}"
            )
        return -value

    param, _, status, _ = _bounded_minimize(
        negated, lo + margin, hi - margin, _XATOL, _MAX_EVALS
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


def _log_det_derivatives(cache: SpectralCache, p: float) -> tuple[float, float, float]:
    """The first three derivatives of ln det(I - pW) at p from the memoised
    ``log_det`` at p, p +- h/2 and p +- h, where h = min(1e-3, d/32) and d
    is the distance from p to the nearer end of the interval: Richardson
    extrapolation of central first and second differences with steps h
    and h/2, and the central third difference."""
    lo, hi = _INTERVAL
    h = min(1e-3, min(p - lo, hi - p) / 32.0)
    mid = 2.0 * log_det(cache, p)
    (up1, down1), (up2, down2) = (
        (log_det(cache, p + s), log_det(cache, p - s)) for s in (0.5 * h, h)
    )
    slope = (4.0 * (up1 - down1) / h - (up2 - down2) / (2.0 * h)) / 3.0
    curvature = (
        4.0 * (up1 - mid + down1) / (0.25 * h * h) - (up2 - mid + down2) / (h * h)
    ) / 3.0
    third = (up2 - 2.0 * up1 + 2.0 * down1 - down2) / (0.25 * h**3)
    return slope, curvature, third


def _hessian_se(r, jac, cross, curvature, sigma2) -> tuple[np.ndarray, float, bool]:
    """Standard errors of (b, p) from the closed-form Hessian of the full
    log-likelihood -n/2 ln(2 pi s2) + ln det(I - pW) - r'r/(2 s2) in
    (b, p, s2), given the innovation r, its Jacobian ``jac`` in (b, p), the
    vector r' d^2r/(db dp) and ``curvature``, the second derivative of the
    log-determinant at p."""
    k = jac.shape[1]
    q = k - 1
    s4 = sigma2 * sigma2
    hess = np.empty((k + 1, k + 1))
    hess[:k, :k] = -(jac.T @ jac)
    hess[:q, q] -= cross
    hess[q, :q] -= cross
    hess[:k, :k] /= sigma2
    hess[q, q] += curvature
    hess[:k, k] = hess[k, :k] = (jac.T @ r) / s4
    hess[k, k] = r.size / (2.0 * s4) - float(r @ r) / (sigma2 * s4)
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


def _estimate(cache, n, state):
    """The spatial parameter at the root of its concentrated score, the
    model's state there, the standard errors and, when the Newton step was
    taken, the LU of I - pS at the estimate.

    ``state(p)`` is the model's (b, sigma^2, r, jac, cross) at p, as
    ``_model`` returns it.  Its sigma^2 gives the concentrated
    log-likelihood that Brent's search maximises; with the curvature of the
    log-determinant the rest gives the closed-form Hessian (Anselin 1988,
    ch. 6; LeSage & Pace 2009, ch. 3) and its standard errors.

    Brent's search compares profile values, which are flat to rounding
    within about sqrt(eps) of the peak, so it places p only that closely.
    One Newton step on the concentrated score follows,
    p <- p + s(p)*se_p^2, since the profile's curvature is -1/se_p^2; by
    the envelope theorem s(p) = -r'(dr/dp)/sigma^2 + L'(p), and L' comes
    from the four log-determinants the curvature already factorised.  The
    step is tried only inside the interval and kept only if the profile
    does not fall by more than the rounding of its terms.  b, sigma^2, the
    likelihood and the Hessian are then those at the new p, with the
    curvature carried there by the third derivative from the same four
    points, so that the step costs one LU, at the new p.
    """
    param = _optimize_profile(lambda p: _profile_ll(n, state(p)[1], cache, p))
    current = state(param)
    _, sigma2, r, jac, cross = current
    slope, curvature, third = _log_det_derivatives(cache, param)
    beta_se, param_se, ok = _hessian_se(r, jac, cross, curvature, sigma2)
    lu = None
    if ok:
        step = param + (-float(r @ jac[:, -1]) / sigma2 + slope) * param_se**2
        if _INTERVAL[0] < step < _INTERVAL[1]:
            lu = _factorize(cache, step)
            moved = state(step)
            # this close to the peak the profile moves by a few ulps of its
            # terms either way; a fall of more than 64 means a bad step
            terms = 0.5 * n * (_LL_CONST + abs(math.log(sigma2)))
            slack = 64 * np.finfo(float).eps * (terms + abs(log_det(cache, param)))
            fall = _profile_ll(n, sigma2, cache, param) - _profile_ll(
                n, moved[1], cache, step
            )
            if fall <= slack:
                curvature += third * (step - param)
                beta_se, param_se, ok = _hessian_se(*moved[2:], curvature, moved[1])
                param, current = step, moved
            else:
                lu = None
    return param, current, beta_se, param_se, ok, lu


def _wald_p(est: np.ndarray | float, se: np.ndarray | float):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(np.asarray(est, dtype=float) / np.asarray(se, dtype=float))
    return 2.0 * _norm_sf(z)


def fit_error_ml(X: DesignMatrix, y: np.ndarray, links: SpatialWeights) -> SpatialFit:
    """Fit the spatial error model by concentrated maximum likelihood."""
    return _fit("error", X, y, links)


def fit_lag_ml(X: DesignMatrix, y: np.ndarray, links: SpatialWeights) -> SpatialFit:
    """Fit the spatial lag model by concentrated maximum likelihood."""
    return _fit("lag", X, y, links)


def _fit(kind, X, y, links) -> SpatialFit:
    """The estimate, its Wald p-values and the fit scores of either model."""
    y, state = _model(kind, X, y, links)
    cache = spectral_cache(links)
    param, (beta, sigma2, r, *_), beta_se, param_se, ok, lu = _estimate(cache, X.n, state)
    fitted = X.values @ beta
    if kind == "error":
        u = y - fitted
    else:
        u = r
        if lu is None:
            lu = _factorize(cache, param)
        # (I - rho W)^-1 = D^-1/2 (I - rho S)^-1 D^1/2, since W = D^-1/2 S D^1/2
        d_sqrt = np.sqrt(links.degree().astype(float))
        fitted = lu.solve(d_sqrt * fitted) / d_sqrt
    n, q = X.n, X.q
    ll = _profile_ll(n, sigma2, cache, param)
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
        # the intercept alone fits a constant, whose correlation is undefined
        pseudo_r2=float(np.corrcoef(y, fitted)[0, 1]) ** 2 if q > 1 else 0.0,
        u=u,
        n=n,
        q=q,
        se_available=ok,
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
