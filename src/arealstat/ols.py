"""Least-squares fitting, collinearity screening, model search, and
residual diagnostics, including the spatial-dependence score tests that
drive the choice between staying with least squares and refitting a
spatial model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .stats import _chi2_sf, _t_sf
from .weights import SpatialWeights

__all__ = [
    "DesignMatrix",
    "design_matrix",
    "OlsFit",
    "fit",
    "vif",
    "vif_prune",
    "stepwise_aic",
    "significance_prune",
    "jarque_bera",
    "koenker_bassett",
    "condition_number",
    "DiagnosticsReport",
    "LmSuite",
    "lm_tests",
    "model_decision",
    "INTERCEPT",
]

INTERCEPT = "intercept"


@dataclass(eq=False)
class DesignMatrix:
    """Regression design with an explicit leading intercept column."""

    names: list[str]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @property
    def slope_names(self) -> list[str]:
        return self.names[1:]

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no design column named {name!r}") from None

    def drop(self, name: str) -> "DesignMatrix":
        if name == INTERCEPT:
            raise ValueError("cannot drop the intercept")
        j = self.column_index(name)
        keep = [k for k in range(self.q) if k != j]
        return DesignMatrix(
            names=[self.names[k] for k in keep], values=self.values[:, keep]
        )

    def with_columns(self, slope_names: list[str]) -> "DesignMatrix":
        """Design restricted to the given slopes, in this design's order."""
        wanted = set(slope_names)
        unknown = wanted - set(self.slope_names)
        if unknown:
            raise KeyError(f"unknown design columns {sorted(unknown)}")
        keep = [0] + [
            j for j in range(1, self.q) if self.names[j] in wanted
        ]
        return DesignMatrix(
            names=[self.names[k] for k in keep], values=self.values[:, keep]
        )


def design_matrix(columns: list[tuple[str, np.ndarray]]) -> DesignMatrix:
    """Assemble a design from (name, values) pairs, prepending an intercept."""
    if not columns:
        raise ValueError("design needs at least one column")
    names = [INTERCEPT]
    arrays = []
    n = None
    for name, arr in columns:
        if name == INTERCEPT:
            raise ValueError(f"column name {INTERCEPT!r} is reserved")
        if name in names:
            raise ValueError(f"duplicate design column {name!r}")
        a = np.asarray(arr, dtype=float)
        if a.ndim != 1:
            raise ValueError(f"column {name!r} is not 1-d")
        if n is None:
            n = a.size
        elif a.size != n:
            raise ValueError(
                f"column {name!r} has {a.size} rows, expected {n}"
            )
        if np.isnan(a).any():
            raise ValueError(f"column {name!r} contains missing values")
        infinite = np.flatnonzero(np.isinf(a))
        if infinite.size:
            i = int(infinite[0])
            raise ValueError(
                f"column {name!r} has non-finite value {a[i]} at row {i}"
            )
        names.append(name)
        arrays.append(a)
    values = np.column_stack([np.ones(n)] + arrays)
    return DesignMatrix(names=names, values=values)


@dataclass(eq=False)
class OlsFit:
    """Ordinary least squares fit and its summary quantities."""

    names: list[str]
    beta: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    n: int
    q: int
    sse: float
    sigma2: float
    sigma2_ml: float
    r2: float
    adj_r2: float
    log_likelihood: float
    aic: float

    def coefficient(self, name: str) -> float:
        try:
            return float(self.beta[self.names.index(name)])
        except ValueError:
            raise KeyError(f"no coefficient named {name!r}") from None


# a column whose unit vector keeps more than this norm in the numerical null
# space of the design is named as part of a linear dependency
_NULL_WEIGHT = 1e-8


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Thin SVD u, s, vt of a, its numerical rank, and a mask of the columns
    that carry weight in its null space.

    Singular values up to s_max * max(n, q) * eps count as zero, the rule
    of ``np.linalg.lstsq(rcond=None)``.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    tol = s[0] * max(a.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int((s > tol).sum())
    dependent = np.sqrt((vt[rank:] ** 2).sum(axis=0)) > _NULL_WEIGHT
    return u, s, vt, rank, dependent


def _lstsq(
    a: np.ndarray, b: np.ndarray, names: list[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of b, (n,) or (n, k), on the columns of a, from one
    thin SVD.

    The coefficients are the minimum-norm solution over the singular values
    that ``_svd`` keeps.  Also returns V/s over those singular values, whose
    squared rows sum to diag((a'a)^-1) when a has full rank.  With
    ``names``, a rank-deficient a is refused, naming every column that
    carries weight in the null space.
    """
    u, s, vt, rank, dependent = _svd(a)
    if names is not None and rank < a.shape[1]:
        bad = sorted(names[j] for j in np.flatnonzero(dependent))
        raise ValueError(
            f"design matrix is rank deficient (rank {rank} of {a.shape[1]}); "
            f"linearly dependent columns include {bad}"
        )
    v_s = vt[:rank].T / s[:rank]
    return v_s @ (u[:, :rank].T @ b), v_s


def fit(X: DesignMatrix, y: np.ndarray) -> OlsFit:
    """Fit y on the design by least squares.

    Raises on rank deficiency (naming dependent columns) and on n <= q.
    When the response is constant or the design holds only the intercept,
    r2 and adj_r2 are reported as 0.0.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (X.n,):
        raise ValueError(f"y must have shape ({X.n},), got {y.shape}")
    if np.isnan(y).any():
        raise ValueError("y contains missing values")
    n, q = X.n, X.q
    if n <= q:
        raise ValueError(f"need more observations than parameters (n={n}, q={q})")
    beta, v_s = _lstsq(X.values, y, X.names)
    fitted = X.values @ beta
    e = y - fitted
    sse = float(e @ e)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if tss == 0.0 or q == 1 else 1.0 - sse / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - q)
    sigma2 = sse / (n - q)
    sigma2_ml = sse / n

    se = np.sqrt(sigma2 * (v_s**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    p = 2.0 * _t_sf(np.abs(t), n - q)

    if sigma2_ml > 0:
        log_likelihood = -0.5 * n * (math.log(2 * math.pi) + math.log(sigma2_ml) + 1.0)
    else:
        log_likelihood = math.inf
    aic = -2.0 * log_likelihood + 2.0 * q

    return OlsFit(
        names=list(X.names),
        beta=beta,
        se=se,
        t=t,
        p=p,
        fitted=fitted,
        residuals=e,
        n=n,
        q=q,
        sse=sse,
        sigma2=sigma2,
        sigma2_ml=sigma2_ml,
        r2=r2,
        adj_r2=adj_r2,
        log_likelihood=log_likelihood,
        aic=aic,
    )


def vif(X: DesignMatrix) -> np.ndarray:
    """Variance inflation factor for each slope column.

    VIF = 1/(1 - R^2) of the slope regressed on the intercept and the
    remaining slopes, which is the slope's diagonal entry of the inverse
    correlation matrix of the slopes: the squared row norm of V/s from one
    thin SVD of the centred slopes scaled to unit length.  A slope with
    weight in the null space of that SVD is an exact combination of the
    others; its VIF is infinite, as is any VIF of 1e12 or more.
    """
    if X.q < 3:
        raise ValueError("variance inflation needs at least 2 slope columns")
    slopes = X.values[:, 1:]
    constant = np.flatnonzero(slopes.min(axis=0) == slopes.max(axis=0))
    if constant.size:
        raise ValueError(f"design column {X.slope_names[constant[0]]!r} is constant")
    centred = slopes - slopes.mean(axis=0)
    _, s, vt, rank, dependent = _svd(centred / np.linalg.norm(centred, axis=0))
    out = ((vt[:rank].T / s[:rank]) ** 2).sum(axis=1)
    out[dependent | (out >= 1e12)] = math.inf
    return out


def vif_prune(
    X: DesignMatrix, threshold: float = 10.0
) -> tuple[DesignMatrix, list[tuple[str, float]]]:
    """Iteratively drop the worst slope while any VIF exceeds the threshold.

    Ties go to the earliest column.  Stops once fewer than 2 slopes remain.
    Returns the reduced design and (name, vif-at-removal) in removal order.
    """
    if threshold <= 0:
        raise ValueError("vif threshold must be positive")
    removed: list[tuple[str, float]] = []
    current = X
    while current.q >= 3:
        factors = vif(current)
        worst = int(np.argmax(factors))
        if not (factors[worst] > threshold):
            break
        name = current.slope_names[worst]
        removed.append((name, float(factors[worst])))
        current = current.drop(name)
    return current, removed


def stepwise_aic(
    X: DesignMatrix, y: np.ndarray
) -> tuple[DesignMatrix, OlsFit, list[dict]]:
    """Bidirectional stepwise search minimizing AIC, starting from the full
    design.

    Every step evaluates all single-column drops and all single-column
    re-additions; the best move is taken only on strict AIC improvement,
    with ties broken by the order columns appear in the full design.
    """
    pool = list(X.slope_names)
    active = list(pool)
    current_fit = fit(X.with_columns(active), y)
    trace: list[dict] = [
        {"action": "start", "column": None, "aic": current_fit.aic}
    ]
    while True:
        best_aic, best = current_fit.aic, None
        for name in pool:
            if name in active:
                candidate = [c for c in active if c != name]
                action = "drop"
            else:
                candidate = active + [name]
                action = "add"
            cand_fit = fit(X.with_columns(candidate), y)
            if cand_fit.aic < best_aic:
                best_aic, best = cand_fit.aic, (action, name, candidate, cand_fit)
        if best is None:
            break
        action, name, active, current_fit = best
        trace.append({"action": action, "column": name, "aic": current_fit.aic})
    return X.with_columns(active), current_fit, trace


def significance_prune(
    X: DesignMatrix, y: np.ndarray, alpha: float = 0.05
) -> tuple[DesignMatrix, OlsFit, list[str]]:
    """Drop the least significant slope until all slope p-values fall below
    alpha.

    One slope leaves per refit (the largest p, earliest column on exact
    ties); the intercept always stays.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    current = X
    removed: list[str] = []
    while True:
        current_fit = fit(current, y)
        if current.q == 1:
            return current, current_fit, removed
        slope_p = current_fit.p[1:]
        worst = int(np.argmax(slope_p))
        if slope_p[worst] < alpha:
            return current, current_fit, removed
        name = current.slope_names[worst]
        removed.append(name)
        current = current.drop(name)


def jarque_bera(residuals: np.ndarray) -> tuple[float, float]:
    """Skewness-kurtosis normality test on residuals.

    Moments use the n divisor; the statistic is n/6*(S^2 + (K-3)^2/4),
    referred to a chi-squared distribution with 2 degrees of freedom.
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1:
        raise ValueError("residuals must be 1-d")
    if e.size < 8:
        raise ValueError("normality test needs at least 8 residuals")
    if np.isnan(e).any():
        raise ValueError("residuals contain missing values")
    c = e - e.mean()
    m2 = float(np.mean(c**2))
    if m2 == 0.0:
        raise ValueError("residuals are constant; moments are undefined")
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    stat = e.size / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return stat, float(_chi2_sf(stat, 2))


def koenker_bassett(X: DesignMatrix, residuals: np.ndarray) -> tuple[float, float]:
    """Studentized heteroskedasticity test: squared residuals regressed on
    the design, statistic n*R^2 against chi-squared with q-1 degrees of
    freedom.
    """
    e = np.asarray(residuals, dtype=float)
    if e.shape != (X.n,):
        raise ValueError(f"residuals must have shape ({X.n},), got {e.shape}")
    if X.q < 2:
        raise ValueError(
            "heteroskedasticity test needs at least one slope column"
        )
    aux = fit(X, e**2)
    stat = X.n * aux.r2
    return stat, float(_chi2_sf(stat, X.q - 1))


def condition_number(X: DesignMatrix) -> float:
    """Condition index of the design after scaling columns to unit length.

    Computed as sqrt(largest/smallest eigenvalue) of the scaled cross
    product; numerically singular designs report inf.
    """
    norms = np.linalg.norm(X.values, axis=0)
    if (norms == 0).any():
        bad = [X.names[j] for j in np.nonzero(norms == 0)[0]]
        raise ValueError(f"design columns {bad} are identically zero")
    scaled = X.values / norms
    eigs = np.linalg.eigvalsh(scaled.T @ scaled)
    lam_max = float(eigs[-1])
    lam_min = float(eigs[0])
    if lam_min < lam_max * 1e-12:
        return math.inf
    return math.sqrt(lam_max / lam_min)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Residual diagnostics for one fitted regression; ``koenker_bassett``
    is None when the design has no slope to test against."""

    jarque_bera: tuple[float, float]
    koenker_bassett: tuple[float, float] | None
    condition_number: float


@dataclass(eq=False)
class LmSuite:
    """Score tests for spatial error and spatial lag dependence, with the
    robust variants of each, all referred to chi-squared with 1 degree of
    freedom."""

    lm_error: float
    lm_error_p: float
    lm_lag: float
    lm_lag_p: float
    robust_lm_error: float
    robust_lm_error_p: float
    robust_lm_lag: float
    robust_lm_lag_p: float
    degenerate: bool = field(default=False)

    def as_rows(self) -> list[tuple[str, float, float]]:
        return [
            ("lm_error", self.lm_error, self.lm_error_p),
            ("lm_lag", self.lm_lag, self.lm_lag_p),
            ("robust_lm_error", self.robust_lm_error, self.robust_lm_error_p),
            ("robust_lm_lag", self.robust_lm_lag, self.robust_lm_lag_p),
        ]


def lm_tests(
    X: DesignMatrix, y: np.ndarray, ols_fit: OlsFit, links: SpatialWeights
) -> LmSuite:
    """Spatial-dependence score tests from a least-squares fit.

    The tests weight the contiguity links by row standardization (Anselin
    1988), which needs every unit to have a neighbor.  When the lagged
    fitted values lie in the column space of the design the robust variants
    are undefined; they are reported as 0 with p-value 1 and the suite is
    flagged degenerate.
    """
    if links.n != X.n:
        raise ValueError(f"weights are for {links.n} units, design has {X.n}")
    isolated = np.flatnonzero(links.degree() == 0).tolist()
    if isolated:
        raise ValueError(
            f"weights contain isolated units {isolated}; spatial dependence "
            "tests are undefined with all-zero rows"
        )
    w = links.row_standardized()
    y = np.asarray(y, dtype=float)
    e = ols_fit.residuals
    n = X.n
    sigma2t = ols_fit.sse / n

    d_e = float(e @ (w @ e)) / sigma2t
    d_y = float(e @ (w @ y)) / sigma2t
    # tr((W' + W)W) = sum w_ij^2 + sum w_ij w_ji
    t_trace = float(w.multiply(w).sum() + w.multiply(w.T).sum())
    if t_trace <= 0:
        raise ValueError("weights have no links; spatial tests are undefined")

    wxb = w @ ols_fit.fitted
    m_wxb = wxb - X.values @ _lstsq(X.values, wxb)[0]
    mq = float(m_wxb @ m_wxb)
    j_term = mq / sigma2t + t_trace

    lm_error = d_e * d_e / t_trace
    lm_lag = d_y * d_y / j_term

    degenerate = mq <= 1e-12 * max(1.0, float(wxb @ wxb))
    if degenerate:
        r_lag = 0.0
        r_err = 0.0
        r_lag_p = 1.0
        r_err_p = 1.0
    else:
        jt = j_term - t_trace
        r_lag = (d_y - d_e) ** 2 / jt
        ratio = t_trace / j_term
        r_err = (d_e - ratio * d_y) ** 2 / (t_trace * (1.0 - ratio))
        r_lag_p = float(_chi2_sf(r_lag, 1))
        r_err_p = float(_chi2_sf(r_err, 1))

    return LmSuite(
        lm_error=lm_error,
        lm_error_p=float(_chi2_sf(lm_error, 1)),
        lm_lag=lm_lag,
        lm_lag_p=float(_chi2_sf(lm_lag, 1)),
        robust_lm_error=r_err,
        robust_lm_error_p=r_err_p,
        robust_lm_lag=r_lag,
        robust_lm_lag_p=r_lag_p,
        degenerate=degenerate,
    )


def model_decision(suite: LmSuite, alpha: float = 0.05) -> str:
    """Choose between staying with least squares and fitting a spatial model.

    Neither plain test significant: stay.  Exactly one: fit that model.
    Both: defer to the robust pair; if both robust tests fire the larger
    statistic wins (error on exact ties), if neither fires stay with least
    squares under a warning.  A degenerate suite is refused only when both
    plain tests fire, the one case that reads the robust pair.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    err_sig = suite.lm_error_p < alpha
    lag_sig = suite.lm_lag_p < alpha
    if not err_sig and not lag_sig:
        return "stay-OLS"
    if err_sig != lag_sig:
        return "fit-error" if err_sig else "fit-lag"
    if suite.degenerate:
        raise ValueError(
            "robust spatial dependence tests are degenerate; decision rule "
            "is undefined"
        )
    r_err_sig = suite.robust_lm_error_p < alpha
    r_lag_sig = suite.robust_lm_lag_p < alpha
    if r_err_sig and r_lag_sig:
        return "fit-lag" if suite.robust_lm_lag > suite.robust_lm_error else "fit-error"
    if r_err_sig != r_lag_sig:
        return "fit-error" if r_err_sig else "fit-lag"
    warnings.warn(
        "both plain dependence tests fired but neither robust variant did; "
        "staying with least squares",
        stacklevel=2,
    )
    return "stay-OLS"
