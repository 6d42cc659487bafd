"""Column summaries, standardization, rank correlation, and FDR control."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "SummaryRow",
    "summarize",
    "zscore",
    "spearman",
    "FdrResult",
    "bh_fdr",
]


# Upper-tail probabilities of the reference distributions, as the special
# functions scipy.stats evaluates for norm.sf, t.sf and chi2.sf (scipy 1.17,
# stats/_continuous_distns.py).  Calling them directly keeps scipy.stats, and
# the half second its import costs, out of every run.


def _norm_sf(x):
    """P(Z > x) for a standard normal Z."""
    return special.ndtr(-x)


def _t_sf(x, df):
    """P(T > x) for Student's t with df degrees of freedom."""
    return special.stdtr(df, -x)


def _chi2_sf(x, df):
    """P(X > x) for chi-squared with df degrees of freedom.

    Below the support chdtrc gives NaN where chi2.sf gives 1; clamping x at
    0 keeps the two equal there and leaves every x >= 0 untouched.
    """
    return special.chdtrc(df, np.maximum(x, 0.0))


@dataclass(frozen=True)
class SummaryRow:
    """Per-column summary over non-missing values."""

    name: str
    mean: float
    sd: float
    n: int
    minimum: float
    maximum: float


def summarize(table) -> list[SummaryRow]:
    """Summarize each column of an attribute table, excluding flagged-missing
    cells from every statistic.

    sd uses the n-1 divisor; a column with a single non-missing value gets
    sd 0.0 rather than NaN.
    """
    values = np.asarray(table.values, dtype=float)
    columns = list(table.columns)
    if values.ndim != 2 or values.shape[1] != len(columns):
        raise ValueError("table values must be 2-d with one column per name")
    out = []
    for j, name in enumerate(columns):
        col = values[:, j]
        col = col[~np.isnan(col)]
        if col.size == 0:
            raise ValueError(f"column {name!r} has no non-missing values")
        sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
        out.append(
            SummaryRow(
                name=name,
                mean=float(np.mean(col)),
                sd=sd,
                n=int(col.size),
                minimum=float(np.min(col)),
                maximum=float(np.max(col)),
            )
        )
    return out


def zscore(x: np.ndarray) -> np.ndarray:
    """Standardize to mean 0 and unit sample sd (n-1 divisor)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("zscore expects a 1-d array")
    if x.size < 2:
        raise ValueError("zscore needs at least 2 values")
    if np.isnan(x).any():
        raise ValueError("zscore input contains missing values")
    infinite = np.flatnonzero(np.isinf(x))
    if infinite.size:
        i = int(infinite[0])
        raise ValueError(f"zscore input has non-finite value {x[i]} at position {i}")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise ValueError("zscore input is constant")
    return (x - float(np.mean(x))) / sd


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their positions."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        # positions i..j (0-based) share rank mean of i+1..j+1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Spearman rank correlation with a t-approximation p-value.

    Ties get average ranks; rho is the Pearson correlation of the rank
    vectors.  The p-value uses t = rho*sqrt((n-2)/(1-rho^2)) on n-2 degrees
    of freedom, two-sided, and is exactly 0 when |rho| = 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError("spearman needs at least 3 observations")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("spearman input contains missing values")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("spearman input is constant")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    # guard tiny excursions past +-1 from finite arithmetic
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    n = x.size
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(_t_sf(abs(t), n - 2))
    return rho, min(1.0, p)


@dataclass(eq=False)
class FdrResult:
    """Step-up false-discovery-rate adjustment at level alpha."""

    raw_p: np.ndarray
    adjusted_p: np.ndarray
    significant: np.ndarray
    alpha: float


def bh_fdr(pvalues: np.ndarray, alpha: float = 0.05) -> FdrResult:
    """Benjamini-Hochberg step-up adjustment.

    adjusted(i) = min over j >= i (by sorted position) of m*p(j)/j, clipped
    to 1; a test is significant iff its adjusted p is <= alpha.  Original
    input order is preserved in every output array.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("bh_fdr expects a non-empty 1-d array")
    if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
        raise ValueError("p-values must lie in [0, 1]")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adj_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m)
    adjusted[order] = adj_sorted
    # the tail minimum is >= p[i] in exact arithmetic, but m*p/j can round
    # one ulp under p; pin the identity so adjusted >= raw always holds
    adjusted = np.maximum(adjusted, p)
    return FdrResult(
        raw_p=p.copy(),
        adjusted_p=adjusted,
        significant=adjusted <= alpha,
        alpha=float(alpha),
    )
