"""Local hot- and cold-spot detection.

The local statistic for unit i compares the weighted sum of x over i's
neighborhood (including i itself) against the expectation under a random
spatial arrangement, standardized to a z-score.  Multiple testing across
units is handled by false-discovery-rate adjustment before classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .stats import _norm_sf, bh_fdr
from .weights import SpatialWeights

__all__ = ["HotspotResult", "gi_star", "classify", "CLASS_ORDER"]

CLASS_ORDER = ["cold99", "cold95", "cold90", "none", "hot90", "hot95", "hot99"]


@dataclass(eq=False)
class HotspotResult:
    """Per-unit z-scores, p-values, adjusted p-values, and class labels."""

    z: np.ndarray
    p: np.ndarray
    adjusted_p: np.ndarray
    classes: list[str]

    @property
    def n(self) -> int:
        return len(self.classes)


def gi_star(
    links: SpatialWeights, x: np.ndarray, fdr_alpha: float = 0.05
) -> HotspotResult:
    """Self-inclusive local concentration z-scores with FDR-adjusted classes.

    The statistic weights the contiguity links in binary and adds each
    unit's self-link (Ord & Getis 1995): its null moments assume w_ij in
    {0, 1} and the unit's own value inside its neighborhood sum.  A unit
    whose neighborhood holds every unit has no null variance and is
    refused.
    """
    x = np.asarray(x, dtype=float)
    n = links.n
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    if n < 3:
        raise ValueError("hot-spot statistic needs at least 3 units")
    if np.isnan(x).any():
        raise ValueError("x contains missing values")
    infinite = np.flatnonzero(np.isinf(x))
    if infinite.size:
        i = int(infinite[0])
        raise ValueError(f"x has non-finite value {x[i]} at unit {i}")
    if np.all(x == x[0]):
        raise ValueError("x is constant; z-scores are undefined")

    # centred two-pass moments: sum_j w_ij (x_j - xbar) and the population
    # (n-divisor) standard deviation, both free of cancellation under a
    # shift; the second pass removes the rounding left in the first mean
    xc = x - float(np.mean(x))
    xc -= float(np.mean(xc))
    s = math.sqrt(float(np.mean(xc * xc)))

    w = links.matrix + sp.identity(n, format="csr")
    # binary weights with the self-link, so sum_j w_ij = sum_j w_ij^2 =
    # degree + 1
    wsum = links.degree() + 1.0
    spread = n * wsum - wsum * wsum
    flat = np.flatnonzero(spread <= 0.0)
    if flat.size:
        raise ValueError(
            f"unit {flat[0]}'s neighborhood holds every unit, so n*sum(w^2) - "
            "sum(w)^2 is 0 and its z-score is undefined"
        )
    z = (w @ xc) / (s * np.sqrt(spread / (n - 1)))

    p = 2.0 * _norm_sf(np.abs(z))
    fdr = bh_fdr(p, alpha=fdr_alpha)
    classes = classify(z, fdr.adjusted_p)
    return HotspotResult(z=z, p=p, adjusted_p=fdr.adjusted_p, classes=classes)


def classify(z: np.ndarray, adjusted_p: np.ndarray) -> list[str]:
    """Label each unit by sign of z and tightest adjusted-p tier.

    Tiers are <= 0.01, <= 0.05, <= 0.10 mapping to 99/95/90 percent
    confidence labels; anything looser is "none".  z exactly 0 is "none"
    regardless of p.
    """
    z = np.asarray(z, dtype=float)
    adjusted_p = np.asarray(adjusted_p, dtype=float)
    if z.shape != adjusted_p.shape:
        raise ValueError("z and adjusted_p must have matching shapes")
    out = []
    for zi, pi in zip(z, adjusted_p):
        if zi == 0.0 or pi > 0.10:
            out.append("none")
            continue
        if pi <= 0.01:
            tier = "99"
        elif pi <= 0.05:
            tier = "95"
        else:
            tier = "90"
        out.append(("hot" if zi > 0 else "cold") + tier)
    return out
