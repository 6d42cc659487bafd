"""Minimum-variance hierarchical grouping and group profiles.

Agglomeration follows the Lance-Williams recurrence on squared Euclidean
distances, so each merge picks the pair whose union increases within-group
sum of squares the least.  Recorded heights are the square roots of the
merge costs.  Groups are read off by cutting the tree, and each group is
profiled against the overall mean of every feature.

The agglomeration caches each row's minimum of the n x n cost table and,
after a merge, rescans only the rows whose partner was merged.  The Ward
update is reducible, so no other row's minimum can fall beyond rounding
(Muellner 2011, arXiv:1109.2378, the "generic" algorithm).  It takes
O(n^2) time in practice and 8*n^2 bytes, and it refuses n above 16 384
(``MAX_TABLE_BYTES``, 2 GiB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dendrogram",
    "ward_cluster",
    "cut",
    "GroupProfile",
    "profile",
    "MAX_TABLE_BYTES",
    "LABEL_THRESHOLDS",
]

# largest n x n float64 cost table ward_cluster allocates (n = 16 384)
MAX_TABLE_BYTES = 2 * 1024**3

# |mean| cut-offs between "around", "above"/"below" and "far above"/"far below"
LABEL_THRESHOLDS = (0.25, 1.0)


@dataclass(eq=False)
class Dendrogram:
    """Merge history over leaves 0..n-1; merge s creates cluster id n+s.

    Each merge is (left id, right id, height, merged size) with left < right.
    """

    n: int
    merges: list[tuple[int, int, float, int]]


def ward_cluster(points: np.ndarray) -> Dendrogram:
    """Agglomerate rows of ``points`` by minimum variance.

    The pairwise table starts at squared Euclidean distance and is updated
    with the Lance-Williams weights for minimum-variance merging, so the
    table entry for clusters A and B is 2*n_A*n_B/(n_A+n_B) times the
    squared distance of their centroids.  Exact cost ties are broken toward
    the smallest (left id, right id) pair.

    Each live row caches its minimum and the column holding it.  A merge
    rewrites the lower slot's row and column and retires the other slot by
    filling its row and column with inf.  Rows whose cached column was one
    of the merged pair are rescanned; every other row only compares its
    cached minimum with its one new entry.  The cache is exact, since no
    other entry changed.  Ward's update is reducible: a merged cluster is
    never closer to a third one than the nearer of its two parts was, so
    the comparison lowers a minimum only by rounding.  A merge costs O(n)
    plus O(n) per rescanned row, which makes the agglomeration O(n^2) time
    in practice and O(n^3) at worst.  The n x n float64 table takes 8*n^2
    bytes; inputs whose table would exceed ``MAX_TABLE_BYTES``
    (n > 16 384) are refused before it is allocated.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("grouping needs at least 2 points")
    table_bytes = 8 * n * n
    if table_bytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"grouping n={n} points needs a {table_bytes}-byte cost table, "
            f"over the limit of {MAX_TABLE_BYTES} bytes"
        )
    if np.isnan(pts).any():
        raise ValueError("points contain missing values")

    # working matrix over slots 0..n-1; a merged pair collapses into the
    # lower slot and the other slot's row and column become inf
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    sizes = np.ones(n, dtype=float)
    cluster_id = np.arange(n)
    row_arg = np.argmin(d2, axis=1)
    row_min = d2[np.arange(n), row_arg]

    merges: list[tuple[int, int, float, int]] = []
    for step in range(n - 1):
        cost = float(row_min.min())
        # every slot in a tied pair has its row minimum at the cost, so the
        # smallest id pair holds the smallest id among those slots
        tied = np.flatnonzero(row_min == cost)
        first = tied[np.argmin(cluster_id[tied])]
        partners = np.flatnonzero(d2[first] == cost)
        second = partners[np.argmin(cluster_id[partners])]
        si, sj = min(first, second), max(first, second)
        ni, nj = sizes[si], sizes[sj]
        left, right = sorted((cluster_id[si], cluster_id[sj]))

        stale = (row_arg == si) | (row_arg == sj)
        stale[si] = True
        stale[sj] = False
        # the diagonal and retired slots hold inf, and so does their update
        new = (
            (ni + sizes) * d2[si]
            + (nj + sizes) * d2[sj]
            - sizes * cost
        ) / (ni + nj + sizes)
        d2[si] = new
        d2[:, si] = new
        d2[sj] = np.inf
        d2[:, sj] = np.inf
        sizes[si] = ni + nj
        cluster_id[si] = n + step

        lower = new < row_min
        row_min[lower] = new[lower]
        row_arg[lower] = si
        # a retired slot is never merged again, so pointing it at itself
        # keeps it out of every later rescan
        row_min[sj] = np.inf
        row_arg[sj] = sj
        stale = np.flatnonzero(stale)
        args = np.argmin(d2[stale], axis=1)
        row_arg[stale] = args
        row_min[stale] = d2[stale, args]
        merges.append((left, right, float(np.sqrt(cost)), int(ni + nj)))
    return Dendrogram(n=n, merges=merges)


def cut(dendrogram: Dendrogram, k: int, ids=None) -> np.ndarray:
    """Labels 1..k from stopping the agglomeration at k groups.

    The first n-k merges are replayed; groups are numbered in the order of
    their smallest member of ``ids``, one sortable id per leaf (by default
    the leaf index), so that with unit ids the numbering does not depend on
    the order of the units.
    """
    n = dendrogram.n
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    keys = range(n) if ids is None else list(ids)
    if len(keys) != n:
        raise ValueError(f"ids must hold one id per leaf ({n}), got {len(keys)}")
    parent: dict[int, int] = {}
    for s in range(n - k):
        left, right, _, _ = dendrogram.merges[s]
        parent[left] = n + s
        parent[right] = n + s

    def find(i: int) -> int:
        while i in parent:
            i = parent[i]
        return i

    roots = [find(i) for i in range(n)]
    # in id order, the first leaf met of each group holds its smallest id
    label_of: dict[int, int] = {}
    for i in sorted(range(n), key=keys.__getitem__):
        label_of.setdefault(roots[i], len(label_of) + 1)
    return np.array([label_of[root] for root in roots], dtype=int)


@dataclass(eq=False)
class GroupProfile:
    """One group's size, per-feature means, and qualitative labels."""

    group: int
    count: int
    feature_names: list[str]
    means: np.ndarray
    labels: list[str]


def profile(
    assignments: np.ndarray,
    features: np.ndarray,
    feature_names: list[str],
    thresholds: tuple[float, float] = LABEL_THRESHOLDS,
) -> list[GroupProfile]:
    """Describe each group by its mean of every (standardized) feature.

    A mean m maps to "around" when |m| < thresholds[0], "above"/"below" up
    to thresholds[1], and "far above"/"far below" beyond it.
    """
    assignments = np.asarray(assignments)
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != len(feature_names):
        raise ValueError("features must be 2-d with one column per name")
    if assignments.shape != (feats.shape[0],):
        raise ValueError("assignments must align with feature rows")
    near, far = thresholds
    if not (0 < near < far):
        raise ValueError("thresholds must satisfy 0 < near < far")

    out = []
    for g in np.unique(assignments):
        mask = assignments == g
        means = feats[mask].mean(axis=0)
        labels = []
        for m in means:
            if abs(m) < near:
                labels.append("around")
            elif abs(m) < far:
                labels.append("above" if m > 0 else "below")
            else:
                labels.append("far above" if m > 0 else "far below")
        out.append(
            GroupProfile(
                group=int(g),
                count=int(mask.sum()),
                feature_names=list(feature_names),
                means=means,
                labels=labels,
            )
        )
    return out
