"""Minimum-variance hierarchical grouping and group profiles.

Each merge joins the pair of clusters whose union raises the within-group
sum of squares the least.  A merge's cost is computed from the two clusters'
coordinate sums and sizes, and its recorded height is the square root of
that cost.  Groups are read off by cutting the tree, and each group is
profiled against the overall mean of every feature.

The agglomeration is Muellner's "generic" algorithm (2011,
arXiv:1109.2378): each cluster caches a lower bound on its cheapest merge
with a later cluster, and a bound is recomputed only when it reaches the top
with a partner that has since been merged.  No cost table is stored, so
memory is O(n*d) for n points of d coordinates, and there is no size limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dendrogram",
    "ward_cluster",
    "cut",
    "GroupProfile",
    "profile",
    "LABEL_THRESHOLDS",
]

# |mean| cut-offs between "around", "above"/"below" and "far above"/"far below"
LABEL_THRESHOLDS = (0.25, 1.0)

# bytes of one temporary while the initial row minima are built: with 4 MiB
# temporaries a 30x30 pipeline run peaked at 83 MiB, with these at 72 MiB
_BLOCK_BYTES = 128 * 1024

# retired slots kept before a compaction, whatever the live count: without
# it a compaction follows every merge once fewer than 32 clusters are live
# (208 compactions at n = 900, 27 with it)
_RETIRED_FLOOR = 64


@dataclass(eq=False)
class Dendrogram:
    """Merge history over leaves 0..n-1; merge s creates cluster id n+s.

    Each merge is (left id, right id, height, merged size) with left < right.
    """

    n: int
    merges: list[tuple[int, int, float, int]]


def _merge_costs(s, n_s, sums, sizes, work=None) -> np.ndarray:
    """Costs of merging the cluster with coordinate sums ``s`` (d, 1) and
    size ``n_s`` with each cluster of ``sums`` (d, m) and ``sizes`` (m,).

    The cost 2*||n_k*s - n_s*S_k||^2 / (n_s*n_k*(n_s + n_k)) is twice the
    rise in the within-group sum of squares, or the squared distance of two
    single points.  The squares are added over the coordinates in order, so a
    pair's cost is the same to the last bit whichever of its clusters is
    ``s``.  A cluster with inf sums costs inf.

    The costs are computed in ``work``, a flat float buffer of at least
    (2d + 1) * m items (fresh if omitted), and returned as a view of it
    that holds until its next use.
    """
    d, m = sums.shape
    if work is None:
        work = np.empty((2 * d + 1) * m)
    # contiguous blocks, so numpy runs each operation as one flat loop
    block = work[: (2 * d + 1) * m].reshape(2 * d + 1, m)
    diff, term, den = block[:d], block[d : 2 * d], block[2 * d]
    np.multiply(sums, n_s, out=diff)
    np.multiply(s, sizes, out=term)
    diff -= term
    diff *= diff
    num = diff[0]
    for row in diff[1:]:
        num += row
    np.multiply(n_s, sizes, out=den)
    den *= np.add(n_s, sizes, out=term[0])
    num *= 2.0
    num /= den
    return num


def _initial_minima(points: np.ndarray, row_min: np.ndarray, row_arg: np.ndarray) -> None:
    """Each point's smallest cost to a later point, and the first later point
    at that cost, into ``row_min[:n-1]`` and ``row_arg[:n-1]``.

    ``points`` is (d, n).  For single points ``_merge_costs`` is the sum of
    the squared coordinate differences in coordinate order, which this adds
    the same way over blocks of rows whose temporaries stay within
    ``_BLOCK_BYTES``.
    """
    n = points.shape[1]
    start = 0
    while start < n - 1:
        width = n - start - 1
        stop = min(n - 1, start + max(1, _BLOCK_BYTES // (8 * width)))
        acc = np.zeros((stop - start, width))
        for coord in points:
            diff = np.subtract.outer(coord[start:stop], coord[start + 1 :])
            diff *= diff
            acc += diff
        # row t holds the costs to points start+1.., of which the first t
        # come before point start+t
        for t in range(1, stop - start):
            acc[t, :t] = np.inf
        arg = acc.argmin(axis=1)
        row_min[start:stop] = acc[np.arange(stop - start), arg]
        row_arg[start:stop] = start + 1 + arg
        start = stop


def ward_cluster(points: np.ndarray) -> Dendrogram:
    """Agglomerate rows of ``points`` by minimum variance.

    The cost of merging clusters A and B is 2*n_A*n_B/(n_A+n_B) times the
    squared distance of their centroids, computed from their coordinate sums
    by ``_merge_costs``.  Exact cost ties are broken toward the smallest
    (left id, right id) pair.

    Clusters sit in slots in cluster-id order; a merge retires its two slots
    and appends the new cluster.  Each slot caches a lower bound on its
    smallest cost to a later slot and the first later slot at that bound.
    The first slot holding the smallest bound is taken.  If its partner is
    still live, the bound is that pair's cost and no pair costs less, so the
    pair merges; otherwise the slot's costs are recomputed and the search
    repeats.  After a merge, each bound becomes the smaller of itself and the
    cost to the new cluster, so it stays a lower bound under rounding too.
    The slots are compacted once retired ones exceed both 1/32 of the live
    ones and a floor of 64.
    Memory is O(n*d); time is O(n^2 * d) in practice and O(n^3 * d) at worst.
    Points whose merge costs overflow float64 are refused.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if pts.shape[1] == 0:
        raise ValueError("points must have at least one column")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("grouping needs at least 2 points")
    if not np.isfinite(pts).all():
        raise ValueError("points contain missing or infinite values")
    try:
        with np.errstate(over="raise", invalid="raise"):
            merges = _agglomerate(pts)
    except FloatingPointError:
        raise ValueError("merge costs overflow float64; rescale the points") from None
    return Dendrogram(n=n, merges=merges)


def _agglomerate(pts: np.ndarray) -> list[tuple[int, int, float, int]]:
    """The merges of ``ward_cluster`` over the (n, d) points ``pts``."""
    n, d = pts.shape
    # slots 0..end-1 hold clusters in id order; a retired slot and every slot
    # from end on have inf sums and an inf bound, so a slot is live exactly
    # when its sums are finite.  Slot 2n-1 is never reached, so it stands
    # for a retired partner after a compaction.
    cap = 2 * n
    sums = np.full((d, cap), np.inf)
    sums[:, :n] = pts.T
    sizes = np.ones(cap)
    ids = np.arange(cap)
    row_min = np.full(cap, np.inf)
    row_arg = np.full(cap, cap - 1)
    work = np.empty((2 * d + 1) * cap)
    _initial_minima(sums[:, :n], row_min, row_arg)
    end = n

    merges: list[tuple[int, int, float, int]] = []
    for step in range(n - 1):
        while True:
            i = int(row_min[:end].argmin())
            j = int(row_arg[i])
            if sums[0, j] < np.inf:
                break
            costs = _merge_costs(
                sums[:, i, None], sizes[i], sums[:, i + 1 : end], sizes[i + 1 : end], work
            )
            k = int(costs.argmin())
            row_min[i] = costs[k]
            row_arg[i] = i + 1 + k
        cost = float(row_min[i])
        size = sizes[i] + sizes[j]
        merges.append((int(ids[i]), int(ids[j]), math.sqrt(cost), int(size)))

        sums[:, end] = sums[:, i] + sums[:, j]
        sums[:, i] = np.inf
        sums[:, j] = np.inf
        sizes[end] = size
        ids[end] = n + step
        row_min[i] = row_min[j] = np.inf
        costs = _merge_costs(sums[:, end, None], size, sums[:, :end], sizes[:end], work)
        lower = costs < row_min[:end]
        np.copyto(row_min[:end], costs, where=lower)
        np.copyto(row_arg[:end], end, where=lower)
        end += 1

        retired = end - (n - 1 - step)
        if retired > _RETIRED_FLOOR and 32 * retired > n - 1 - step:
            keep = np.flatnonzero(sums[0, :end] < np.inf)
            count = keep.size
            moved = np.full(cap, cap - 1)
            moved[keep] = np.arange(count)
            sums[:, :count] = sums[:, keep]
            sums[:, count:end] = np.inf
            sizes[:count] = sizes[keep]
            ids[:count] = ids[keep]
            row_arg[:count] = moved[row_arg[keep]]
            row_min[:count] = row_min[keep]
            row_min[count:end] = np.inf
            end = count
    return merges


def cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Labels 1..k from stopping the agglomeration at k groups.

    The first n-k merges are replayed from the last back, each handing its
    root to the two clusters it joined; groups are numbered in the order of
    their first leaf.  A pipeline's leaves are in unit-id order (see
    :func:`arealstat.ingest.merge`), so there each group's number goes by
    its smallest unit id.
    """
    n = dendrogram.n
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if len(dendrogram.merges) < n - k:
        raise ValueError(
            f"the dendrogram holds {len(dendrogram.merges)} merges; "
            f"{n - k} are needed to cut {n} leaves into {k} groups"
        )
    # root[c] is the cluster that c lies in after the first n-k merges
    root = list(range(2 * n - k))
    for s in range(n - k - 1, -1, -1):
        left, right, _, _ = dendrogram.merges[s]
        root[left] = root[right] = root[n + s]
    label_of: dict[int, int] = {}
    for r in root[:n]:
        label_of.setdefault(r, len(label_of) + 1)
    return np.array([label_of[r] for r in root[:n]], dtype=int)


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
) -> list[GroupProfile]:
    """Describe each group by its mean of every (standardized) feature.

    A mean m maps to "around" when |m| < LABEL_THRESHOLDS[0], "above"/"below"
    up to LABEL_THRESHOLDS[1], and "far above"/"far below" beyond it.
    """
    assignments = np.asarray(assignments)
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != len(feature_names):
        raise ValueError("features must be 2-d with one column per name")
    if assignments.shape != (feats.shape[0],):
        raise ValueError("assignments must align with feature rows")
    near, far = LABEL_THRESHOLDS

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
