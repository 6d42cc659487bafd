"""Agglomerative minimum-variance grouping and group profiling."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealstat import cluster
from arealstat.cluster import Dendrogram, _merge_costs, cut, profile, ward_cluster


def naive_agglomeration(points):
    """O(n^3) oracle: recompute every pairwise merge cost from the raw
    points at each step.  Cost of joining A and B is the increase in the
    within-group sum of squares, doubled to match the squared-distance
    update; ties pick the lexicographically smallest cluster-id pair."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    members = {i: [i] for i in range(n)}
    next_id = n
    merges = []
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a >= b:
                    continue
                pa = points[members[a]]
                pb = points[members[b]]
                ca, cb = pa.mean(axis=0), pb.mean(axis=0)
                na, nb = len(pa), len(pb)
                cost = 2.0 * na * nb / (na + nb) * np.sum((ca - cb) ** 2)
                key = (cost, a, b)
                if best is None or key < best:
                    best = key
        cost, a, b = best
        merges.append((a, b, np.sqrt(cost), len(members[a]) + len(members[b])))
        members[next_id] = members.pop(a) + members.pop(b)
        next_id += 1
    return merges


def exact_agglomeration(points):
    """O(n^3) oracle in exact arithmetic: every merge cost is a Fraction
    from the clusters' exact coordinate sums, so ties are real ties and go
    to the smallest cluster-id pair.  Each height is the square root of the
    cost rounded once to float, which is what ward_cluster records when its
    sums and products are exact, as they are for small integers."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(points, dtype=float).tolist()]
    members = {i: (row, 1) for i, row in enumerate(rows)}
    next_id = len(rows)
    merges = []
    while len(members) > 1:
        ids = sorted(members)
        best = None
        for pos, a in enumerate(ids):
            sa, na = members[a]
            for b in ids[pos + 1 :]:
                sb, nb = members[b]
                num = sum((nb * x - na * y) ** 2 for x, y in zip(sa, sb))
                key = (2 * num / (na * nb * (na + nb)), a, b)
                if best is None or key < best:
                    best = key
        cost, a, b = best
        (sa, na), (sb, nb) = members.pop(a), members.pop(b)
        merges.append((a, b, math.sqrt(float(cost)), na + nb))
        members[next_id] = ([x + y for x, y in zip(sa, sb)], na + nb)
        next_id += 1
    return merges


def brute_force_ward(points):
    """O(n^3) reference: at every merge, the cost of each live pair from
    ``_merge_costs`` and the cheapest pair with the smallest id pair on ties.
    Same costs and same tie rule as ward_cluster, so the merge lists,
    heights included, must compare equal."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    sums = {i: pts[i] for i in range(n)}
    sizes = {i: 1.0 for i in range(n)}
    merges = []
    for step in range(n - 1):
        ids = sorted(sums)
        block = np.array([sums[i] for i in ids]).T
        counts = np.array([sizes[i] for i in ids])
        best = None
        for pos, a in enumerate(ids[:-1]):
            costs = _merge_costs(block[:, pos, None], counts[pos], block[:, pos + 1 :], counts[pos + 1 :])
            k = int(np.argmin(costs))
            key = (costs[k], a, ids[pos + 1 + k])
            if best is None or key < best:
                best = key
        cost, a, b = best
        merges.append((a, b, math.sqrt(cost), int(sizes[a] + sizes[b])))
        sums[n + step] = sums.pop(a) + sums.pop(b)
        sizes[n + step] = sizes.pop(a) + sizes.pop(b)
    return merges


def table_ward(points):
    """The Lance-Williams table algorithm that ward_cluster replaced, kept
    as an oracle: an n x n cost table updated by the Lance-Williams
    recurrence, cached row minima, and a rescan of the rows whose partner
    was merged.  Its costs round differently from the coordinate-sum costs,
    so heights agree with ward_cluster only to rounding."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]

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

    merges = []
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
    return merges


def assert_matches_table(merges, expected):
    """Same merges on (left, right, size), heights within 1e-12 relative."""
    assert [(l, r, s) for l, r, _, s in merges] == [(l, r, s) for l, r, _, s in expected]
    for (_, _, h, _), (_, _, eh, _) in zip(merges, expected):
        assert abs(h - eh) <= 1e-12 * eh


def masked_search_ward(points):
    """O(n^3) reference for ``table_ward``: the Lance-Williams table search
    that masks out retired slots and takes the global minimum on every
    merge.  Same table, same update and same tie rule as table_ward, so the
    merge lists, heights included, must compare equal."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]

    # working matrix over slots 0..n-1; a merged pair collapses into one slot
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    cluster_id = np.arange(n)

    merges = []
    for step in range(n - 1):
        masked = np.where(active[:, None] & active[None, :], d2, np.inf)
        cost = float(masked.min())
        si_arr, sj_arr = np.nonzero(masked == cost)
        best = None
        best_slots = None
        for si, sj in zip(si_arr, sj_arr):
            if si >= sj:
                continue
            pair = (
                min(cluster_id[si], cluster_id[sj]),
                max(cluster_id[si], cluster_id[sj]),
            )
            if best is None or pair < best:
                best = pair
                best_slots = (int(si), int(sj))
        si, sj = best_slots
        ni, nj = sizes[si], sizes[sj]

        others = np.nonzero(active)[0]
        others = others[(others != si) & (others != sj)]
        nk = sizes[others]
        new = (
            (ni + nk) * d2[si, others]
            + (nj + nk) * d2[sj, others]
            - nk * cost
        ) / (ni + nj + nk)
        d2[si, others] = new
        d2[others, si] = new
        active[sj] = False
        sizes[si] = ni + nj
        cluster_id[si] = n + step
        merges.append((best[0], best[1], float(np.sqrt(cost)), int(ni + nj)))
    return merges


def _tie_heavy_inputs():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    grid = np.array([[x, y] for x in range(8) for y in range(8)], dtype=float)
    repeated = np.repeat(np.arange(5.0), 12)[:, None]
    lattice = np.random.default_rng(96).integers(0, 3, size=(200, 2)) * 1.0
    return {
        "square-corners": square,
        "8x8-grid": grid,
        "5-values-x12": repeated,
        "200-on-3x3": lattice,
    }


# points 0-3 sit at c/2 + c*e_i and points 4-7 at c*e_i; every exact cost
# of a first-level pair is c^2, and the rounded costs tell them apart
_ROUNDING_C = 1.9662958170638285
_ROUNDING = np.vstack([np.eye(4) * _ROUNDING_C + 0.5 * _ROUNDING_C, np.eye(4) * _ROUNDING_C])


@st.composite
def _tie_heavy_points(draw):
    """n = 3-39 points in d = 1-3 built from small integers, multiples of
    0.1, thirds, or normals rounded to one decimal: exact and near cost
    ties everywhere."""
    n, d = draw(st.integers(3, 39)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["integers", "tenths", "thirds", "rounded normals"]))
    if kind == "rounded normals":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return np.round(rng.normal(size=(n, d)), 1)
    ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d)), dtype=float)
    if kind == "tenths":
        ints *= 0.1
    elif kind == "thirds":
        ints /= 3
    return ints.reshape(n, d)


class TestTableOracle:
    @pytest.mark.parametrize("name", sorted(_tie_heavy_inputs()))
    def test_matches_masked_search(self, name):
        pts = _tie_heavy_inputs()[name]
        assert table_ward(pts) == masked_search_ward(pts)

    def test_gaussian_input(self):
        pts = np.random.default_rng(121).normal(size=(60, 4))
        assert table_ward(pts) == masked_search_ward(pts)


class TestCachedSearchMatchesReference:
    @pytest.mark.parametrize("name", sorted(_tie_heavy_inputs()))
    def test_tie_heavy_inputs(self, name):
        pts = _tie_heavy_inputs()[name]
        merges = ward_cluster(pts).merges
        assert merges == brute_force_ward(pts)
        assert_matches_table(merges, table_ward(pts))

    @pytest.mark.parametrize("n", [24, 60, 400])
    def test_gaussian_inputs(self, n):
        pts = np.random.default_rng(97 + n).normal(size=(n, 4))
        assert_matches_table(ward_cluster(pts).merges, table_ward(pts))

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_brute_force_gaussian_inputs(self, d):
        pts = np.random.default_rng(98 + d).normal(size=(40, d))
        assert ward_cluster(pts).merges == brute_force_ward(pts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=2, max_size=2),
            min_size=2,
            max_size=25,
        )
    )
    def test_small_integer_points(self, rows):
        # few distinct coordinates make exact cost ties common; the sums and
        # products are exact, so the merges equal the exact oracle's
        pts = np.array(rows, dtype=float)
        assert ward_cluster(pts).merges == exact_agglomeration(pts)

    @settings(max_examples=500, deadline=None)
    @given(_tie_heavy_points())
    def test_tie_heavy_points(self, pts):
        expected = brute_force_ward(pts)
        assert ward_cluster(pts).merges == expected
        # with no floor under the retired slots, a compaction follows nearly
        # every merge at these sizes
        with mock.patch.object(cluster, "_RETIRED_FLOOR", 0):
            assert ward_cluster(pts).merges == expected

    def test_tie_rule_where_the_table_breaks_it(self):
        pts = np.array(
            [[-2, 1], [2, 1], [-2, 2], [-1, 0], [1, 0], [-2, 2], [-1, 2], [0, 2]],
            dtype=float,
        )
        merges = ward_cluster(pts).merges
        assert merges == exact_agglomeration(pts)
        assert merges[4][:2] == (3, 9)
        # the table's rounding makes (9, 10) its fifth merge
        assert table_ward(pts)[4][:2] == (9, 10)

    def test_rounding_lowers_a_cached_bound(self):
        merges = ward_cluster(_ROUNDING).merges
        assert merges == brute_force_ward(_ROUNDING)
        assert [(l, r) for l, r, _, _ in merges[:4]] == [(3, 7), (0, 4), (1, 5), (2, 6)]
        # {1, 5} (id 10) caches {2, 6} (id 11) as its partner; the merge of
        # {3, 7} and {0, 4} into id 12 ties it exactly, but the rounded cost
        # to 12 comes out lower, so 10 must take 12
        members = {10: [1, 5], 11: [2, 6], 12: [0, 3, 4, 7]}

        def rounded(a, b):
            sa, sb = (_ROUNDING[members[c]].sum(axis=0)[:, None] for c in (a, b))
            return _merge_costs(sa, len(members[a]), sb, np.array([len(members[b])]))[0]

        def exact(a, b):
            sa, sb = ([sum(map(Fraction, col)) for col in _ROUNDING[members[c]].T] for c in (a, b))
            na, nb = len(members[a]), len(members[b])
            return 2 * sum((nb * x - na * y) ** 2 for x, y in zip(sa, sb)) / (na * nb * (na + nb))

        assert rounded(10, 12) < rounded(10, 11)
        assert exact(10, 12) == exact(10, 11)
        assert merges[5][:2] == (10, 12)
        assert exact_agglomeration(_ROUNDING)[5][:2] == (10, 11)


class TestCostKernel:
    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_bitwise_symmetric(self, d):
        rng = np.random.default_rng(60 + d)
        m = 30
        sums = rng.normal(size=(d, m)) * rng.integers(1, 50, size=m)
        sizes = rng.integers(1, 50, size=m).astype(float)
        table = np.array([_merge_costs(sums[:, i, None], sizes[i], sums, sizes) for i in range(m)])
        assert np.array_equal(table, table.T)
        # a pass over one cluster adds the coordinates in the same order
        for i, k in ((0, 1), (7, 29), (29, 3)):
            one = _merge_costs(sums[:, i, None], sizes[i], sums[:, k, None], sizes[k : k + 1])
            assert one[0] == table[i, k]

    def test_retired_sums_cost_inf(self):
        sums = np.array([[0.0, np.inf, 1.0], [0.0, np.inf, 1.0]])
        costs = _merge_costs(sums[:, 0, None], 1.0, sums, np.ones(3))
        assert costs[1] == np.inf and costs[2] == 2.0

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_initial_minima_equal_the_kernel(self, d, monkeypatch):
        # small blocks, so that the rows span several of them
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", 512)
        pts = np.random.default_rng(70 + d).normal(size=(50, d))
        row_min = np.full(50, np.inf)
        row_arg = np.full(50, -1)
        cluster._initial_minima(np.ascontiguousarray(pts.T), row_min, row_arg)
        for i in range(49):
            costs = _merge_costs(pts[i, :, None], 1.0, pts[i + 1 :].T, np.ones(49 - i))
            assert row_min[i] == costs.min()
            assert row_arg[i] == i + 1 + np.argmin(costs)
        assert row_min[49] == np.inf


class TestMemory:
    def test_no_pairwise_table(self):
        pts = np.random.default_rng(80).normal(size=(2000, 4))
        tracemalloc.start()
        try:
            ward_cluster(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 2000 x 2000 float64 table would take 30.5 MiB
        assert peak < 2 * 1024**2


class TestWardMerges:
    def test_three_point_line_by_hand(self):
        dendro = ward_cluster(np.array([[0.0], [1.0], [10.0]]))
        assert dendro.n == 3
        (l0, r0, h0, s0), (l1, r1, h1, s1) = dendro.merges
        assert (l0, r0, s0) == (0, 1, 2)
        assert h0 == pytest.approx(1.0)
        assert (l1, r1, s1) == (2, 3, 3)
        # joining {0,1} with {10}: cost (2*100 + 2*81 - 1)/3
        assert h1 == pytest.approx(np.sqrt(361.0 / 3.0), rel=1e-12)

    def test_matches_naive_oracle_sequence(self):
        rng = np.random.default_rng(90)
        points = rng.normal(size=(24, 3))
        dendro = ward_cluster(points)
        expected = naive_agglomeration(points)
        for (l, r, h, s), (el, er, eh, es) in zip(dendro.merges, expected):
            assert (l, r, s) == (el, er, es)
            assert h == pytest.approx(eh, rel=1e-8)

    def test_deterministic_tie_breaking(self):
        # four corners of a square: two equal-cost first merges; the
        # smallest id pair goes first
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        dendro = ward_cluster(pts)
        l, r, _, _ = dendro.merges[0]
        assert (l, r) == (0, 1)

    def test_heights_never_decrease(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            dendro = ward_cluster(rng.normal(size=(30, 2)))
            heights = [m[2] for m in dendro.merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_sizes_partition_everything(self):
        rng = np.random.default_rng(92)
        dendro = ward_cluster(rng.normal(size=(17, 2)))
        assert dendro.merges[-1][3] == 17

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ward_cluster(np.array([[0.0], [np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="infinite"):
            ward_cluster(np.array([[0.0], [np.inf], [1.0]]))

    def test_rejects_overflowing_costs(self):
        with pytest.raises(ValueError, match="overflow"):
            ward_cluster(np.array([[0.0], [1e200], [3e200]]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            ward_cluster(np.array([[0.0]]))

    def test_rejects_points_without_columns(self):
        with pytest.raises(ValueError, match="at least one column"):
            ward_cluster(np.zeros((5, 0)))


class TestCut:
    def test_k_equals_n_is_identity_partition(self):
        rng = np.random.default_rng(93)
        pts = rng.normal(size=(8, 2))
        labels = cut(ward_cluster(pts), 8)
        assert sorted(labels) == list(range(1, 9))

    def test_k_one_is_single_group(self):
        rng = np.random.default_rng(94)
        labels = cut(ward_cluster(rng.normal(size=(8, 2))), 1)
        assert set(labels) == {1}

    def test_labels_numbered_by_first_appearance(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1], [10.0]])
        labels = cut(ward_cluster(pts), 3)
        # first row must always carry label 1, and labels appear in order
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == [1, 2, 3]

    def test_well_separated_pairs(self):
        pts = np.array([[0.0], [0.1], [50.0], [50.1]])
        labels = cut(ward_cluster(pts), 2)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_invalid_k_rejected(self):
        dendro = ward_cluster(np.array([[0.0], [1.0], [2.0]]))
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                cut(dendro, k)

    def test_rejects_a_tree_short_of_merges(self):
        # five leaves cut into two groups need three merges; this tree has one
        dendro = Dendrogram(n=5, merges=[(0, 1, 1.0, 2)])
        with pytest.raises(ValueError, match="holds 1 merges; 3 are needed"):
            cut(dendro, 2)
        assert cut(dendro, 4).tolist() == [1, 1, 2, 3, 4]

    def test_consistent_with_merge_replay(self):
        rng = np.random.default_rng(95)
        pts = rng.normal(size=(20, 2))
        dendro = ward_cluster(pts)
        for k in (2, 5, 11):
            labels = cut(dendro, k)
            assert len(set(labels)) == k


class TestProfile:
    def test_band_labels(self):
        # LABEL_THRESHOLDS is (0.25, 1.0); each edge belongs to the band above it
        means = [-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5]
        assignments = np.repeat(np.arange(1, len(means) + 1), 2)
        feats = np.array([[m] for m in means for _ in range(2)])
        profiles = profile(assignments, feats, ["v"])
        labels = [p.labels[0] for p in profiles]
        assert labels == [
            "far below", "far below", "below", "below", "around",
            "above", "above", "far above", "far above",
        ]

    def test_counts_and_means(self):
        assignments = np.array([1, 1, 2])
        feats = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 30.0]])
        profiles = profile(assignments, feats, ["a", "b"])
        assert profiles[0].count == 2
        assert profiles[0].means[0] == pytest.approx(2.0)
        assert profiles[1].means[1] == pytest.approx(30.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            profile(np.array([1, 2]), np.zeros((2, 2)), ["only-one"])
        with pytest.raises(ValueError):
            profile(np.array([1]), np.zeros((2, 1)), ["v"])
