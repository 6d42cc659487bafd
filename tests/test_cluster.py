"""Agglomerative minimum-variance grouping and group profiling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealstat.cluster import MAX_TABLE_BYTES, cut, profile, ward_cluster


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


def masked_search_ward(points):
    """O(n^3) reference: the Lance-Williams table search that masks out
    retired slots and takes the global minimum on every merge.  Same table,
    same update and same tie rule as ward_cluster, so the merge lists,
    heights included, must compare equal."""
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
    # equidistant clusters whose merged cost rounds below a cached
    # row minimum, so that row must take the new entry
    c = 1.4794947715558486
    rounding = np.vstack([np.eye(6) * c + 0.5 * c, np.eye(6) * c])
    return {
        "rounding-below-cached-minimum": rounding,
        "square-corners": square,
        "8x8-grid": grid,
        "5-values-x12": repeated,
        "200-on-3x3": lattice,
    }


class TestCachedSearchMatchesReference:
    @pytest.mark.parametrize("name", sorted(_tie_heavy_inputs()))
    def test_tie_heavy_inputs(self, name):
        pts = _tie_heavy_inputs()[name]
        assert ward_cluster(pts).merges == masked_search_ward(pts)

    @pytest.mark.parametrize("n", [24, 60, 400])
    def test_gaussian_inputs(self, n):
        pts = np.random.default_rng(97 + n).normal(size=(n, 4))
        assert ward_cluster(pts).merges == masked_search_ward(pts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=2, max_size=2),
            min_size=2,
            max_size=25,
        )
    )
    def test_small_integer_points(self, rows):
        # few distinct coordinates make exact cost ties common
        pts = np.array(rows, dtype=float)
        assert ward_cluster(pts).merges == masked_search_ward(pts)


class TestTableLimit:
    def test_refuses_oversized_table_before_allocating(self):
        n = 16_385
        assert 8 * (n - 1) ** 2 == MAX_TABLE_BYTES
        pts = np.zeros((n, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                ward_cluster(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "n=16385" in str(info.value)
        assert str(8 * n * n) in str(info.value)
        assert peak < 1024**2


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

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            ward_cluster(np.array([[0.0]]))


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

    def test_ids_number_groups_by_smallest_member(self):
        pts = np.array([[0.0], [5.0], [10.0], [0.1], [5.1]])
        labels = cut(ward_cluster(pts), 3, ids=["e", "d", "a", "c", "b"])
        # groups {e, c}, {d, b} and {a}, whose smallest ids are c, b and a
        assert labels.tolist() == [3, 2, 1, 3, 2]

    def test_numbering_by_ids_is_order_free(self):
        rng = np.random.default_rng(96)
        pts = rng.normal(size=(30, 2))
        ids = [f"u{i:02d}" for i in range(30)]
        perm = rng.permutation(30)
        labels = cut(ward_cluster(pts), 5, ids=ids)
        permuted = cut(ward_cluster(pts[perm]), 5, ids=[ids[i] for i in perm])
        assert np.array_equal(permuted, labels[perm])
        # leaf-index numbering follows the input order instead
        assert not np.array_equal(cut(ward_cluster(pts[perm]), 5), labels[perm])

    def test_ids_need_one_per_leaf(self):
        dendro = ward_cluster(np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(ValueError, match="one id per leaf"):
            cut(dendro, 2, ids=["a", "b"])

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

    def test_consistent_with_merge_replay(self):
        rng = np.random.default_rng(95)
        pts = rng.normal(size=(20, 2))
        dendro = ward_cluster(pts)
        for k in (2, 5, 11):
            labels = cut(dendro, k)
            assert len(set(labels)) == k


class TestProfile:
    def test_band_labels(self):
        assignments = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        means = [-1.5, -0.5, 0.0, 0.5, 1.5]
        feats = np.array([[m] for m in means for _ in range(2)])
        profiles = profile(assignments, feats, ["v"])
        labels = [p.labels[0] for p in profiles]
        assert labels == ["far below", "below", "around", "above", "far above"]

    def test_thresholds_configurable(self):
        assignments = np.array([1, 2])
        feats = np.array([[0.5], [3.0]])
        profiles = profile(assignments, feats, ["v"], thresholds=(1.0, 2.0))
        assert profiles[0].labels == ["around"]
        assert profiles[1].labels == ["far above"]

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

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            profile(np.array([1]), np.zeros((1, 1)), ["v"], thresholds=(1.0, 0.5))
