"""Contiguity detection, the row-standardized view, and the text round trip."""

import math
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arealstat.hotspot import gi_star
from arealstat.ingest import AreaUnit
from arealstat.weights import (
    SpatialWeights,
    detect_islands,
    queen_contiguity,
    read_weights,
    rook_contiguity,
    write_weights,
)
from conftest import adjacency_from_neighbors, grid_adjacency, grid_units, square_unit


def same_csr(a, b):
    """Equal shape, row pointers, column indices and bit-equal values."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def same_adjacency(a, b):
    return a.n == b.n and all(
        np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors)
    )


# Reference: the bucket-based contiguity search that the CSR construction
# replaced, kept verbatim (only the returned links are built from the
# neighbor lists) so the vectorised search can be checked against it.
def _snap_pitch(units, snap_tolerance):
    if snap_tolerance is not None:
        if snap_tolerance <= 0:
            raise ValueError("snap tolerance must be positive")
        return float(snap_tolerance)
    xs: list[float] = []
    ys: list[float] = []
    for u in units:
        for poly in u.geometry:
            for ring in poly:
                for x, y in ring:
                    xs.append(x)
                    ys.append(y)
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    diag = math.hypot(dx, dy)
    if diag == 0.0:
        raise ValueError("degenerate geometry: bounding box has zero diagonal")
    return 1e-9 * diag


def _snap(value: float, pitch: float) -> int:
    return int(round(value / pitch))


def _collect_links(buckets: dict, n: int):
    links: list[set[int]] = [set() for _ in range(n)]
    for members in buckets.values():
        if len(members) < 2:
            continue
        uniq = sorted(set(members))
        for a in uniq:
            for b in uniq:
                if a != b:
                    links[a].add(b)
    neighbors = [np.array(sorted(s), dtype=int) for s in links]
    return adjacency_from_neighbors(neighbors)


def bucket_queen(units, snap_tolerance=None):
    if len(units) < 2:
        raise ValueError("contiguity needs at least 2 units")
    pitch = _snap_pitch(units, snap_tolerance)
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, u in enumerate(units):
        mine: set[tuple[int, int]] = set()
        for poly in u.geometry:
            for ring in poly:
                # closing vertex repeats the first; skip it
                for x, y in ring[:-1]:
                    mine.add((_snap(x, pitch), _snap(y, pitch)))
        for key in mine:
            buckets[key].append(i)
    return _collect_links(buckets, len(units))


def bucket_rook(units, snap_tolerance=None):
    if len(units) < 2:
        raise ValueError("contiguity needs at least 2 units")
    pitch = _snap_pitch(units, snap_tolerance)
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for i, u in enumerate(units):
        mine: set[tuple] = set()
        for poly in u.geometry:
            for ring in poly:
                snapped = [(_snap(x, pitch), _snap(y, pitch)) for x, y in ring]
                for a, b in zip(snapped[:-1], snapped[1:]):
                    if a == b:
                        continue
                    mine.add((a, b) if a <= b else (b, a))
        for key in mine:
            buckets[key].append(i)
    return _collect_links(buckets, len(units))


def random_tiling(seed, jitter_pitches, snap_tolerance, scale, offset):
    """Units over a grid of cells.  Each kept cell is one polygon of a
    randomly chosen unit, so units are MultiPolygons that often touch only at
    a corner; some polygons carry a square hole that a unit of its own
    fills.  Rings start at a random vertex, run either way and may repeat a
    vertex (a zero-length edge).  Every vertex copy then moves independently
    by up to ``jitter_pitches`` snap pitches."""
    rng = np.random.default_rng(seed)
    nx, ny = (int(v) for v in rng.integers(2, 6, size=2))
    k = int(rng.integers(2, nx * ny + 1))
    polygons = [[] for _ in range(k)]
    fillers = []
    for r in range(ny):
        for c in range(nx):
            if rng.random() < 0.15:
                continue
            rings = [[(c, r), (c + 1, r), (c + 1, r + 1), (c, r + 1)]]
            if rng.random() < 0.2:
                hole = [(c + 0.25, r + 0.25), (c + 0.25, r + 0.75),
                        (c + 0.75, r + 0.75), (c + 0.75, r + 0.25)]
                rings.append(hole)
                fillers.append([[hole[::-1]]])
            polygons[int(rng.integers(k))].append(rings)
    pitch = snap_tolerance or 1e-9 * math.hypot(nx, ny) * scale
    jitter = jitter_pitches * pitch

    def ring_of(points):
        s = int(rng.integers(len(points)))
        pts = points[s:] + points[:s]
        if rng.random() < 0.5:
            pts = pts[::-1]
        if rng.random() < 0.3:
            d = int(rng.integers(len(pts)))
            pts.insert(d, pts[d])
        pts = [
            (x * scale + offset + rng.uniform(-jitter, jitter),
             y * scale + offset + rng.uniform(-jitter, jitter))
            for x, y in pts
        ]
        return tuple(pts + [pts[0]])

    shapes = [p for p in polygons if p] + fillers
    return [
        AreaUnit(
            id=str(i),
            geometry=tuple(tuple(ring_of(ring) for ring in rings) for rings in shape),
            properties={},
        )
        for i, shape in enumerate(shapes)
    ]


@st.composite
def tilings(draw):
    """(units, snap_tolerance) with sub- and super-pitch jitter."""
    tol = draw(st.sampled_from([None, 1e-3, 0.02]))
    units = random_tiling(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([0.0, 0.1, 0.45, 0.55, 3.0])),
        tol,
        draw(st.sampled_from([1.0, 1e-3, 1e4])),
        draw(st.sampled_from([0.0, -250.0, 1e5])),
    )
    assume(len(units) >= 2)
    return units, tol


def is_canonical_pattern(adj):
    m = adj.matrix
    return (
        m.shape == (adj.n, adj.n)
        and m.has_canonical_format
        and np.all(m.data == 1.0)
        and not m.diagonal().any()
        and (m != m.T).nnz == 0
    )


class TestContiguity:
    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 3), (5, 5)])
    def test_queen_matches_index_oracle(self, nx, ny):
        adj = queen_contiguity(grid_units(nx, ny))
        assert same_adjacency(adj, grid_adjacency(nx, ny, queen=True))

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 3), (5, 5)])
    def test_rook_matches_index_oracle(self, nx, ny):
        adj = rook_contiguity(grid_units(nx, ny))
        assert same_adjacency(adj, grid_adjacency(nx, ny, queen=False))

    def test_corner_touch_is_queen_but_not_rook(self, corner_fixture):
        queen = queen_contiguity(corner_fixture)
        rook = rook_contiguity(corner_fixture)
        # A and C meet only at the corner (1, 1)
        assert 2 in queen.neighbors[0]
        assert 2 not in rook.neighbors[0]
        # A and B share a full edge
        assert 1 in queen.neighbors[0]
        assert 1 in rook.neighbors[0]

    def test_adjacency_is_symmetric(self, corner_fixture):
        adj = queen_contiguity(corner_fixture)
        for i, nb in enumerate(adj.neighbors):
            for j in nb:
                assert i in adj.neighbors[j]

    def test_detached_unit_is_island(self, corner_fixture):
        adj = queen_contiguity(corner_fixture)
        assert detect_islands(adj) == [3]
        rook = rook_contiguity(corner_fixture)
        assert detect_islands(rook) == [3]

    def test_no_islands_on_lattice(self):
        assert detect_islands(queen_contiguity(grid_units(3, 3))) == []

    def test_requires_two_units(self):
        with pytest.raises(ValueError):
            queen_contiguity([square_unit("A", 0, 0)])

    def test_degenerate_extent_rejected(self):
        ring = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        units = [
            AreaUnit(id="A", geometry=((ring,),), properties={}),
            AreaUnit(id="B", geometry=((ring,),), properties={}),
        ]
        with pytest.raises(ValueError):
            queen_contiguity(units)

    def test_explicit_tolerance_bridges_small_gaps(self):
        # B sits 1e-6 away from A; default pitch keeps them apart,
        # a coarser snap merges the boundary vertices
        a = square_unit("A", 0.0, 0.0)
        b = square_unit("B", 1.000001, 0.0)
        assert 1 not in queen_contiguity([a, b]).neighbors[0]
        assert 1 in queen_contiguity([a, b], snap_tolerance=1e-4).neighbors[0]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            queen_contiguity(grid_units(2, 2), snap_tolerance=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_snap_stability_under_tiny_perturbation(self, seed):
        # vertices on an exact grid keep their adjacency when jittered by
        # less than a quarter of the snap pitch; each ring stays closed
        rng = np.random.default_rng(seed)
        units = grid_units(3, 3)
        tol = 0.01
        jittered = []
        for u in units:
            rings = []
            for ring in u.geometry[0]:
                pts = [
                    (x + rng.uniform(-tol / 4, tol / 4), y + rng.uniform(-tol / 4, tol / 4))
                    for x, y in ring[:-1]
                ]
                rings.append(tuple(pts + pts[:1]))
            jittered.append(AreaUnit(id=u.id, geometry=((tuple(rings[0]),),), properties={}))
        base = queen_contiguity(units, snap_tolerance=tol)
        moved = queen_contiguity(jittered, snap_tolerance=tol)
        assert same_adjacency(base, moved)


class TestMatchesBucketReference:
    @settings(max_examples=80, deadline=None)
    @given(tilings())
    def test_queen_and_rook_equal_bucket_search(self, tiling):
        units, tol = tiling
        for fast, reference in ((queen_contiguity, bucket_queen), (rook_contiguity, bucket_rook)):
            adj = fast(units, snap_tolerance=tol)
            assert is_canonical_pattern(adj)
            assert same_adjacency(adj, reference(units, snap_tolerance=tol))

    def test_neighbor_views_are_read_only(self):
        adj = queen_contiguity(grid_units(3, 3))
        with pytest.raises(ValueError):
            adj.neighbors[0][0] = 8


def offset_square(uid, x0, y0, width, height):
    ring = ((x0, y0), (x0 + width, y0), (x0 + width, y0 + height), (x0, y0 + height), (x0, y0))
    return AreaUnit(id=uid, geometry=((ring,),), properties={})


class TestSnapKeys:
    def test_keys_beyond_int64_keep_units_apart(self):
        # x / pitch is about 1e21 here, past 2**63; a far unit must stay apart
        base = 1e12
        units = [
            offset_square("A", base, 0.0, 1.0, 1.0),
            offset_square("B", base + 1.0, 0.0, 1.0, 1.0),
            offset_square("C", base + 5.0, 0.0, 1.0, 1.0),
        ]
        for fast, reference in ((queen_contiguity, bucket_queen), (rook_contiguity, bucket_rook)):
            adj = fast(units, snap_tolerance=1e-9)
            assert same_adjacency(adj, reference(units, snap_tolerance=1e-9))
            assert [list(nb) for nb in adj.neighbors] == [[1], [0], []]

    def test_half_pitch_ties_round_to_even(self):
        # at pitch 1, 2.5 and 1.5 both snap to 2, and 0.5 and -0.5 both to 0
        units = [
            offset_square("A", -3.0, 0.0, 5.5, 3.0),
            offset_square("B", 1.5, 0.0, 4.5, 3.0),
            offset_square("C", -0.5, 10.0, 3.0, 3.0),
            offset_square("D", -4.0, 10.0, 4.5, 3.0),
        ]
        for fast, reference in ((queen_contiguity, bucket_queen), (rook_contiguity, bucket_rook)):
            adj = fast(units, snap_tolerance=1.0)
            assert same_adjacency(adj, reference(units, snap_tolerance=1.0))
            assert [list(nb) for nb in adj.neighbors] == [[1], [0], [3], [2]]


def reversed_rings(units):
    return [
        AreaUnit(
            id=u.id,
            geometry=tuple(tuple(ring[::-1] for ring in poly) for poly in u.geometry),
            properties={},
        )
        for u in units
    ]


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(tilings(), st.integers(0, 2**32 - 1))
    def test_unit_permutation_permutes_adjacency(self, tiling, seed):
        units, tol = tiling
        perm = np.random.default_rng(seed).permutation(len(units))
        for build in (queen_contiguity, rook_contiguity):
            dense = build(units, snap_tolerance=tol).matrix.toarray()
            moved = build([units[k] for k in perm], snap_tolerance=tol)
            assert is_canonical_pattern(moved)
            assert np.array_equal(moved.matrix.toarray(), dense[np.ix_(perm, perm)])

    @settings(max_examples=40, deadline=None)
    @given(tilings())
    def test_ring_reversal_keeps_adjacency(self, tiling):
        units, tol = tiling
        flipped = reversed_rings(units)
        for build in (queen_contiguity, rook_contiguity):
            assert same_adjacency(
                build(flipped, snap_tolerance=tol), build(units, snap_tolerance=tol)
            )


class TestWeightings:
    def test_binary_values_are_one(self):
        links = queen_contiguity(grid_units(2, 2))
        assert np.all(links.matrix.data == 1.0)

    def test_row_standardized_rows_sum_to_one(self):
        w = queen_contiguity(grid_units(3, 3)).row_standardized()
        assert np.allclose(w.toarray().sum(axis=1), 1.0)

    def test_island_row_stays_empty(self, corner_fixture):
        links = queen_contiguity(corner_fixture)
        w = links.row_standardized()
        # D is detached: no stored entry in its row, the other rows 1/degree
        assert w.indptr[4] == w.indptr[3]
        a = links.matrix.toarray()
        rowsum = a.sum(axis=1, keepdims=True)
        assert np.array_equal(w.toarray(), a / np.where(rowsum == 0, 1.0, rowsum))

    def test_csr_and_dense_agree(self):
        w = queen_contiguity(grid_units(3, 3)).row_standardized()
        a = grid_adjacency(3, 3).matrix.toarray()
        assert w.has_canonical_format
        assert np.array_equal(w.toarray(), a / a.sum(axis=1, keepdims=True))

    def test_lag_matches_dense_product(self):
        w = queen_contiguity(grid_units(3, 3)).row_standardized()
        rng = np.random.default_rng(7)
        x = rng.normal(size=9)
        assert np.allclose(w @ x, w.toarray() @ x, atol=1e-12)

    def test_lag_of_constant_is_constant(self):
        w = queen_contiguity(grid_units(3, 3)).row_standardized()
        assert np.allclose(w @ np.full(9, 3.5), 3.5)


class TestLinkChecks:
    """SpatialWeights refuses a matrix that is not a contiguity link
    pattern, naming the first unit at fault by (i, j)."""

    def test_weighted_self_inclusive_matrix_refused_before_gi_star(self):
        # gi_star used to weight the links 2 and add a second self-link,
        # and returned z-scores for that pattern without a word
        a = queen_contiguity(grid_units(5, 5)).matrix
        x = np.arange(25.0) % 7
        with pytest.raises(ValueError, match=r"unit 0 has link value 2\.0 to unit 1"):
            gi_star(SpatialWeights(matrix=2 * a + sp.identity(25, format="csr")), x)

    def test_non_square_refused(self):
        with pytest.raises(ValueError, match=r"square.*\(2, 3\)"):
            SpatialWeights(matrix=sp.csr_matrix((2, 3)))

    @pytest.mark.parametrize("value", [0.0, 0.5, 2.0, math.nan])
    def test_stored_value_other_than_one_refused(self, value):
        m = grid_adjacency(3, 3).matrix.copy()
        m.data[m.indptr[4] + 1] = value
        with pytest.raises(ValueError, match=rf"unit 4 has link value {value!r} to unit {m.indices[m.indptr[4] + 1]}"):
            SpatialWeights(matrix=m)

    def test_diagonal_refused(self):
        m = grid_adjacency(3, 3).matrix + sp.diags([0.0] * 5 + [1.0] * 4, format="csr")
        with pytest.raises(ValueError, match="unit 5 links to itself"):
            SpatialWeights(matrix=m.tocsr())

    def test_link_without_reverse_refused(self):
        m = grid_adjacency(3, 3).matrix.tolil()
        m[8, 0] = m[7, 0] = 1.0
        with pytest.raises(ValueError, match="unit 7 links to unit 0 but unit 0 does not link back to unit 7"):
            SpatialWeights(matrix=m.tocsr())

    def test_hand_built_lattice_accepted(self):
        links = SpatialWeights(matrix=grid_adjacency(4, 3).matrix.copy())
        assert links.n == 12


class TestTextFormat:
    def test_two_by_two_queen_has_twelve_links(self):
        text = write_weights(queen_contiguity(grid_units(2, 2)))
        lines = text.strip().split("\n")
        assert lines[0].split() == ["4", "row-standardized"]
        assert len(lines) - 1 == 12

    def test_round_trip_is_exact(self):
        links = queen_contiguity(grid_units(3, 3))
        text = write_weights(links)
        back = read_weights(text)
        assert same_csr(back.matrix, links.matrix)
        assert write_weights(back) == text

    def test_round_trip_keeps_island_row(self, corner_fixture):
        links = queen_contiguity(corner_fixture)
        back = read_weights(write_weights(links))
        assert same_csr(back.matrix, links.matrix)
        assert detect_islands(back) == [3]

    def test_written_weights_are_one_over_degree(self):
        links = queen_contiguity(grid_units(3, 3))
        rows = [ln.split() for ln in write_weights(links).splitlines()[1:]]
        a = grid_adjacency(3, 3).matrix.toarray()
        expected = a / a.sum(axis=1, keepdims=True)
        assert [float(w) for _, _, w in rows] == [
            expected[int(i), int(j)] for i, j, _ in rows
        ]

    def test_binary_file_reads_as_links(self):
        back = read_weights("3 binary\n0 1 1.0\n1 0 1.0\n1 2 1.0\n2 1 1.0\n")
        assert back.matrix.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert is_canonical_pattern(back)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_weights("2 binary\n0 1 1.0\n0 1 1.0\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            read_weights("2 binary\n0 5 1.0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            read_weights("2 binary\n0 1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_weights("binary 2\n")

    def test_asymmetric_link_pattern_rejected(self):
        # unit 1 links to unit 2, but unit 2 does not link back
        text = "3 binary\n0 1 1.0\n1 0 1.0\n1 2 1.0\n"
        with pytest.raises(ValueError, match="unit 2 does not link back to unit 1"):
            read_weights(text)

    def test_binary_weight_other_than_one_rejected(self):
        for bad in ("0.5", "nan"):
            text = f"2 binary\n0 1 1.0\n1 0 {bad}\n"
            with pytest.raises(ValueError, match="unit 1"):
                read_weights(text)

    def test_row_not_one_over_degree_rejected(self):
        # unit 1's row sums to 1 but is not uniform over its two links
        text = (
            "3 row-standardized\n"
            "0 1 0.5\n0 2 0.5\n1 0 0.7\n1 2 0.3\n2 0 0.5\n2 1 0.5\n"
        )
        with pytest.raises(ValueError, match="unit 1"):
            read_weights(text)

    def test_self_link_rejected(self):
        for text in (
            "2 binary\n0 1 1.0\n1 0 1.0\n1 1 1.0\n",
            "2 row-standardized\n0 1 1.0\n1 0 0.5\n1 1 0.5\n",
        ):
            with pytest.raises(ValueError, match="unit 1 links to itself"):
                read_weights(text)
