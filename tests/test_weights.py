"""Contiguity detection, weight modes, and the text round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealstat.ingest import AreaUnit
from arealstat.weights import (
    detect_islands,
    lag,
    queen_contiguity,
    read_weights,
    rook_contiguity,
    to_weights,
    write_weights,
)
from conftest import grid_adjacency, grid_units, square_unit


def same_adjacency(a, b):
    return a.n == b.n and all(
        np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors)
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
        # less than a quarter of the snap pitch
        rng = np.random.default_rng(seed)
        units = grid_units(3, 3)
        tol = 0.01
        jittered = []
        for u in units:
            rings = []
            for ring in u.geometry[0]:
                rings.append(
                    tuple(
                        (x + rng.uniform(-tol / 4, tol / 4), y + rng.uniform(-tol / 4, tol / 4))
                        for x, y in ring
                    )
                )
            jittered.append(AreaUnit(id=u.id, geometry=((tuple(rings[0]),),), properties={}))
        base = queen_contiguity(units, snap_tolerance=tol)
        moved = queen_contiguity(jittered, snap_tolerance=tol)
        assert same_adjacency(base, moved)


class TestWeightModes:
    def test_binary_values_are_one(self):
        w = to_weights(queen_contiguity(grid_units(2, 2)), "binary")
        assert np.all(np.concatenate(w.values) == 1.0)

    def test_row_standardized_rows_sum_to_one(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "row-standardized")
        dense = w.to_dense()
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_include_self_adds_diagonal_before_standardizing(self):
        adj = queen_contiguity(grid_units(2, 2))
        w = to_weights(adj, "row-standardized", include_self=True)
        dense = w.to_dense()
        # every 2x2 cell touches the other three; with self that is 4 slots
        assert np.allclose(np.diag(dense), 0.25)
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_binary_include_self_has_unit_diagonal(self):
        adj = queen_contiguity(grid_units(2, 2))
        dense = to_weights(adj, "binary", include_self=True).to_dense()
        assert np.all(np.diag(dense) == 1.0)

    def test_island_row_standardization_warns_and_zeroes(self, corner_fixture):
        adj = queen_contiguity(corner_fixture)
        with pytest.warns(UserWarning, match=r"\[3\]"):
            w = to_weights(adj, "row-standardized")
        assert w.to_dense()[3].sum() == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            to_weights(queen_contiguity(grid_units(2, 2)), "whatever")

    def test_csr_and_dense_agree(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "row-standardized")
        assert np.allclose(w.to_csr().toarray(), w.to_dense())

    def test_lag_matches_dense_product(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "row-standardized")
        rng = np.random.default_rng(7)
        x = rng.normal(size=9)
        assert np.allclose(lag(w, x), w.to_dense() @ x, atol=1e-12)

    def test_lag_of_constant_is_constant(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "row-standardized")
        assert np.allclose(lag(w, np.full(9, 3.5)), 3.5)


class TestTextFormat:
    def test_two_by_two_queen_has_twelve_links(self):
        w = to_weights(queen_contiguity(grid_units(2, 2)), "row-standardized")
        text = write_weights(w)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["4", "row-standardized"]
        assert len(lines) - 1 == 12

    def test_round_trip_is_exact(self):
        w = to_weights(queen_contiguity(grid_units(3, 3)), "row-standardized")
        back = read_weights(write_weights(w))
        assert back.mode == w.mode
        assert all(np.array_equal(a, b) for a, b in zip(back.rows, w.rows))
        assert all(np.array_equal(a, b) for a, b in zip(back.values, w.values))

    def test_round_trip_infers_include_self(self):
        w = to_weights(queen_contiguity(grid_units(2, 2)), "binary", include_self=True)
        back = read_weights(write_weights(w))
        assert back.include_self

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

    def test_partial_self_links_rejected(self):
        # a self-link on unit 0 alone would mark every unit self-inclusive
        text = "2 binary\n0 0 1.0\n0 1 1.0\n1 0 1.0\n"
        with pytest.raises(ValueError, match="unit 1 has no self-link"):
            read_weights(text)

    def test_row_standardized_self_inclusive_round_trip(self):
        w = to_weights(
            queen_contiguity(grid_units(3, 3)), "row-standardized", include_self=True
        )
        back = read_weights(write_weights(w))
        assert back.include_self
        assert all(np.array_equal(a, b) for a, b in zip(back.values, w.values))
