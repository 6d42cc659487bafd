"""Local clustering scores, their classification, and FDR integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from arealstat.hotspot import CLASS_ORDER, classify, gi_star
from arealstat.weights import queen_contiguity
from conftest import grid_units, torus_adjacency


def double_loop_oracle(dense_w, x):
    """Direct summation of the local statistic from the dense matrix."""
    n = len(x)
    xbar = x.mean()
    s = np.sqrt((x**2).mean() - xbar**2)
    z = np.empty(n)
    for i in range(n):
        wsum = 0.0
        wtot = 0.0
        wsq = 0.0
        for j in range(n):
            wsum += dense_w[i, j] * x[j]
            wtot += dense_w[i, j]
            wsq += dense_w[i, j] ** 2
        denom = s * np.sqrt((n * wsq - wtot**2) / (n - 1))
        z[i] = (wsum - xbar * wtot) / denom
    return z


def self_inclusive(links):
    """The statistic's weights built densely: binary links plus the unit
    itself, A + I."""
    return links.matrix.toarray() + np.eye(links.n)


def per_row_z(dense, x):
    """z as computed one row at a time, before the row sums and the
    numerator became sparse products; same centred moments."""
    n = len(x)
    xc = x - float(np.mean(x))
    xc -= float(np.mean(xc))
    s = math.sqrt(float(np.mean(xc * xc)))
    z = np.empty(n)
    for i in range(n):
        idx = np.flatnonzero(dense[i])
        w = dense[i, idx]
        wsum = float(w.sum())
        wsq = float((w * w).sum())
        num = float(w @ xc[idx])
        den = s * math.sqrt((n * wsq - wsum * wsum) / (n - 1))
        z[i] = num / den
    return z


@pytest.fixture(scope="module")
def lattice_links():
    return queen_contiguity(grid_units(6, 6))


class TestGiStar:
    def test_matches_double_loop_oracle(self, lattice_links):
        rng = np.random.default_rng(21)
        x = rng.normal(size=36)
        result = gi_star(lattice_links, x)
        expected = double_loop_oracle(self_inclusive(lattice_links), x)
        assert np.allclose(result.z, expected, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_per_row_loop(self, seed):
        links = queen_contiguity(grid_units(20, 20))
        rng = np.random.default_rng(seed)
        x = rng.lognormal(size=400) * 10.0 ** (seed - 1) + 1e3 * seed
        assert np.array_equal(gi_star(links, x).z, per_row_z(self_inclusive(links), x))

    def test_unit_permutation_permutes_z(self):
        units = grid_units(9, 7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=len(units))
        perm = rng.permutation(len(units))
        z = gi_star(queen_contiguity(units), x).z
        moved = queen_contiguity([units[k] for k in perm])
        assert np.allclose(gi_star(moved, x[perm]).z, z[perm], rtol=0, atol=1e-12)

    def test_p_is_two_sided_normal_tail(self, lattice_links):
        rng = np.random.default_rng(22)
        x = rng.normal(size=36)
        result = gi_star(lattice_links, x)
        assert np.allclose(result.p, 2 * sps.norm.sf(np.abs(result.z)), atol=1e-14)

    def test_planted_peak_is_hottest(self, lattice_links):
        x = np.zeros(36)
        # a concentrated block of large values around cell (2, 2)
        for r in (1, 2, 3):
            for c in (1, 2, 3):
                x[r * 6 + c] = 5.0
        x += np.linspace(0, 0.01, 36)  # break exact constancy elsewhere
        result = gi_star(lattice_links, x)
        assert int(np.argmax(result.z)) == 2 * 6 + 2

    def test_mean_z_vanishes_on_regular_graph(self):
        # on a wraparound lattice every unit has identical weight totals,
        # so the scores sum to zero exactly
        rng = np.random.default_rng(23)
        x = rng.normal(size=25)
        result = gi_star(torus_adjacency(5, 5), x)
        assert abs(result.z.sum()) < 1e-10

    def test_scale_and_shift_invariant(self, lattice_links):
        rng = np.random.default_rng(24)
        x = rng.normal(size=36)
        a = gi_star(lattice_links, x)
        b = gi_star(lattice_links, 100.0 * x + 7.0)
        assert np.allclose(a.z, b.z, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1e6, 1e8]),
    )
    def test_large_shift_moves_neither_z_nor_classes(
        self, lattice_links, seed, shift
    ):
        # a planted hot block keeps some classes away from "none"
        rng = np.random.default_rng(seed)
        x = rng.normal(size=36)
        for r in (1, 2, 3):
            for c in (1, 2, 3):
                x[r * 6 + c] += 3.0
        a = gi_star(lattice_links, x)
        b = gi_star(lattice_links, x + shift)
        assert np.allclose(a.z, b.z, atol=1e-6, rtol=0)
        assert a.classes == b.classes

    def test_constant_values_rejected(self, lattice_links):
        with pytest.raises(ValueError):
            gi_star(lattice_links, np.full(36, 4.0))

    def test_nan_rejected(self, lattice_links):
        x = np.zeros(36)
        x[0] = np.nan
        x[1] = 1.0
        with pytest.raises(ValueError):
            gi_star(lattice_links, x)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_named_by_unit(self, bad):
        w = queen_contiguity(grid_units(5, 5))
        x = np.arange(25.0)
        x[4] = bad
        with pytest.raises(ValueError, match=rf"non-finite value {bad} at unit 4$"):
            gi_star(w, x)

    def test_neighborhood_of_every_unit_rejected(self):
        # the centre of a 3 x 3 queen lattice neighbours all 9 units, so its
        # n * sum(w^2) - sum(w)^2 = 9 * 9 - 9^2 is 0 and z would be 0/0
        w = queen_contiguity(grid_units(3, 3))
        with pytest.raises(ValueError, match="unit 4's neighborhood holds every unit"):
            gi_star(w, np.arange(9.0))

    def test_length_mismatch_rejected(self, lattice_links):
        with pytest.raises(ValueError):
            gi_star(lattice_links, np.zeros(35))

    def test_result_arrays_aligned(self, lattice_links):
        rng = np.random.default_rng(26)
        result = gi_star(lattice_links, rng.normal(size=36))
        assert result.n == 36
        assert len(result.z) == len(result.p) == len(result.adjusted_p) == 36
        assert len(result.classes) == 36
        assert set(result.classes) <= set(CLASS_ORDER)


class TestClassify:
    def test_tier_boundaries(self):
        z = np.array([2.0, 2.0, 2.0, 2.0, -2.0, -2.0, -2.0, -2.0])
        p = np.array([0.009, 0.04, 0.09, 0.2, 0.009, 0.04, 0.09, 0.2])
        got = classify(z, p)
        assert got == [
            "hot99",
            "hot95",
            "hot90",
            "none",
            "cold99",
            "cold95",
            "cold90",
            "none",
        ]

    def test_thresholds_are_inclusive(self):
        z = np.array([1.0, 1.0, 1.0])
        p = np.array([0.01, 0.05, 0.10])
        assert classify(z, p) == ["hot99", "hot95", "hot90"]

    def test_zero_score_is_never_classified(self):
        assert classify(np.array([0.0]), np.array([0.001])) == ["none"]

    def test_tightest_tier_wins(self):
        # p qualifying for every tier lands in the 99 tier, not a looser one
        assert classify(np.array([3.0]), np.array([1e-6])) == ["hot99"]


class TestFdrIntegration:
    def test_adjustment_never_tightens_classes(self, lattice_links):
        rng = np.random.default_rng(30)
        x = rng.normal(size=36)
        result = gi_star(lattice_links, x)
        raw_classes = classify(result.z, result.p)
        tiers = {c: i for i, c in enumerate(
            ["none", "hot90", "hot95", "hot99"])}
        tiers.update({c: i for i, c in enumerate(
            ["none", "cold90", "cold95", "cold99"])})
        for adj_c, raw_c in zip(result.classes, raw_classes):
            assert tiers[adj_c] <= tiers[raw_c]

    def test_adjustment_is_level_free(self, lattice_links):
        # step-up adjusted p-values and the fixed class tiers do not move
        # with the nominal FDR level
        rng = np.random.default_rng(31)
        x = rng.normal(size=36)
        a = gi_star(lattice_links, x, fdr_alpha=0.01)
        b = gi_star(lattice_links, x, fdr_alpha=0.2)
        assert np.allclose(a.adjusted_p, b.adjusted_p)
        assert a.classes == b.classes
