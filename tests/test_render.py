"""Deterministic vector maps: binning, palettes, and document structure."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings

from arealstat.hotspot import CLASS_ORDER
from arealstat.ingest import AreaUnit, AreaUnits, parse_geometry
from arealstat.render import (
    _MAP_BOTTOM,
    _MAP_TOP,
    _PAD,
    _WIDTH,
    HOTSPOT_PALETTE,
    SEQUENTIAL_REDS,
    _unit_paths,
    quantile_bins,
    render_choropleth,
)
from conftest import feature_collection, grid_units, multipolygon_features

# Reference: the per-vertex transform and path text that the array
# expressions replaced, kept verbatim so the new path can be checked
# against them.
def _transform(units: list[AreaUnit]):
    xs, ys = [], []
    for u in units:
        for poly in u.geometry:
            for x, y in poly[0]:
                xs.append(x)
                ys.append(y)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    dx = maxx - minx
    dy = maxy - miny
    map_w = _WIDTH - 2 * _PAD
    map_h = _MAP_BOTTOM - _MAP_TOP
    if dx == 0 and dy == 0:
        scale = 1.0
    else:
        sx = map_w / dx if dx > 0 else np.inf
        sy = map_h / dy if dy > 0 else np.inf
        scale = min(sx, sy)
    offx = _PAD + 0.5 * (map_w - dx * scale)
    offy = _MAP_TOP + 0.5 * (map_h - dy * scale)

    def tf(x: float, y: float) -> tuple[float, float]:
        return offx + (x - minx) * scale, offy + (maxy - y) * scale

    return tf


def _unit_path(unit: AreaUnit, tf) -> str:
    parts = []
    for poly in unit.geometry:
        for ring in poly:
            pts = ring[:-1]
            words = []
            for k, (x, y) in enumerate(pts):
                px, py = tf(x, y)
                words.append(f"{'M' if k == 0 else 'L'} {px:.3f} {py:.3f}")
            words.append("Z")
            parts.append(" ".join(words))
    return " ".join(parts)

NS = {"svg": "http://www.w3.org/2000/svg"}


def parse(svg_text):
    return ET.fromstring(svg_text)


def paths_of(root):
    return [el for el in root.iter() if el.tag.endswith("path")]


class TestQuantileBins:
    def test_four_distinct_values(self):
        bins, edges = quantile_bins(np.array([1.0, 2.0, 3.0, 4.0]))
        assert bins.tolist() == [0, 1, 3, 4]
        assert len(edges) == 4
        assert np.allclose(edges, np.quantile([1, 2, 3, 4], [0.2, 0.4, 0.6, 0.8]))

    def test_bins_monotone_in_value(self):
        rng = np.random.default_rng(100)
        v = rng.normal(size=50)
        bins, _ = quantile_bins(v)
        order = np.argsort(v)
        assert np.all(np.diff(bins[order]) >= 0)

    def test_bins_in_range(self):
        rng = np.random.default_rng(101)
        bins, _ = quantile_bins(rng.normal(size=33))
        assert bins.min() >= 0 and bins.max() <= 4

    def test_balanced_on_uniform_data(self):
        bins, _ = quantile_bins(np.arange(100.0))
        counts = np.bincount(bins, minlength=5)
        assert counts.min() >= 15


class TestChoropleth:
    def test_quantile_document_structure(self):
        units = grid_units(3, 3)
        values = np.arange(9.0)
        svg = render_choropleth(units, values, kind="quantile", title="level")
        root = parse(svg)
        assert len(paths_of(root)) == 9
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "level" in texts

    def test_quantile_legend_has_five_entries(self):
        units = grid_units(3, 3)
        svg = render_choropleth(units, np.arange(9.0), kind="quantile")
        root = parse(svg)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        swatches = [r for r in rects if r.get("width") == "16"]
        assert len(swatches) == 5
        assert {s.get("fill") for s in swatches} == set(SEQUENTIAL_REDS)

    def test_unit_ids_become_tooltips(self):
        units = grid_units(2, 2)
        svg = render_choropleth(units, np.arange(4.0), kind="quantile")
        root = parse(svg)
        titles = [t.text for t in root.iter() if t.tag.endswith("title")]
        for u in units:
            assert u.id in titles

    def test_hotspot_palette_and_legend(self):
        units = grid_units(3, 3)
        classes = ["hot99", "none", "cold95", "none", "hot90", "none", "none", "cold99", "none"]
        svg = render_choropleth(units, classes, kind="hotspot")
        root = parse(svg)
        fills = {p.get("fill") for p in paths_of(root)}
        assert HOTSPOT_PALETTE["hot99"] in fills
        assert HOTSPOT_PALETTE["cold99"] in fills
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        swatches = [r for r in rects if r.get("width") == "16"]
        assert len(swatches) == len(CLASS_ORDER)

    def test_unknown_hotspot_class_rejected(self):
        units = grid_units(2, 2)
        with pytest.raises(ValueError):
            render_choropleth(units, ["hot99", "nope", "none", "none"], kind="hotspot")

    def test_group_layout(self):
        units = grid_units(2, 2)
        svg = render_choropleth(units, np.array([1, 2, 1, 3]), kind="group")
        root = parse(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        for label in ("group 1", "group 2", "group 3"):
            assert label in texts

    def test_deterministic_output(self):
        units = grid_units(3, 3)
        values = np.linspace(-2, 2, 9)
        a = render_choropleth(units, values, kind="quantile", title="t")
        b = render_choropleth(units, values, kind="quantile", title="t")
        assert a == b

    def test_escapes_markup_in_ids_and_title(self):
        units = grid_units(2, 2)
        renamed = [
            type(u)(id=f"<{u.id}>&", geometry=u.geometry, properties={})
            for u in units
        ]
        svg = render_choropleth(renamed, np.arange(4.0), kind="quantile", title="a<b&c")
        parse(svg)  # must stay well-formed

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            render_choropleth([], np.array([]), kind="quantile")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_choropleth(grid_units(2, 2), np.arange(3.0), kind="quantile")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            render_choropleth(grid_units(2, 2), np.arange(4.0), kind="heat")

    def test_custom_quantile_palette_must_have_five_colors(self):
        units = grid_units(2, 2)
        with pytest.raises(ValueError):
            render_choropleth(
                units, np.arange(4.0), kind="quantile", palette=["#fff", "#000"]
            )


class TestPathText:
    @settings(max_examples=100, deadline=None)
    @given(multipolygon_features())
    def test_path_text_equals_loop_oracle(self, features):
        units = parse_geometry(feature_collection(features), "GEOID")
        views = list(units)
        tf = _transform(views)
        assert _unit_paths(units) == [_unit_path(u, tf) for u in views]

    def test_path_text_is_built_once_per_container(self):
        units = AreaUnits.of(grid_units(3, 3))
        first = render_choropleth(units, np.arange(9.0), kind="quantile")
        paths = units.memo("svg_paths", _unit_paths)
        second = render_choropleth(units, np.arange(9.0)[::-1], kind="quantile")
        assert units.memo("svg_paths", _unit_paths) is paths
        assert all(d in first and d in second for d in paths)
