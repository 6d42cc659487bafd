"""Geometry parsing, attribute parsing, and the id join."""

import csv
import gc
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arealstat.ingest import (
    AreaUnit,
    AreaUnits,
    AttributeTable,
    _features,
    _flatten,
    drop_missing_rows,
    merge,
    parse_attributes,
    parse_geometry,
    serialize_geometry,
    to_feature_collection,
)
from conftest import (
    feature_collection,
    multipolygon_features,
    polygon_feature,
    square_ring,
    square_unit,
)


# Reference: the per-vertex ring checks and normalization that the flat
# arrays replaced, kept verbatim so the vectorised path can be checked
# against them, except that a ring's shoelace terms are now summed exactly.
Ring = list[tuple[float, float]]


def _signed_area(ring: Ring) -> Fraction:
    # shoelace over the float terms, summed exactly; positive for
    # counterclockwise rings in planar coordinates
    terms = (Fraction(x0 * y1 - x1 * y0) for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]))
    return sum(terms, Fraction(0)) / 2


def _normalize_ring(ring: Ring, outer: bool) -> Ring:
    area = _signed_area(ring)
    if area == 0.0:
        return ring
    if outer != (area > 0.0):
        return ring[::-1]
    return ring


def _check_ring(ring, where: str) -> Ring:
    if not isinstance(ring, (list, tuple)) or len(ring) < 4:
        raise ValueError(f"{where}: ring must have at least 4 points")
    pts = []
    for pt in ring:
        if not isinstance(pt, (list, tuple)) or len(pt) < 2:
            raise ValueError(f"{where}: ring point must be an (x, y) pair")
        pts.append((float(pt[0]), float(pt[1])))
    if pts[0] != pts[-1]:
        raise ValueError(f"{where}: ring is not closed (first point != last)")
    return pts


def oracle_geometry(feature, idx):
    """One feature's geometry as the per-vertex parse built it."""
    geom = feature["geometry"]
    raw_polys = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
    return oracle_polygons(raw_polys, idx)


def oracle_polygons(raw_polys, idx):
    return tuple(
        tuple(
            tuple(_normalize_ring(_check_ring(raw_ring, f"feature {idx}"), outer=(r == 0)))
            for r, raw_ring in enumerate(raw_rings)
        )
        for raw_rings in raw_polys
    )


def bits(points):
    return np.asarray(points, dtype=float).reshape(-1, 2).view(np.int64)


def shoelace(ring):
    s = 0.0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        s += x1 * y2 - x2 * y1
    return 0.5 * s


class TestParseGeometry:
    def test_single_polygon(self):
        doc = feature_collection([polygon_feature("A", square_ring(0, 0))])
        units = parse_geometry(doc, "GEOID")
        assert len(units) == 1
        assert units[0].id == "A"
        assert len(units[0].geometry) == 1
        assert len(units[0].geometry[0]) == 1
        assert len(units[0].geometry[0][0]) == 5

    def test_multipolygon(self):
        feat = {
            "type": "Feature",
            "properties": {"GEOID": "M"},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [list(map(list, square_ring(0, 0)))],
                    [list(map(list, square_ring(3, 0)))],
                ],
            },
        }
        units = parse_geometry(feature_collection([feat]), "GEOID")
        assert len(units[0].geometry) == 2

    def test_integer_id_coerced_to_text(self):
        doc = feature_collection([polygon_feature(47157, square_ring(0, 0))])
        units = parse_geometry(doc, "GEOID")
        assert units[0].id == "47157"

    def test_float_id_rejected(self):
        doc = feature_collection([polygon_feature(1.5, square_ring(0, 0))])
        with pytest.raises(ValueError):
            parse_geometry(doc, "GEOID")

    def test_properties_preserved(self):
        doc = feature_collection(
            [polygon_feature("A", square_ring(0, 0), extra={"NAME": "tract a"})]
        )
        units = parse_geometry(doc, "GEOID")
        assert units[0].properties["NAME"] == "tract a"

    def test_outer_ring_normalized_counterclockwise(self):
        cw = list(reversed(square_ring(0, 0)))
        doc = feature_collection([polygon_feature("A", cw)])
        units = parse_geometry(doc, "GEOID")
        outer = units[0].geometry[0][0]
        assert shoelace(outer) > 0

    def test_ring_whose_area_passes_the_float_range_is_normalized(self):
        # each shoelace term is 1e308, and their sum overflows
        cw = [(x * 1e154, y * 1e154) for x, y in reversed(square_ring(0, 0))]
        units = parse_geometry(feature_collection([polygon_feature("A", cw)]), "GEOID")
        assert units[0].geometry[0][0] == tuple(reversed(cw))

    def test_hole_normalized_clockwise(self):
        outer = square_ring(0, 0, size=4.0)
        hole_ccw = square_ring(1, 1, size=1.0)  # wrong winding on purpose
        feat = {
            "type": "Feature",
            "properties": {"GEOID": "H"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [
                    list(map(list, outer)),
                    list(map(list, hole_ccw)),
                ],
            },
        }
        units = parse_geometry(feature_collection([feat]), "GEOID")
        hole = units[0].geometry[0][1]
        assert shoelace(hole) < 0

    def test_open_ring_rejected(self):
        ring = square_ring(0, 0)[:-1] + [(0.5, 0.5)]
        doc = feature_collection([polygon_feature("A", ring)])
        with pytest.raises(ValueError, match="clos"):
            parse_geometry(doc, "GEOID")

    def test_short_ring_rejected(self):
        ring = [(0, 0), (1, 0), (0, 0)]
        doc = feature_collection([polygon_feature("A", ring)])
        with pytest.raises(ValueError):
            parse_geometry(doc, "GEOID")

    def test_nonnumeric_coordinate_rejected(self):
        ring = [(0, 0), (1, 0), (1, "x"), (0, 1), (0, 0)]
        doc = feature_collection([polygon_feature("A", ring)])
        with pytest.raises(ValueError):
            parse_geometry(doc, "GEOID")

    def test_missing_id_names_feature_index(self):
        feat = polygon_feature("A", square_ring(0, 0))
        del feat["properties"]["GEOID"]
        with pytest.raises(ValueError, match="feature 0"):
            parse_geometry(feature_collection([feat]), "GEOID")

    def test_duplicate_id_names_both_features(self):
        doc = feature_collection(
            [
                polygon_feature("A", square_ring(0, 0)),
                polygon_feature("A", square_ring(2, 0)),
            ]
        )
        with pytest.raises(ValueError, match="0.*1"):
            parse_geometry(doc, "GEOID")

    def test_point_geometry_rejected(self):
        feat = {
            "type": "Feature",
            "properties": {"GEOID": "P"},
            "geometry": {"type": "Point", "coordinates": [0, 0]},
        }
        with pytest.raises(ValueError, match="Point"):
            parse_geometry(feature_collection([feat]), "GEOID")

    def test_not_a_collection(self):
        with pytest.raises(ValueError, match="FeatureCollection"):
            parse_geometry(json.dumps({"type": "Feature"}), "GEOID")

    def test_byte_order_mark_ignored(self):
        # RFC 8259 section 8.1 lets a parser ignore it
        text = feature_collection([polygon_feature("A", square_ring(0, 0))])
        units = parse_geometry(b"\xef\xbb\xbf" + text.encode("utf-8"), "GEOID")
        assert units == parse_geometry(text, "GEOID")

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_geometry("{not json", "GEOID")


class TestMatchesLoopOracle:
    @settings(max_examples=100, deadline=None)
    @given(multipolygon_features())
    def test_orientation_and_coordinates_bit_equal(self, features):
        doc = feature_collection(features)
        units = parse_geometry(doc, "GEOID")
        expected = [oracle_geometry(f, i) for i, f in enumerate(json.loads(doc)["features"])]
        assert [u.geometry for u in units] == expected
        flat = [pt for g in expected for poly in g for ring in poly for pt in ring]
        assert np.array_equal(units.xy.view(np.int64), bits(flat))

    @settings(max_examples=50, deadline=None)
    @given(multipolygon_features())
    def test_hand_built_units_get_the_same_normalization(self, features):
        hand_built = list(parse_geometry(feature_collection(features), "GEOID"))
        units = AreaUnits.of(hand_built)
        expected = [oracle_polygons(u.geometry, i) for i, u in enumerate(hand_built)]
        assert [u.geometry for u in units] == expected
        flat = [pt for g in expected for poly in g for ring in poly for pt in ring]
        assert np.array_equal(units.xy.view(np.int64), bits(flat))

    def test_take_gathers_whole_units(self):
        features = [
            {
                "type": "Feature",
                "properties": {"GEOID": "M"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [
                            list(map(list, square_ring(0, 0, 4.0))),
                            list(map(list, square_ring(1, 1))),
                        ],
                        [list(map(list, square_ring(6, 0)))],
                    ],
                },
            },
            polygon_feature("A", square_ring(9, 0)),
            polygon_feature("B", square_ring(11, 0)),
        ]
        units = parse_geometry(feature_collection(features), "GEOID")
        picked = units.take([2, 0])
        assert [u.id for u in picked] == ["B", "M"]
        assert [u.geometry for u in picked] == [units[2].geometry, units[0].geometry]
        assert picked[-1] == units[0]


def three_squares(bad=None, index=1):
    """Three disjoint unit squares; ``bad`` replaces the second point of
    feature ``index``'s ring."""
    rings = [square_ring(3.0 * i, 0) for i in range(3)]
    if bad is not None:
        rings[index][1] = bad
    return feature_collection([polygon_feature(uid, r) for uid, r in zip("ABC", rings)])


class TestCoordinateValues:
    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf), (None, 0.0)]
    )
    def test_non_finite_and_null_coordinates_rejected(self, bad):
        doc = three_squares(bad)
        assert "NaN" in doc or "Infinity" in doc or "null" in doc
        with pytest.raises(ValueError, match=r"feature 1 \('B'\) polygon 0 ring 0: .*finite"):
            parse_geometry(doc, "GEOID")

    def test_string_coordinate_named(self):
        with pytest.raises(ValueError, match=r"feature 2 \('C'\) polygon 0 ring 0: .*pair"):
            parse_geometry(three_squares((1.0, "x"), index=2), "GEOID")

    def test_numeric_string_is_refused(self):
        # float() reads "4.0", but a GeoJSON position holds numbers only
        with pytest.raises(ValueError, match=r"feature 1 \('B'\) polygon 0 ring 0: .*pair"):
            parse_geometry(three_squares(("4.0", "0")), "GEOID")

    @pytest.mark.parametrize("z_points", [range(5), [0, 4], [2]])
    def test_third_coordinate_is_dropped(self, z_points):
        # every point, or only some, carry an elevation after (x, y)
        rings = [list(map(list, square_ring(0, 0))), list(map(list, square_ring(1, 0)))]
        flat = feature_collection([polygon_feature(f"u{i}", r) for i, r in enumerate(rings)])
        for ring in rings:
            for k in z_points:
                ring[k].append(7.5)
        raised = feature_collection([polygon_feature(f"u{i}", r) for i, r in enumerate(rings)])
        assert "7.5" in raised
        got = parse_geometry(raised, "GEOID")
        want = parse_geometry(flat, "GEOID")
        assert got.xy.shape == want.xy.shape
        assert np.array_equal(got.xy, want.xy)
        assert [u.geometry for u in got] == [u.geometry for u in want]

    def test_first_bad_ring_in_document_order_is_named(self):
        outer = list(map(list, square_ring(0, 0, 4.0)))
        open_hole = list(map(list, square_ring(1, 1)[:-1] + [(1.5, 1.5)]))
        nan_ring = list(map(list, square_ring(9, 0)))
        nan_ring[2][0] = math.nan
        short = [[0, 0], [1, 0], [0, 0]]
        text_ring = list(map(list, square_ring(5, 0)))
        text_ring[1][1] = "x"
        holed = {"type": "Polygon", "coordinates": [outer, open_hole]}

        def doc(*geometries):
            return feature_collection(
                [
                    {"type": "Feature", "properties": {"GEOID": f"u{i}"}, "geometry": g}
                    for i, g in enumerate(geometries)
                ]
            )

        nan_poly = {"type": "Polygon", "coordinates": [nan_ring]}
        short_poly = {"type": "Polygon", "coordinates": [short]}
        text_poly = {"type": "Polygon", "coordinates": [text_ring]}
        multi = {"type": "MultiPolygon", "coordinates": [[outer], [nan_ring]]}
        cases = [
            (doc(nan_poly, holed), "feature 0 ('u0') polygon 0 ring 0: ring coordinates"),
            (doc(holed, nan_poly), "feature 0 ('u0') polygon 0 ring 1: ring is not closed"),
            (doc(nan_poly, short_poly), "feature 0 ('u0') polygon 0 ring 0: ring coordinates"),
            (doc(short_poly, nan_poly), "feature 0 ('u0') polygon 0 ring 0: ring must have"),
            (doc(multi, holed), "feature 0 ('u0') polygon 1 ring 0: ring coordinates"),
            (doc(nan_poly, text_poly), "feature 0 ('u0') polygon 0 ring 0: ring coordinates"),
            (doc(holed, text_poly), "feature 0 ('u0') polygon 0 ring 1: ring is not closed"),
            (doc(text_poly, nan_poly), "feature 0 ('u0') polygon 0 ring 0: ring point must"),
            (doc(holed, {"type": "Point", "coordinates": [0, 0]}), "ring 1: ring is not closed"),
        ]
        for text, message in cases:
            with pytest.raises(ValueError) as err:
                parse_geometry(text, "GEOID")
            assert message in str(err.value)
        missing_id = json.loads(doc(holed, nan_poly))
        missing_id["features"][1]["properties"] = {}
        with pytest.raises(ValueError, match="ring 1: ring is not closed"):
            parse_geometry(json.dumps(missing_id), "GEOID")

    @pytest.mark.parametrize("bad", [True, False, "0", "1.5"], ids=repr)
    def test_coordinate_that_is_not_a_number_is_refused(self, bad):
        ring = list(map(list, square_ring(3, 0)))
        ring[2][1] = bad
        text = feature_collection(
            [
                polygon_feature("u0", square_ring(0, 0)),
                {
                    "type": "Feature",
                    "properties": {"GEOID": "u1"},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [[square_ring(6, 0)], [square_ring(9, 0, 4.0), ring]],
                    },
                },
            ]
        )
        message = (
            "feature 1 ('u1') polygon 1 ring 1: "
            "ring point must be an (x, y) pair of finite numbers"
        )
        with pytest.raises(ValueError) as err:
            parse_geometry(text, "GEOID")
        assert str(err.value) == message
        hand_built = [
            AreaUnit(id="u0", geometry=((tuple(square_ring(0, 0)),),), properties={}),
            AreaUnit(
                id="u1",
                geometry=(
                    (tuple(square_ring(6, 0)),),
                    (tuple(square_ring(9, 0, 4.0)), tuple(map(tuple, ring))),
                ),
                properties={},
            ),
        ]
        with pytest.raises(ValueError) as err:
            AreaUnits.of(hand_built)
        assert str(err.value) == message

    def test_numpy_booleans_are_refused_as_coordinates(self):
        ring = [(np.True_, 0.0)] + square_ring(0, 0)[1:-1] + [(np.True_, 0.0)]
        with pytest.raises(ValueError, match=r"^feature 0 \('A'\) polygon 0 ring 0: ring point"):
            AreaUnits.of([AreaUnit(id="A", geometry=((tuple(ring),),), properties={})])

    @pytest.mark.parametrize(
        "kind", [int, float, np.int32, np.int64, np.float32, np.float64], ids=repr
    )
    def test_int_float_and_numpy_number_coordinates_are_read(self, kind):
        ring = [(kind(x), kind(y)) for x, y in square_ring(2, 1, 4)]
        got = AreaUnits.of([AreaUnit(id="A", geometry=((tuple(ring),),), properties={})])
        assert got[0].geometry == ((tuple(square_ring(2.0, 1.0, 4.0)),),)

    def test_hand_built_units_get_the_same_checks(self):
        ring = tuple(square_ring(0, 0)[:-1]) + ((0.5, 0.5),)
        with pytest.raises(ValueError, match=r"feature 0 \('A'\) polygon 0 ring 0: .*clos"):
            AreaUnits.of([AreaUnit(id="A", geometry=((ring,),), properties={})])

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["A", "A"], r"^duplicate unit id 'A' \(features 0 and 1\)$"),
            (["A", ""], r"^feature 1: id must be a non-empty string, got ''$"),
            (["A", 7], r"^feature 1: id must be a non-empty string, got 7$"),
        ],
        ids=["repeated id", "empty id", "integer id"],
    )
    def test_hand_built_units_get_the_id_checks(self, ids, message):
        units = [
            AreaUnit(id=uid, geometry=((tuple(square_ring(2.0 * i, 0)),),), properties={})
            for i, uid in enumerate(ids)
        ]
        table = parse_attributes("GEOID,v\nA,1\n", "GEOID")
        for entry in (AreaUnits.of, lambda units: merge(units, table)):
            with pytest.raises(ValueError, match=message):
                entry(units)


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "doc, fault",
        [
            (feature_collection([polygon_feature("A", square_ring(0, 0))]), None),
            ("{not json", "malformed"),
            (three_squares((math.nan, 0.0)), "finite"),
        ],
    )
    def test_parse_leaves_the_collector_as_it_found_it(self, enabled, doc, fault):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if fault is None:
                parse_geometry(doc, "GEOID")
            else:
                with pytest.raises(ValueError, match=fault):
                    parse_geometry(doc, "GEOID")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def whole_tree_parse(text: str, id_property: str) -> AreaUnits:
    """The geometry parse as it was before features were decoded one at a
    time: one json.loads of the whole document, then the same checks."""
    doc = json.loads(text)
    assert isinstance(doc, dict) and doc.get("type") == "FeatureCollection"
    assert isinstance(doc.get("features"), list)
    return _flatten(_features(doc["features"], id_property))


SQUARE = json.dumps(polygon_feature("A", square_ring(0, 0)))
HEAD = '{"type": "FeatureCollection", "features": ['


def position(before: str) -> str:
    """json's wording of the position just past the one-line text ``before``."""
    return f"line 1 column {len(before) + 1} (char {len(before)})"


PROPERTY_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def valid_documents(draw):
    """Feature collections as json.dumps writes them: the members in any
    order, with or without features and other members, in several layouts."""
    features = draw(st.one_of(st.just([]), multipolygon_features()))
    extra = draw(
        st.lists(
            st.sampled_from(
                [
                    ("bbox", [0, 0, 1, 1]),
                    ("crs", {"type": "name", "properties": {"name": "EPSG:4269"}}),
                    ("name", 'tracts "2020"\n'),
                ]
            ),
            unique_by=lambda member: member[0],
        )
    )
    properties = draw(
        st.lists(
            st.dictionaries(st.sampled_from(["ALAND", "NAME", "nested", "é"]), PROPERTY_VALUES)
        )
    )
    integer_ids = draw(st.booleans())
    layout = draw(
        st.sampled_from(
            [
                {},
                {"separators": (",", ":")},
                {"indent": 2},
                {"indent": "\t"},
                {"indent": 1, "newline": "\r\n"},
                {"indent": 0, "separators": (",", ":")},
            ]
        )
    )
    for i, (feature, props) in enumerate(zip(features, properties)):
        feature["properties"].update(props)
        if integer_ids:
            feature["properties"]["GEOID"] = 1000 + i
    members = [("type", "FeatureCollection"), ("features", features), *extra]
    # json.dumps writes the members in the drawn order
    doc = dict(draw(st.permutations(members)))
    newline = layout.pop("newline", "\n")
    text = json.dumps(doc, **layout).replace("\n", newline)
    if draw(st.booleans()):
        text = draw(st.sampled_from([" ", "\n", "\r\n\t "])) + text + "\n"
    return text


def feature_spans(text: str) -> list[tuple[int, int]]:
    """Where each feature of the valid document ``text`` starts and stops;
    no name or value but the top-level one spells ``"features"``."""
    decode = json.JSONDecoder().raw_decode
    end = text.index("[", text.index('"features"')) + 1
    spans = []
    while True:
        end = re.compile(r"[ \t\n\r,]*").match(text, end).end()
        if text.startswith("]", end):
            return spans
        _, stop = decode(text, end)
        spans.append((end, stop))
        end = stop


# the characters one edit deletes, inserts or puts in place of another
EDIT_CHARACTERS = '{}[],:" 0a'


class TestStreamedDecoder:
    """parse_geometry decodes one feature at a time; on every valid document
    it agrees with one json.loads of the whole, and it refuses malformed
    text with json's own message and position."""

    def test_repeated_features_member_refused(self):
        # json.loads keeps the last "features"; the streamed decode has
        # already handed the first list's features on, so it refuses
        text = HEAD + SQUARE + '], "features": []}'
        before = HEAD + SQUARE + "], "
        message = f'malformed geometry document: Repeated "features" member: {position(before)}'
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_geometry(text, "GEOID")
        text = '{"features": 1, "type": "FeatureCollection", "features": []}'
        with pytest.raises(ValueError, match='Repeated "features" member'):
            parse_geometry(text, "GEOID")

    @settings(max_examples=150, deadline=None)
    @given(text=valid_documents())
    def test_valid_documents_match_one_whole_tree_parse(self, text):
        got = parse_geometry(text, "GEOID")
        want = whole_tree_parse(text, "GEOID")
        assert got == want
        assert got.properties == want.properties
        assert [list(map(type, p.values())) for p in got.properties] == [
            list(map(type, p.values())) for p in want.properties
        ]

    @settings(max_examples=15, deadline=None)
    @given(text=valid_documents(), inside=st.integers(0))
    def test_one_edit_refused_as_json_does(self, text, inside):
        # every one-character edit outside the features, where the walk
        # parses, and at one drawn position; the features before the edit
        # are untouched and valid, so the walk reaches it: json refuses the
        # text, or the edit leaves valid JSON, or its feature i is faulty
        spans = feature_spans(text)
        positions = {inside % (len(text) + 1)}
        positions.update(k for k in range(len(text) + 1) if not any(a < k < b for a, b in spans))
        for k in sorted(positions):
            i = sum(stop <= k for _, stop in spans)
            edits = [text[:k] + c + text[k:] for c in EDIT_CHARACTERS]
            if k < len(text):
                edits += [text[:k] + c + text[k + 1 :] for c in ["", *EDIT_CHARACTERS]]
            for edited in edits:
                try:
                    json.loads(edited)
                    refusal = None
                except json.JSONDecodeError as exc:
                    refusal = f"malformed geometry document: {exc}"
                try:
                    parse_geometry(edited, "GEOID")
                    got = None
                except ValueError as exc:
                    got = str(exc)
                if got is None or got.startswith("malformed"):
                    assert got == refusal, edited
                elif refusal is not None:
                    assert re.match(rf"feature {i}\b|duplicate .* and {i}\)", got), edited

    def test_property_names_are_held_once(self):
        features = [
            polygon_feature(uid, square_ring(2.0 * i, 0), extra={"ALAND": i, "NAME": uid})
            for i, uid in enumerate("ABC")
        ]
        units = parse_geometry(feature_collection(features), "GEOID")
        first = list(units.properties[0])
        for props in units.properties[1:]:
            assert all(a is b for a, b in zip(first, props))

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEAD, "Expecting value: line 1 column 44 (char 43)"),
            (
                '{"features": [{"type": "Feature", "properties": {"GEOID": "A"}, "geom',
                "Unterminated string starting at: line 1 column 65 (char 64)",
            ),
            (HEAD + "]", "Expecting ',' delimiter: line 1 column 45 (char 44)"),
            (HEAD + "]} x", "Extra data: line 1 column 47 (char 46)"),
            (HEAD + "]}{}", "Extra data: line 1 column 46 (char 45)"),
            (
                '{"type": "FeatureCollection" "features": []}',
                "Expecting ',' delimiter: line 1 column 30 (char 29)",
            ),
            (
                HEAD + SQUARE + " " + SQUARE + "]}",
                "Expecting ',' delimiter: " + position(HEAD + SQUARE + " "),
            ),
            (
                '{"type": "FeatureCollection", "features" []}',
                "Expecting ':' delimiter: line 1 column 42 (char 41)",
            ),
            (
                '{"type": "FeatureCollection", features: []}',
                "Expecting property name enclosed in double quotes: line 1 column 31 (char 30)",
            ),
            ("", "Expecting value: line 1 column 1 (char 0)"),
            (
                "\ufeff{}",
                "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
            ),
            ('\n\n  {"features": [], "type": }', "Expecting value: line 3 column 28 (char 29)"),
        ],
        ids=[
            "truncated list",
            "truncated feature",
            "truncated object",
            "trailing text",
            "second document",
            "missing comma",
            "missing comma in the list",
            "missing colon",
            "unquoted name",
            "empty",
            "byte order mark in text",
            "missing value",
        ],
    )
    def test_malformed_text_refused_as_json_does(self, text, message):
        message = f"malformed geometry document: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_geometry(text, "GEOID")

    @pytest.mark.parametrize(
        "text",
        [
            HEAD + "],}",
            HEAD + "] ,\n }",
            HEAD + SQUARE + ",]}",
            HEAD + SQUARE + ", ]}",
            HEAD + SQUARE + ",\r\n\t]}",
        ],
    )
    def test_trailing_comma_refused_as_json_does(self, text):
        # Python 3.13 words it apart, at the comma rather than the bracket
        with pytest.raises(json.JSONDecodeError) as parent:
            json.loads(text)
        with pytest.raises(ValueError) as err:
            parse_geometry(text, "GEOID")
        assert str(err.value) == f"malformed geometry document: {parent.value}"

    def test_every_truncation_refused_as_json_does(self):
        features = [polygon_feature("A", square_ring(0, 0), extra={"NAME": 'a "b"'})]
        for text in (
            feature_collection(features),
            json.dumps({"features": features, "type": "FeatureCollection"}, indent=2),
        ):
            for k in range(len(text)):
                with pytest.raises(json.JSONDecodeError) as parent:
                    json.loads(text[:k])
                with pytest.raises(ValueError) as err:
                    parse_geometry(text[:k], "GEOID")
                assert str(err.value) == f"malformed geometry document: {parent.value}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "geometry document is not a FeatureCollection"),
            ("[" + HEAD + "]}]", "geometry document is not a FeatureCollection"),
            ('"FeatureCollection"', "geometry document is not a FeatureCollection"),
            ("3", "geometry document is not a FeatureCollection"),
            ('{"features": []}', "geometry document is not a FeatureCollection"),
            (
                '{"type": "Feature", "features": []}',
                "geometry document is not a FeatureCollection",
            ),
            (
                '{"features": [], "type": "featurecollection"}',
                "geometry document is not a FeatureCollection",
            ),
            ('{"type": "FeatureCollection"}', "FeatureCollection has no feature list"),
            (
                '{"type": "FeatureCollection", "features": {}}',
                "FeatureCollection has no feature list",
            ),
            (
                '{"features": null, "type": "FeatureCollection"}',
                "FeatureCollection has no feature list",
            ),
            (
                '{"type": "FeatureCollection", "features": "[]"}',
                "FeatureCollection has no feature list",
            ),
            # malformed text is reported before a wrong "type" met first
            (
                '{"type": "Feature", "features": [] x',
                "malformed geometry document: Expecting ',' delimiter",
            ),
        ],
    )
    def test_not_a_feature_collection(self, text, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse_geometry(text, "GEOID")

    def test_repeated_type_keeps_the_last_as_json_does(self):
        text = '{"type": "Feature", "features": [' + SQUARE + '], "type": "FeatureCollection"}'
        assert parse_geometry(text, "GEOID") == whole_tree_parse(text, "GEOID")
        text = HEAD + SQUARE + '], "type": "Feature"}'
        with pytest.raises(ValueError, match="not a FeatureCollection"):
            parse_geometry(text, "GEOID")

    def test_faulty_feature_reported_before_later_faults(self):
        # the feature is checked when it is decoded, before the decoder
        # reaches what follows the list; the list is streamed whatever
        # "type" says, and "type" is checked once the document is read
        faulty = json.dumps(polygon_feature("B", square_ring(2, 0)[:-1] + [(9, 9)]))
        body = "[" + SQUARE + ", " + faulty + "]"
        for text in (
            '{"features": ' + body + ', "type": "Feature"}',
            '{"type": "Feature", "features": ' + body + "}",
            '{"type": "Feature", "features": ' + body + " x",
            '{"features": ' + body + ', "type": "FeatureCollection"} x',
            HEAD + body[1:] + ", 1",
        ):
            message = r"^feature 1 \('B'\) polygon 0 ring 0: ring is not closed"
            with pytest.raises(ValueError, match=message):
                parse_geometry(text, "GEOID")


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        doc = feature_collection(
            [
                polygon_feature("A", square_ring(0, 0), extra={"NAME": "a"}),
                polygon_feature("B", square_ring(2, 0)),
            ]
        )
        units = parse_geometry(doc, "GEOID")
        units2 = parse_geometry(serialize_geometry(units), "GEOID")
        assert units == units2

    def test_out_and_back_rings_keep_their_order(self):
        # zero area, but the float terms cancel only up to rounding: summed
        # in ring order, a ring and its reverse could get the same sign and
        # the second parse would reverse the ring again
        rng = np.random.default_rng(31)
        features = []
        for i in range(2000):
            k = rng.integers(-(10**6), 10**6, int(rng.integers(3, 12)))
            path = [[1e5 + int(a) / 7.0, 1e5 + int(a) / 3.0] for a in k]
            cycle = path + path[-2:0:-1]
            # started inside the path, so that reversing changes the sequence
            start = int(rng.integers(1, len(path) - 1))
            ring = cycle[start:] + cycle[: start + 1]
            features.append(polygon_feature(f"u{i}", ring))
        units = parse_geometry(feature_collection(features), "GEOID")
        assert parse_geometry(serialize_geometry(units), "GEOID") == units

    @settings(max_examples=100, deadline=None)
    @given(multipolygon_features())
    def test_reversing_every_ring_changes_only_zero_area_rings(self, features):
        units = parse_geometry(feature_collection(features), "GEOID")
        assert parse_geometry(serialize_geometry(units), "GEOID") == units
        for f in features:
            geom = f["geometry"]
            polys = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
            for rings in polys:
                rings[:] = [ring[::-1] for ring in rings]
        flipped = parse_geometry(feature_collection(features), "GEOID")
        for a, b in zip(units, flipped):
            for poly_a, poly_b in zip(a.geometry, b.geometry):
                for ring_a, ring_b in zip(poly_a, poly_b):
                    if _signed_area(list(ring_a)) != 0:
                        assert ring_a == ring_b
                    else:
                        assert ring_a == ring_b[::-1]

    def test_serialization_is_deterministic(self):
        doc = feature_collection([polygon_feature("A", square_ring(0, 0))])
        units = parse_geometry(doc, "GEOID")
        assert serialize_geometry(units) == serialize_geometry(units)

    def test_extra_properties_attached_per_feature(self):
        doc = feature_collection(
            [
                polygon_feature("A", square_ring(0, 0)),
                polygon_feature("B", square_ring(2, 0)),
            ]
        )
        units = parse_geometry(doc, "GEOID")
        fc = to_feature_collection(units, {"score": [1.5, 2.5]})
        scores = [f["properties"]["score"] for f in fc["features"]]
        assert scores == [1.5, 2.5]


    def test_multipolygon_written_back_as_multipolygon(self):
        # as augmented.geojson writes each unit
        polygons = [
            [list(map(list, square_ring(0, 0)))],
            [list(map(list, square_ring(3, 0)))],
        ]
        multi = {
            "type": "Feature",
            "properties": {"GEOID": "M"},
            "geometry": {"type": "MultiPolygon", "coordinates": polygons},
        }
        doc = feature_collection([multi, polygon_feature("A", square_ring(0, 2))])
        fc = to_feature_collection(parse_geometry(doc, "GEOID"), {"group": [1, 2]})
        assert fc["features"][0]["geometry"] == {"type": "MultiPolygon", "coordinates": polygons}
        assert fc["features"][0]["properties"] == {"GEOID": "M", "group": 1}
        assert fc["features"][1]["geometry"] == {
            "type": "Polygon", "coordinates": [list(map(list, square_ring(0, 2)))]
        }


CSV = "GEOID,a,b\nX,1,2\nY,3,\nZ,oops,6\n"


class TestParseAttributes:
    def test_basic(self):
        table = parse_attributes(CSV, "GEOID")
        assert table.ids == ["X", "Y", "Z"]
        assert table.columns == ["a", "b"]
        assert table.column("a")[0] == 1.0

    def test_empty_and_nonnumeric_become_nan(self):
        table = parse_attributes(CSV, "GEOID")
        assert np.isnan(table.column("b")[1])
        assert np.isnan(table.column("a")[2])

    def test_missing_cells_enumerated(self):
        table = parse_attributes(CSV, "GEOID")
        cells = table.missing_cells()
        assert (1, "b") in cells and (2, "a") in cells
        assert len(cells) == 2

    def test_unknown_column_keyerror(self):
        table = parse_attributes(CSV, "GEOID")
        with pytest.raises(KeyError):
            table.column("nope")

    def test_missing_id_column(self):
        with pytest.raises(ValueError, match="GEOID"):
            parse_attributes("a,b\n1,2\n", "GEOID")

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_attributes("GEOID,a\nX,1\nX,2\n", "GEOID")

    def test_empty_id(self):
        with pytest.raises(ValueError):
            parse_attributes("GEOID,a\n,1\n", "GEOID")

    def test_ragged_row(self):
        with pytest.raises(ValueError):
            parse_attributes("GEOID,a,b\nX,1\n", "GEOID")

    @pytest.mark.parametrize(
        "text, line, problem",
        [
            # a bare carriage return ends no line for the reader
            ("GEOID,a\nX,1\nY,2\rZ,3\n", 3, "new-line character"),
            ("GEOID,a\rX,1\n", 1, "new-line character"),
            (
                'GEOID,a\nX,"1\n2"\nY,' + "9" * (csv.field_size_limit() + 1) + "\n",
                4,
                "field larger than field limit",
            ),
            # a blank line is skipped but counted
            ("GEOID,a\nX,1\n\nY\n", 4, "ragged row, expected 2 cells, got 1$"),
            ("GEOID,a\nX,1\n\n,2\n", 4, "empty id$"),
            # a row holding a quoted line break is named by its last line
            ('GEOID,a\nX,"1\n2"\nX,3\n', 4, r"duplicate id 'X' \(lines 3 and 4\)$"),
        ],
        ids=[
            "bare CR in a row",
            "bare CR in the header",
            "cell past the field limit",
            "ragged row",
            "empty id",
            "repeated id",
        ],
    )
    def test_tokeniser_error_names_line(self, text, line, problem):
        with pytest.raises(ValueError, match=f"^attribute table line {line}: {problem}"):
            parse_attributes(text, "GEOID")

    def test_bytes_input(self):
        table = parse_attributes(CSV.encode("utf-8"), "GEOID")
        assert table.n == 3

    def test_byte_order_mark_ignored(self):
        # spreadsheet "CSV UTF-8" exports start with one
        table = parse_attributes(b"\xef\xbb\xbf" + CSV.encode("utf-8"), "GEOID")
        assert table.ids == ["X", "Y", "Z"]
        assert table.columns == ["a", "b"]

    @pytest.mark.parametrize(
        "header, name",
        [("GEOID,a,b,GEOID", "GEOID"), ("GEOID,a,a", "a"), ("a,GEOID,b,a", "a")],
    )
    def test_repeated_column_named(self, header, name):
        # refused from the header alone: the ragged row below is never read
        text = f"{header}\n1,10\n".encode("utf-8")
        with pytest.raises(ValueError, match=f"names column {name!r} twice"):
            parse_attributes(text, "GEOID")


# Reference: the per-cell conversion that parse_attributes replaced: strip
# the cell, take a blank one as missing, else float(), plus 0.0 so that a
# -0 cell reads as 0.
def oracle_attributes(text: str, id_column: str):
    header, *rows = csv.reader(io.StringIO(text))
    id_idx = header.index(id_column)
    ids, values = [], []
    for row in rows:
        if not row:
            continue
        ids.append(row[id_idx])
        parsed = []
        for j, cell in enumerate(row):
            if j == id_idx:
                continue
            token = cell.strip()
            if not token:
                parsed.append(math.nan)
                continue
            try:
                parsed.append(float(token) + 0.0)
            except ValueError:
                parsed.append(math.nan)
        values.append(parsed)
    return ids, [c for c in header if c != id_column], values


# Unicode spaces (which float() and str.strip() both drop), a line feed
# (which makes csv.writer quote the cell) and U+001C and U+001F, which
# str.strip() drops and float() refuses
PADDING = st.text(st.sampled_from(" \t\n\x0b\x1c\x1f\x85\xa0\u2003\u2028\u3000"), max_size=3)
CELLS = st.one_of(
    st.builds(
        lambda left, x, right: left + x + right,
        PADDING,
        st.one_of(st.floats().map(repr), st.integers().map(str)),
        PADDING,
    ),
    st.sampled_from([
        "", " ", "\u3000", "nan", "-NaN", "inf", "-Infinity", "1e999", "1_000",
        "1__000", "_1", "1_", "0x10", "\u0661\u0662", "1,5", "1.5.", "abc", "\x00", "1\x1e",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)


class TestParseAttributesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    # ``data`` is a literal list of rows in an example, drawn otherwise
    @example(width=0, id_at=0, data=[])
    @example(width=1, id_at=1, data=[["-0.0"]])
    def test_matches_per_cell_parse(self, width, id_at, data):
        id_at = min(id_at, width)
        header = [f"c{j}" for j in range(width)]
        header.insert(id_at, "GEOID")
        if not isinstance(data, list):
            cells = st.lists(CELLS, min_size=width, max_size=width)
            data = data.draw(st.lists(cells, max_size=5))
        rows = [row[:id_at] + [f"u{i}"] + row[id_at:] for i, row in enumerate(data)]
        out = io.StringIO()
        csv.writer(out).writerows([header] + rows)
        text = out.getvalue()
        ids, columns, values = oracle_attributes(text, "GEOID")
        for parsed in (
            parse_attributes(text, "GEOID"),
            parse_attributes(b"\xef\xbb\xbf" + text.encode("utf-8"), "GEOID"),
        ):
            assert parsed.ids == ids
            assert parsed.columns == columns
            want = np.array(values, dtype=float).reshape(len(ids), width)
            assert parsed.values.shape == want.shape
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(parsed.values), nan)
            assert np.array_equal(parsed.values[~nan].view(np.int64), want[~nan].view(np.int64))

    # tables longer than a conversion block, so a column is converted in
    # pieces, and the piece with the bad cell is redone cell by cell
    @pytest.mark.parametrize(
        "text_cell, bad_cell",
        [(lambda i: f"tract {i}", None), (lambda i: repr(i / 7), (300, "n/a"))],
        ids=["all-text column", "one bad cell"],
    )
    def test_long_table_matches_per_cell_parse(self, text_cell, bad_cell):
        rng = np.random.default_rng(3)
        lines = ["GEOID,a,t,b"]
        for i in range(700):
            a, b = (repr(float(x)) for x in rng.normal(size=2))
            lines.append(f"u{i}, {a},{text_cell(i)},{b}\t")
        if bad_cell is not None:
            row, cell = bad_cell
            lines[1 + row] = lines[1 + row].rsplit(",", 1)[0] + "," + cell
        text = "\n".join(lines) + "\n"
        ids, columns, values = oracle_attributes(text, "GEOID")
        parsed = parse_attributes(text, "GEOID")
        assert parsed.ids == ids
        assert parsed.columns == columns
        want = np.array(values, dtype=float)
        assert np.array_equal(parsed.values.view(np.int64), want.view(np.int64))


def _units(ids):
    return parse_geometry(
        feature_collection(
            [polygon_feature(u, square_ring(2.0 * i, 0)) for i, u in enumerate(ids)]
        ),
        "GEOID",
    )


def _table(ids, column="v"):
    rows = "\n".join(f"{u},{i}" for i, u in enumerate(ids))
    return parse_attributes(f"GEOID,{column}\n{rows}\n", "GEOID")


SIDES = ["both", "geometry", "table"]


class TestMerge:
    def test_inner_join_puts_units_in_id_order(self):
        dataset = merge(_units(["B", "C", "A"]), _table(["C", "A", "B"]))
        assert [u.id for u in dataset.units] == ["A", "B", "C"]
        assert dataset.units == _units(["B", "C", "A"]).take([2, 0, 1])
        assert dataset.table.ids == ["A", "B", "C"]
        assert dataset.table.column("v").tolist() == [1.0, 2.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=3), st.sampled_from(SIDES)),
            min_size=1, max_size=10, unique_by=lambda t: t[0],
        ).filter(lambda ids: any(side == "both" for _, side in ids)),
        st.randoms(use_true_random=False),
    )
    def test_any_input_order_gives_one_dataset(self, sides, rnd):
        # each id keeps its own square and value, wherever its row is
        geo = [(k, u) for k, (u, side) in enumerate(sides) if side != "table"]
        tab = [(k, u) for k, (u, side) in enumerate(sides) if side != "geometry"]

        def joined(geo, tab):
            units = AreaUnits.of([square_unit(u, 2.0 * k, 0.0) for k, u in geo])
            values = np.array([[float(k), -0.5 * k] for k, _ in tab])
            return merge(units, AttributeTable([u for _, u in tab], ["v", "w"], values))

        plain = joined(geo, tab)
        assert plain.table.ids == sorted(plain.table.ids)
        rnd.shuffle(geo)
        rnd.shuffle(tab)
        moved = joined(geo, tab)
        assert moved.units == plain.units
        assert moved.table.ids == plain.table.ids
        assert moved.table.columns == plain.table.columns
        assert np.array_equal(moved.table.values, plain.table.values)
        assert moved.dropped_geometry_ids == plain.dropped_geometry_ids
        assert moved.dropped_table_ids == plain.dropped_table_ids
        assert moved.dropped_geometry_ids == sorted(u for u, side in sides if side == "geometry")
        assert moved.dropped_table_ids == sorted(u for u, side in sides if side == "table")

    @pytest.mark.parametrize(
        "order", ["geometry", "shuffled", "one extra", "one extra, one missing"]
    )
    def test_join_matches_lookup_by_id(self, order):
        ids = [f"u{k}" for k in range(6)]
        table_ids = {
            "geometry": ids,
            "shuffled": [ids[k] for k in (3, 0, 5, 1, 4, 2)],
            "one extra": ids + ["x"],
            "one extra, one missing": ids[:2] + ids[3:] + ["x"],
        }[order]
        value = {u: float(10 * k) for k, u in enumerate(ids)}
        rows = "".join(f"{u},{value.get(u, -1.0)!r}\n" for u in table_ids)
        units = _units(ids)
        dataset = merge(units, parse_attributes(f"GEOID,v\n{rows}", "GEOID"))
        kept = [u for u in ids if u in table_ids]
        assert dataset.units == units.take([ids.index(u) for u in kept])
        assert dataset.table.ids == kept
        assert dataset.table.column("v").tolist() == [value[u] for u in kept]
        assert dataset.dropped_geometry_ids == [u for u in ids if u not in table_ids]
        assert dataset.dropped_table_ids == [u for u in table_ids if u not in ids]

    def test_aligned_join_gathers_nothing(self):
        units, table = _units(["A", "B", "C"]), _table(["A", "B", "C"])
        dataset = merge(units, table)
        assert dataset.units is units and dataset.table is table

    def test_dropped_sides_reported(self):
        dataset = merge(_units(["A", "B", "X"]), _table(["A", "B", "Y"]))
        assert dataset.dropped_geometry_ids == ["X"]
        assert dataset.dropped_table_ids == ["Y"]
        assert dataset.dropped_ids == ["X", "Y"]

    def test_fail_policy_raises_and_names_ids(self):
        with pytest.raises(ValueError, match="X"):
            merge(
                _units(["A", "X"]),
                _table(["A"]),
                policy="fail-on-any-unmatched",
            )

    def test_empty_intersection_always_fatal(self):
        with pytest.raises(ValueError):
            merge(_units(["A"]), _table(["B"]))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            merge(_units(["A"]), _table(["A"]), policy="whatever")


class TestDropMissingRows:
    def test_rows_with_nan_in_named_columns_go(self):
        units = _units(["A", "B", "C"])
        table = parse_attributes("GEOID,v,w\nA,1,5\nB,,6\nC,3,\n", "GEOID")
        dataset = merge(units, table)
        reduced, dropped = drop_missing_rows(dataset, ["v"])
        assert dropped == ["B"]
        assert [u.id for u in reduced.units] == ["A", "C"]

    def test_nan_outside_named_columns_tolerated(self):
        units = _units(["A", "B"])
        table = parse_attributes("GEOID,v,w\nA,1,\nB,2,7\n", "GEOID")
        reduced, dropped = drop_missing_rows(merge(units, table), ["v"])
        assert dropped == []
        assert reduced.n == 2

    def test_unknown_column(self):
        units = _units(["A"])
        table = _table(["A"])
        with pytest.raises(KeyError):
            drop_missing_rows(merge(units, table), ["nope"])
