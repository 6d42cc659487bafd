"""Reading and joining areal geometry and attribute data.

Geometry arrives as RFC 7946 feature collections restricted to Polygon and
MultiPolygon features; attributes arrive as comma-delimited text with a
header row.  The two sources are joined on a shared unit identifier, with
unmatched units either dropped (and reported) or treated as fatal.

Geometry is stored once, in a flat ragged layout (GeoArrow's): every ring
vertex in one (V, 2) float64 array, cut into rings, polygons and units by
three offset arrays.  Within a polygon ring 0 is the outer ring, normalized
counterclockwise, and holes are clockwise.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json.decoder import JSONDecodeError, scanstring
from numbers import Real

import numpy as np

__all__ = [
    "AreaUnit",
    "AreaUnits",
    "AttributeTable",
    "MergedDataset",
    "parse_geometry",
    "serialize_geometry",
    "to_feature_collection",
    "parse_attributes",
    "merge",
    "drop_missing_rows",
]


@dataclass(frozen=True)
class AreaUnit:
    """One areal unit: an id, polygons -> rings -> (x, y) tuples, and its raw properties."""

    id: str
    geometry: tuple
    properties: dict = field(compare=False)


@dataclass(eq=False)
class AreaUnits:
    """Areal units with their geometry in flat read-only arrays.

    Unit i owns polygons ``unit_offsets[i]:unit_offsets[i + 1]``, polygon p
    rings ``polygon_offsets[p]:polygon_offsets[p + 1]`` and ring r rows
    ``ring_offsets[r]:ring_offsets[r + 1]`` of ``xy``; a ring repeats its
    first vertex last.  Indexing and iteration give :class:`AreaUnit` views
    built on demand.  Units are equal when their ids and geometry are.
    """

    ids: list[str]
    properties: list[dict]
    xy: np.ndarray
    ring_offsets: np.ndarray
    polygon_offsets: np.ndarray
    unit_offsets: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for a in self._arrays():
            a.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.xy, self.ring_offsets, self.polygon_offsets, self.unit_offsets

    @classmethod
    def of(cls, units) -> AreaUnits:
        """``units`` itself if it is an AreaUnits; an iterable of AreaUnit
        goes through the checks and normalization of :func:`parse_geometry`,
        the unit-id rules included: each id a non-empty string, none
        repeated."""
        if isinstance(units, cls):
            return units
        return _flatten((u.id, u.properties, u.geometry) for u in units)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> AreaUnit:
        return next(iter(self.take([range(len(self.ids))[i]])))

    def __iter__(self):
        coords = list(map(tuple, self.xy.tolist()))
        for uid, polys, props in zip(self.ids, self._nested(coords), self.properties):
            yield AreaUnit(uid, tuple(tuple(map(tuple, p)) for p in polys), props)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AreaUnits):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays())
        )

    def _nested(self, coords: list) -> list[list[list[list]]]:
        """Per unit, its polygons as lists of rings, each ring a slice of
        ``coords`` (one entry per row of ``xy``)."""
        ring, poly, unit = (a.tolist() for a in self._arrays()[1:])
        rings = [coords[a:b] for a, b in zip(ring[:-1], ring[1:])]
        polys = [rings[a:b] for a, b in zip(poly[:-1], poly[1:])]
        return [polys[a:b] for a, b in zip(unit[:-1], unit[1:])]

    def take(self, index) -> AreaUnits:
        """The units at the integer positions ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        polygons, unit_offsets = _gather(self.unit_offsets, index)
        rings, polygon_offsets = _gather(self.polygon_offsets, polygons)
        vertices, ring_offsets = _gather(self.ring_offsets, rings)
        return AreaUnits(
            [self.ids[i] for i in index.tolist()],
            [self.properties[i] for i in index.tolist()],
            self.xy[vertices], ring_offsets, polygon_offsets, unit_offsets,
        )

    def memo(self, key: str, build):
        """``build(self)``, computed once per container (the arrays are read-only)."""
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]


def _gather(offsets: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The members of the groups ``index``, in order, and their offsets."""
    starts = offsets[index]
    counts = offsets[index + 1] - starts
    new = np.concatenate([[0], np.cumsum(counts)])
    return np.arange(new[-1]) + np.repeat(starts - new[:-1], counts), new


@dataclass(eq=False)
class AttributeTable:
    """Numeric attribute matrix keyed by unit id.

    Missing cells (empty or non-numeric tokens in the source) are stored as
    NaN and enumerable through :meth:`missing_cells`.
    """

    ids: list[str]
    columns: list[str]
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no attribute column named {name!r}") from None
        return self.values[:, j]

    def take(self, index) -> AttributeTable:
        """The rows at the integer positions ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        ids = [self.ids[i] for i in index.tolist()]
        return AttributeTable(ids, list(self.columns), self.values[index])

    def missing_cells(self) -> list[tuple[int, str]]:
        """(row index, column name) pairs for every flagged-missing cell."""
        rows, cols = np.nonzero(np.isnan(self.values))
        return [(int(i), self.columns[j]) for i, j in zip(rows, cols)]


@dataclass(eq=False)
class MergedDataset:
    """Geometry and attributes aligned on id, in id order (see :func:`merge`)."""

    units: AreaUnits
    table: AttributeTable
    dropped_geometry_ids: list[str]
    dropped_table_ids: list[str]

    @property
    def dropped_ids(self) -> list[str]:
        """Ids present in exactly one source, geometry side first."""
        return list(self.dropped_geometry_ids) + list(self.dropped_table_ids)

    @property
    def n(self) -> int:
        return len(self.units)


def _real(kind: type) -> bool:
    # int, float, Fraction and numpy's ints and floats; not bool or str,
    # although float() takes them
    return issubclass(kind, Real) and kind is not bool


def _as_xy(points: list) -> np.ndarray | None:
    """``points`` as a (V, 2) float64 array, each coordinate converted as
    float() does; None if some point is not an (x, y) pair of real numbers."""
    if not set(map(type, points)) <= {list, tuple} and not all(
        isinstance(pt, (list, tuple)) for pt in points
    ):
        return None
    lengths = set(map(len, points))
    if lengths and min(lengths) < 2:
        return None
    if lengths - {2}:
        points = [pt[:2] for pt in points]
    coords = list(chain.from_iterable(points))
    if not all(map(_real, set(map(type, coords)))):
        return None
    try:
        return np.fromiter(coords, float, count=len(coords)).reshape(-1, 2)
    except OverflowError:
        return None


def _checked_xy(points: list, ids: list, rings: list, polygons: list, units: list) -> np.ndarray:
    """All ``points`` as one (V, 2) array.  Refuses the first ring, in
    document order, with a point that is not an (x, y) pair of finite
    numbers or with different first and last points.  ``rings``,
    ``polygons`` and ``units`` are the offsets so far; the last polygon and
    unit may be open."""

    def refuse(k: int, problem: str):
        p = bisect_right(polygons, k) - 1
        u = bisect_right(units, p) - 1
        where = f"feature {u} ({ids[u]!r}) polygon {p - units[u]} ring {k - polygons[p]}"
        raise ValueError(f"{where}: {problem}")

    xy = _as_xy(points)
    if xy is None:
        k = next(
            k for k in range(len(rings) - 1) if _as_xy(points[rings[k] : rings[k + 1]]) is None
        )
        _checked_xy(points[: rings[k]], ids, rings[: k + 1], polygons, units)
        refuse(k, "ring point must be an (x, y) pair of finite numbers")
    if len(rings) > 1:
        ends = np.asarray(rings)
        nonfinite = np.logical_or.reduceat(~np.isfinite(xy).all(axis=1), ends[:-1])
        bad = nonfinite | (xy[ends[:-1]] != xy[ends[1:] - 1]).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            if nonfinite[k]:
                refuse(k, "ring coordinates must be finite numbers")
            refuse(k, "ring is not closed (first point != last)")
    return xy


def _oriented(xy: np.ndarray, ring_offsets: np.ndarray, polygon_offsets: np.ndarray) -> np.ndarray:
    """``xy`` with outer rings counterclockwise and holes clockwise;
    zero-area rings keep their order.

    A ring's orientation is the sign of the exact sum of its shoelace terms,
    so reversing a ring, which negates each term, negates the sum exactly,
    and a normalized ring is never reversed again.  The float sum settles
    the sign wherever it exceeds its rounding bound, (len + 1) eps times
    the sum of the terms' magnitudes in any order; ``math.fsum`` settles
    the rest.
    """
    starts, lengths = ring_offsets[:-1], np.diff(ring_offsets)
    if not len(starts):
        return xy
    # coordinates past 1e154 overflow the terms; such rings go to fsum below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = xy[:-1, 0] * xy[1:, 1] - xy[1:, 0] * xy[:-1, 1]
        # each ring's sum ends with a zero in place of the step to the next ring
        terms[ring_offsets[1:-1] - 1] = 0.0
        total = np.add.reduceat(terms, starts)
        bound = (lengths + 1) * np.finfo(float).eps * np.add.reduceat(np.abs(terms), starts)
    for r in np.flatnonzero(~(np.abs(total) > bound)).tolist():
        try:
            total[r] = math.fsum(terms[starts[r] : starts[r] + lengths[r] - 1].tolist())
        except (OverflowError, ValueError):
            pass  # a sum past the float range: the float sum's sign stands
    outer = np.zeros(len(starts), dtype=bool)
    outer[polygon_offsets[:-1]] = True
    flip = np.repeat(np.where(outer, total < 0.0, total > 0.0), lengths)
    index = np.arange(len(xy))
    mirror = np.repeat(starts + ring_offsets[1:] - 1, lengths) - index
    return xy[np.where(flip, mirror, index)] if flip.any() else xy


def _flatten(features) -> AreaUnits:
    """Check (id, properties, polygons) triples and store them as AreaUnits.

    Each id must be a non-empty string that no earlier feature holds.  Ids
    and structure are checked as each feature arrives.  The points are
    converted and checked together after the last feature, or when a fault
    stops the walk, so the first faulty ring in document order is reported.
    """
    ids, properties, points = [], [], []
    rings, polygons, units = [0], [0], [0]
    seen: dict[str, int] = {}
    try:
        for idx, (uid, props, raw_polys) in enumerate(features):
            if not (isinstance(uid, str) and uid):
                raise ValueError(f"feature {idx}: id must be a non-empty string, got {uid!r}")
            if uid in seen:
                raise ValueError(f"duplicate unit id {uid!r} (features {seen[uid]} and {idx})")
            seen[uid] = idx
            ids.append(uid)
            properties.append(props)
            if not isinstance(raw_polys, (list, tuple)) or not raw_polys:
                raise ValueError(f"feature {idx} ({uid!r}): empty geometry")
            for p, raw_rings in enumerate(raw_polys):
                if not isinstance(raw_rings, (list, tuple)) or not raw_rings:
                    raise ValueError(f"feature {idx} ({uid!r}): polygon {p} has no rings")
                for r, ring in enumerate(raw_rings):
                    if not isinstance(ring, (list, tuple)) or len(ring) < 4:
                        raise ValueError(
                            f"feature {idx} ({uid!r}) polygon {p} ring {r}: "
                            "ring must have at least 4 points"
                        )
                    points += ring
                    rings.append(len(points))
                polygons.append(len(rings) - 1)
            units.append(len(polygons) - 1)
    except ValueError:
        _checked_xy(points, ids, rings, polygons, units)
        raise
    xy = _checked_xy(points, ids, rings, polygons, units)
    rings, polygons, units = (np.asarray(a, dtype=np.int64) for a in (rings, polygons, units))
    return AreaUnits(ids, properties, _oriented(xy, rings, polygons), rings, polygons, units)


def _features(features, id_property: str):
    """(id, properties, polygons) of each GeoJSON feature, its shape checked
    in turn; the id rules are :func:`_flatten`'s.  Each property name is
    kept once, however many features hold it."""
    share = {}.setdefault
    for idx, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise ValueError(f"feature {idx} is not an object")
        props = feat.get("properties") or {}
        if id_property not in props:
            raise ValueError(f"feature {idx} is missing id property {id_property!r}")
        uid = props[id_property]
        if isinstance(uid, bool) or not isinstance(uid, (str, int)):
            raise ValueError(
                f"feature {idx}: id property must be a string or integer, got {type(uid).__name__}"
            )
        uid = str(uid)
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ValueError(
                f"feature {idx} ({uid!r}): geometry type must be Polygon or "
                f"MultiPolygon, got {gtype!r}"
            )
        coords = geom.get("coordinates")
        kept = {}
        for name, value in props.items():
            kept[share(name, name)] = value
        yield uid, kept, [coords] if gtype == "Polygon" else coords


# JSON's insignificant whitespace
_skip = re.compile(r"[ \t\n\r]*").match


def _elements(text: str, end: int, decode):
    """Yield each element of the JSON array whose ``[`` is just before
    ``end``, as soon as it is decoded; returns the index past the ``]``, or
    None at a token that cannot stand where it does."""
    end = _skip(text, end).end()
    if text.startswith("]", end):
        return end + 1
    while True:
        value, end = decode(text, end)
        yield value
        if text.startswith(", {", end):  # json.dumps's separator between objects
            end += 2
            continue
        end = _skip(text, end).end()
        if not text.startswith(",", end):
            return end + 1 if text.startswith("]", end) else None
        end = _skip(text, end + 1).end()


def _collection_features(text: str):
    """Yield the elements of a FeatureCollection's ``"features"`` list, each
    as soon as it is decoded.

    The top-level object is walked member by member, and json's own
    scanner decodes each name and value.  The walk follows valid text only:
    at a token it does not expect, or an error of the scanner, it stops, and
    ``json.loads`` of the whole text raises json's own message and position.
    A ``"features"`` list is always streamed, wherever ``"type"`` stands
    and whatever it says; ``"type"`` is checked once the walk is done, its
    last value counting, as in ``json.loads``.  A repeated ``"features"``,
    which ``json.loads`` accepts, is refused as malformed where it is met.
    """
    decode = json.JSONDecoder().raw_decode
    # whether "type" is "FeatureCollection", "features" was met, and held a list
    collection = seen = listed = False
    repeated = None  # where "features" is named a second time
    try:
        end = _skip(text, 0).end()
        if not text.startswith("{", end):
            _, end = decode(text, end)
        else:
            end = _skip(text, end + 1).end()
            more = not text.startswith("}", end)
            while more and text.startswith('"', end):
                start = end
                name, end = scanstring(text, end + 1)
                if name == "features":
                    if seen:
                        repeated = start
                        break
                    seen = True
                end = _skip(text, end).end()
                if not text.startswith(":", end):
                    break
                end = _skip(text, end + 1).end()
                if name == "features" and text.startswith("[", end):
                    end = yield from _elements(text, end + 1, decode)
                    listed = True
                    if end is None:
                        break
                else:
                    value, end = decode(text, end)
                    if name == "type":
                        collection = value == "FeatureCollection"
                end = _skip(text, end).end()
                more = text.startswith(",", end)
                if more:
                    end = _skip(text, end + 1).end()
            # past the closing "}"; each break above leaves more set
            end = end + 1 if not more and text.startswith("}", end) else None
    except JSONDecodeError:
        end = None
    if repeated is not None:
        raise JSONDecodeError('Repeated "features" member', text, repeated)
    if end is None or _skip(text, end).end() != len(text):
        json.loads(text)
        raise AssertionError("json.loads accepted text the walk refused")
    if not collection:
        raise ValueError("geometry document is not a FeatureCollection")
    if not listed:
        raise ValueError("FeatureCollection has no feature list")


def parse_geometry(data: bytes | str, id_property: str) -> AreaUnits:
    """Parse an RFC 7946 feature collection into AreaUnits.

    Every feature must carry ``id_property`` and a Polygon or MultiPolygon
    geometry whose rings are closed and have at least 4 points with finite
    coordinates.  Outer rings are normalized counterclockwise and holes
    clockwise so downstream area computations are sign-stable; coordinate
    order is otherwise preserved.  A leading UTF-8 byte order mark is ignored.

    The document is decoded one feature at a time, and each feature's tree
    is freed once its rings are taken, so the whole tree is never held.  A
    feature is checked as it is decoded: a faulty feature is reported
    before malformed text after it, and before a ``"type"`` other than
    ``"FeatureCollection"`` wherever that ``"type"`` stands.  Malformed
    text is refused with the message and position that ``json.loads`` of
    the whole text gives, on any Python.  A repeated ``"features"`` member
    is refused as malformed too.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    # Little but the arrays outlives the parse, so the cyclic collector would
    # only walk each feature's tree: it is paused for the whole parse
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _flatten(_features(_collection_features(data), id_property))
    except JSONDecodeError as exc:
        raise ValueError(f"malformed geometry document: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _feature_dicts(units: AreaUnits | list[AreaUnit], extra_properties: dict[str, list] | None):
    """Yield each unit's GeoJSON feature dict, built as it is asked for,
    with the per-unit columns of ``extra_properties`` appended."""
    units = AreaUnits.of(units)
    for i, polys in enumerate(units._nested(units.xy.tolist())):
        props = dict(units.properties[i])
        if extra_properties:
            for name, values in extra_properties.items():
                props[name] = values[i]
        if len(polys) == 1:
            geometry = {"type": "Polygon", "coordinates": polys[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": polys}
        yield {"type": "Feature", "properties": props, "geometry": geometry}


def to_feature_collection(
    units: AreaUnits | list[AreaUnit], extra_properties: dict[str, list] | None = None
) -> dict:
    """Build a feature-collection dict, optionally appending per-unit columns."""
    return {"type": "FeatureCollection", "features": list(_feature_dicts(units, extra_properties))}


def serialize_geometry(units: AreaUnits | list[AreaUnit]) -> bytes:
    """Inverse of parse_geometry; coordinates round-trip exactly."""
    return json.dumps(to_feature_collection(units), sort_keys=True).encode("utf-8")


def _floats(cells: tuple[str, ...]) -> np.ndarray:
    """``cells`` as float64, each stripped and converted by float(); a blank
    or non-numeric cell becomes NaN."""
    try:
        # where float(cell) succeeds, float(cell.strip()) gives the same value
        return np.fromiter(map(float, cells), float, count=len(cells))
    except ValueError:
        pass
    parsed = []
    for cell in cells:
        # float() ignores padding itself, except U+001C..U+001F, which strip() removes
        try:
            parsed.append(float(cell.strip()))
        except ValueError:
            parsed.append(math.nan)
    return np.array(parsed, dtype=float)


# Rows converted at a time: a block's cells are still in cache when its
# columns are converted, which a pass over the whole table's columns loses.
_ROW_BLOCK = 256


def _checked_rows(reader, width: int, id_idx: int, ids: list[str]):
    """The non-blank rows of ``reader`` without their id cell, each id
    appended to ``ids``; refuses a ragged row and an empty or repeated id,
    naming the line the row ends on."""
    seen: dict[str, int] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != width:
            problem = f"ragged row, expected {width} cells, got {len(row)}"
            raise ValueError(f"attribute table line {line}: {problem}")
        uid = row.pop(id_idx)
        if not uid:
            raise ValueError(f"attribute table line {line}: empty id")
        if uid in seen:
            problem = f"duplicate id {uid!r} (lines {seen[uid]} and {line})"
            raise ValueError(f"attribute table line {line}: {problem}")
        seen[uid] = line
        ids.append(uid)
        yield row


def parse_attributes(data: bytes | str, id_column: str) -> AttributeTable:
    """Parse a comma-delimited table with a header row.

    Non-id columns are parsed as numerics; blank cells and non-numeric
    tokens become NaN (flagged missing), never zero.  Row order is
    preserved.  A header that names a column twice is refused.  A leading
    UTF-8 byte order mark, as spreadsheet exports write, is ignored.  Every
    refused row is named by its line, the last one for a row holding a
    quoted line break: a ragged row, an empty or repeated id, and a row the
    tokeniser refuses (a bare carriage return outside quotes, a cell past
    ``csv.field_size_limit()``).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    reader = csv.reader(io.StringIO(data))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("attribute table is empty") from None
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise ValueError(f"attribute table header names column {repeated[0]!r} twice")
        if id_column not in header:
            raise ValueError(f"attribute table has no id column {id_column!r}")
        columns = [name for name in header if name != id_column]
        ids: list[str] = []
        rows = _checked_rows(reader, len(header), header.index(id_column), ids)
        blocks = [np.empty((0, len(columns)))]
        while block := list(islice(rows, _ROW_BLOCK)):
            values = np.empty((len(block), len(columns)))
            for j, cells in enumerate(zip(*block)):
                # + 0.0 reads a -0 cell as 0.0, so which of 0 and -0 a
                # minimum or maximum returns cannot depend on their order
                values[:, j] = _floats(cells) + 0.0
            blocks.append(values)
    except csv.Error as exc:
        # csv's hint about universal-newline mode does not apply to decoded text
        problem = str(exc).split(" - ")[0]
        raise ValueError(f"attribute table line {reader.line_num}: {problem}") from None
    return AttributeTable(ids=ids, columns=columns, values=np.concatenate(blocks))


def merge(
    units: AreaUnits | list[AreaUnit],
    table: AttributeTable,
    policy: str = "drop-with-report",
) -> MergedDataset:
    """Inner-join geometry and attributes on unit id.

    The retained units and their attribute rows come out in id order
    (Python string order), as do the dropped-id lists, so later stages see
    one unit order whatever the input order.  ``policy`` is either
    ``"drop-with-report"`` (unmatched ids recorded on both sides) or
    ``"fail-on-any-unmatched"``.  A side the join keeps whole and in id
    order is passed through without a copy.
    """
    if policy not in ("drop-with-report", "fail-on-any-unmatched"):
        raise ValueError(f"unknown merge policy {policy!r}")
    units = AreaUnits.of(units)
    if not len(units):
        raise ValueError("no geometry units to merge")
    if table.n == 0:
        raise ValueError("no attribute rows to merge")

    row_of = dict(zip(table.ids, range(table.n)))
    rows = np.fromiter(map(row_of.get, units.ids, repeat(-1)), np.int64, count=len(units))
    matched = rows >= 0
    dropped_geo = sorted(units.ids[i] for i in np.flatnonzero(~matched).tolist())
    # when every table row is matched no id is table-only, and no set is built
    dropped_tab = []
    hit = np.zeros(table.n, dtype=bool)
    hit[rows[matched]] = True
    if not hit.all():
        unit_ids = set(units.ids)
        dropped_tab = sorted(uid for uid in table.ids if uid not in unit_ids)

    if not matched.any():
        raise ValueError("geometry and attribute ids have an empty intersection")
    if policy == "fail-on-any-unmatched" and (dropped_geo or dropped_tab):
        raise ValueError(
            "unmatched ids under fail-on-any-unmatched policy: "
            f"geometry-only {dropped_geo}, attributes-only {dropped_tab}"
        )

    keep = sorted(np.flatnonzero(matched).tolist(), key=units.ids.__getitem__)
    if keep != list(range(len(units))):
        units = units.take(keep)
        rows = rows[keep]
    if not np.array_equal(rows, np.arange(table.n)):
        table = table.take(rows)
    return MergedDataset(
        units=units,
        table=table,
        dropped_geometry_ids=dropped_geo,
        dropped_table_ids=dropped_tab,
    )


def drop_missing_rows(
    dataset: MergedDataset, columns: list[str]
) -> tuple[MergedDataset, list[str]]:
    """Listwise deletion: drop units with any missing value in ``columns``.

    Returns the reduced dataset and the ids that were dropped, for the
    pipeline's dropped-unit report.
    """
    unknown = [c for c in columns if c not in dataset.table.columns]
    if unknown:
        raise KeyError(f"no such columns {unknown}")
    idx = [dataset.table.columns.index(c) for c in columns]
    bad = np.isnan(dataset.table.values[:, idx]).any(axis=1)
    if not bad.any():
        return dataset, []
    keep = np.flatnonzero(~bad)
    dropped = [dataset.table.ids[i] for i in np.flatnonzero(bad).tolist()]
    reduced = MergedDataset(
        units=dataset.units.take(keep),
        table=dataset.table.take(keep),
        dropped_geometry_ids=list(dataset.dropped_geometry_ids),
        dropped_table_ids=list(dataset.dropped_table_ids),
    )
    return reduced, dropped
