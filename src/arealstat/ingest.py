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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

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
        goes through the checks and normalization of :func:`parse_geometry`."""
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
    """Geometry and attributes aligned on id, geometry-file order preserved."""

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


def _as_xy(points: list) -> np.ndarray | None:
    """``points`` as a (V, 2) float64 array, each coordinate converted as
    float() does; None if some point is not an (x, y) pair of numbers."""
    if not set(map(type, points)) <= {list, tuple} and not all(
        isinstance(pt, (list, tuple)) for pt in points
    ):
        return None
    lengths = set(map(len, points))
    if lengths and min(lengths) < 2:
        return None
    if lengths - {2}:
        points = [pt[:2] for pt in points]
    try:
        return np.fromiter(map(float, chain.from_iterable(points)), float).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
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

    Structure is checked as each feature arrives.  The points are converted
    and checked together after the last feature, or when a structural fault
    stops the walk, so the first faulty ring in document order is reported.
    """
    ids, properties, points = [], [], []
    rings, polygons, units = [0], [0], [0]
    try:
        for idx, (uid, props, raw_polys) in enumerate(features):
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


def _features(features: list, id_property: str):
    """(id, properties, polygons) of each GeoJSON feature, checked in turn."""
    seen: dict[str, int] = {}
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
        if not uid:
            raise ValueError(f"feature {idx}: empty id")
        if uid in seen:
            raise ValueError(f"duplicate unit id {uid!r} (features {seen[uid]} and {idx})")
        seen[uid] = idx
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ValueError(
                f"feature {idx} ({uid!r}): geometry type must be Polygon or "
                f"MultiPolygon, got {gtype!r}"
            )
        coords = geom.get("coordinates")
        yield uid, dict(props), [coords] if gtype == "Polygon" else coords


def parse_geometry(data: bytes | str, id_property: str) -> AreaUnits:
    """Parse an RFC 7946 feature collection into AreaUnits.

    Every feature must carry ``id_property`` and a Polygon or MultiPolygon
    geometry whose rings are closed and have at least 4 points with finite
    coordinates.  Outer rings are normalized counterclockwise and holes
    clockwise so downstream area computations are sign-stable; coordinate
    order is otherwise preserved.  A leading UTF-8 byte order mark is ignored.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    # Little but the arrays outlives the parse, so the cyclic collector would
    # only walk the document tree: it is paused for the whole parse (around
    # json.loads alone, the allocation count carries over and the
    # collections just happen later).
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed geometry document: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
            raise ValueError("geometry document is not a FeatureCollection")
        features = doc.get("features")
        if not isinstance(features, list):
            raise ValueError("FeatureCollection has no feature list")
        return _flatten(_features(features, id_property))
    finally:
        if enabled:
            gc.enable()


def to_feature_collection(
    units: AreaUnits | list[AreaUnit], extra_properties: dict[str, list] | None = None
) -> dict:
    """Build a feature-collection dict, optionally appending per-unit columns."""
    units = AreaUnits.of(units)
    feats = []
    for i, polys in enumerate(units._nested(units.xy.tolist())):
        props = dict(units.properties[i])
        if extra_properties:
            for name, values in extra_properties.items():
                props[name] = values[i]
        if len(polys) == 1:
            geometry = {"type": "Polygon", "coordinates": polys[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": polys}
        feats.append({"type": "Feature", "properties": props, "geometry": geometry})
    return {"type": "FeatureCollection", "features": feats}


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
    appended to ``ids``; refuses a ragged row and an empty or repeated id."""
    seen: dict[str, int] = {}
    for i, row in enumerate(reader):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"ragged row {i}: expected {width} cells, got {len(row)}")
        uid = row.pop(id_idx)
        if not uid:
            raise ValueError(f"row {i}: empty id")
        if uid in seen:
            raise ValueError(f"duplicate id {uid!r} (rows {seen[uid]} and {i})")
        seen[uid] = i
        ids.append(uid)
        yield row


def parse_attributes(data: bytes | str, id_column: str) -> AttributeTable:
    """Parse a comma-delimited table with a header row.

    Non-id columns are parsed as numerics; blank cells and non-numeric
    tokens become NaN (flagged missing), never zero.  Row order is
    preserved.  A header that names a column twice is refused.  A leading
    UTF-8 byte order mark, as spreadsheet exports write, is ignored.  A row
    the tokeniser refuses (a bare carriage return outside quotes, a cell
    past ``csv.field_size_limit()``) is refused with its line number.
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
                values[:, j] = _floats(cells)
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

    The output preserves geometry-file order restricted to retained ids.
    ``policy`` is either ``"drop-with-report"`` (unmatched ids recorded on
    both sides) or ``"fail-on-any-unmatched"``.  A side the join keeps
    whole and in order is passed through without a copy.
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
    dropped_geo = [units.ids[i] for i in np.flatnonzero(~matched).tolist()]
    # when every table row is matched no id is table-only, and no set is built
    dropped_tab = []
    hit = np.zeros(table.n, dtype=bool)
    hit[rows[matched]] = True
    if not hit.all():
        unit_ids = set(units.ids)
        dropped_tab = [uid for uid in table.ids if uid not in unit_ids]

    if not matched.any():
        raise ValueError("geometry and attribute ids have an empty intersection")
    if policy == "fail-on-any-unmatched" and (dropped_geo or dropped_tab):
        raise ValueError(
            "unmatched ids under fail-on-any-unmatched policy: "
            f"geometry-only {dropped_geo}, attributes-only {dropped_tab}"
        )

    if dropped_geo:
        units = units.take(np.flatnonzero(matched))
        rows = rows[matched]
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
