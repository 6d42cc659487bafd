"""Shared fixtures and small geometry builders for the test suite."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from arealstat.ingest import AreaUnit
from arealstat.weights import SpatialWeights


def square_unit(uid, x0, y0, size=1.0, properties=None):
    """One unit-square areal unit with a counterclockwise closed ring."""
    ring = (
        (x0, y0),
        (x0 + size, y0),
        (x0 + size, y0 + size),
        (x0, y0 + size),
        (x0, y0),
    )
    return AreaUnit(id=str(uid), geometry=((ring,),), properties=properties or {})


def grid_units(nx, ny):
    """Row-major nx-by-ny lattice of unit squares with ids '0'..'n-1'."""
    units = []
    for r in range(ny):
        for c in range(nx):
            units.append(square_unit(r * nx + c, float(c), float(r)))
    return units


def adjacency_from_neighbors(neighbors):
    """Binary contiguity links whose CSR pattern lists ``neighbors[i]`` in row i."""
    n = len(neighbors)
    rows = np.repeat(np.arange(n), [len(nb) for nb in neighbors])
    cols = np.concatenate([np.asarray(nb, dtype=np.int64) for nb in neighbors])
    return SpatialWeights(
        matrix=sp.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(n, n))
    )


def grid_adjacency(nx, ny, queen=True):
    """Index-arithmetic contiguity oracle for a row-major lattice."""
    neighbors = []
    for r in range(ny):
        for c in range(nx):
            nb = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    if not queen and dr != 0 and dc != 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < ny and 0 <= cc < nx:
                        nb.append(rr * nx + cc)
            neighbors.append(np.array(sorted(nb), dtype=np.int64))
    return adjacency_from_neighbors(neighbors)


def torus_adjacency(nx, ny, queen=True):
    """Wraparound lattice contiguity; every unit has the same degree."""
    neighbors = []
    for r in range(ny):
        for c in range(nx):
            nb = set()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    if not queen and dr != 0 and dc != 0:
                        continue
                    nb.add(((r + dr) % ny) * nx + (c + dc) % nx)
            nb.discard(r * nx + c)
            neighbors.append(np.array(sorted(nb), dtype=np.int64))
    return adjacency_from_neighbors(neighbors)


def feature_collection(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


def polygon_feature(uid, ring, id_property="GEOID", extra=None):
    props = {id_property: uid}
    if extra:
        props.update(extra)
    return {
        "type": "Feature",
        "properties": props,
        "geometry": {"type": "Polygon", "coordinates": [list(map(list, ring))]},
    }


def square_ring(x0, y0, size=1.0):
    return [
        (x0, y0),
        (x0 + size, y0),
        (x0 + size, y0 + size),
        (x0, y0 + size),
        (x0, y0),
    ]


# integers stay integers in the JSON text; the quotients are not short
# decimals, so shoelace terms carry rounding
COORDS = st.one_of(
    st.integers(-50, 50),
    st.builds(
        lambda k, d, c: c + k / d,
        st.integers(-(10**6), 10**6),
        st.sampled_from([3.0, 7.0, 1e3]),
        st.sampled_from([0.0, -250.0, 1e5]),
    ),
)


@st.composite
def raw_rings(draw):
    """A closed ring of 4 to 40 vertices in either orientation: random
    points, a path traced out and back (zero area, but its shoelace terms
    cancel only up to rounding, so the sign of the sum depends on the order
    of summation), or one point repeated."""
    kind = draw(st.sampled_from(["random", "out_and_back", "point"]))
    point = st.tuples(COORDS, COORDS)
    if kind == "random":
        pts = draw(st.lists(point, min_size=3, max_size=39))
    elif kind == "out_and_back":
        # seeded rather than drawn, so shrinking cannot make the terms exact
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = draw(st.integers(3, 20))
        offset = draw(st.sampled_from([0.0, -250.0, 1e5]))
        path = list(zip(offset + rng.integers(-(10**6), 10**6, m) / 7.0,
                        offset + rng.integers(-(10**6), 10**6, m) / 3.0))
        cycle = [(float(x), float(y)) for x, y in path + path[-2:0:-1]]
        # started inside the path, so that reversing changes the sequence
        k = draw(st.integers(1, m - 2))
        pts = cycle[k:] + cycle[:k]
    else:
        pts = [draw(point)] * draw(st.integers(3, 39))
    ring = [list(pt) for pt in pts + pts[:1]]
    return ring[::-1] if draw(st.booleans()) else ring


@st.composite
def multipolygon_features(draw):
    """1 to 4 features of 1 to 3 polygons, each an outer ring and up to 2
    holes, as Polygon or MultiPolygon GeoJSON."""
    features = []
    for i in range(draw(st.integers(1, 4))):
        polys = draw(
            st.lists(st.lists(raw_rings(), min_size=1, max_size=3), min_size=1, max_size=3)
        )
        if len(polys) == 1 and draw(st.booleans()):
            geometry = {"type": "Polygon", "coordinates": polys[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": polys}
        features.append(
            {"type": "Feature", "properties": {"GEOID": f"u{i}"}, "geometry": geometry}
        )
    return features


@pytest.fixture
def corner_fixture():
    """Four squares: A-B share an edge, B-C share an edge, A-C share only a
    corner, D is detached.  Separates queen from rook and exposes islands."""
    a = square_unit("A", 0.0, 0.0)
    b = square_unit("B", 1.0, 0.0)
    c = square_unit("C", 1.0, 1.0)
    d = square_unit("D", 5.0, 5.0)
    return [a, b, c, d]


@pytest.fixture(scope="session")
def county(tmp_path_factory):
    """The bundled synthetic dataset written once per session."""
    from arealstat.synth import write_synthetic_county

    directory = tmp_path_factory.mktemp("county")
    config_path = write_synthetic_county(str(directory))
    return {"dir": str(directory), "config": str(config_path)}
