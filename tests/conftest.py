"""Shared fixtures and small geometry builders for the test suite."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from arealstat.ingest import AreaUnit
from arealstat.weights import AdjacencyList


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
    """AdjacencyList whose CSR pattern lists ``neighbors[i]`` in row i."""
    n = len(neighbors)
    rows = np.repeat(np.arange(n), [len(nb) for nb in neighbors])
    cols = np.concatenate([np.asarray(nb, dtype=np.int64) for nb in neighbors])
    return AdjacencyList(
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
