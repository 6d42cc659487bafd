"""Deterministic synthetic fixtures: a square-lattice tract map with
SDOH-flavored attributes and a planted spatial-error structure.

Everything here is seeded; the same seed always yields the same bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .ingest import AreaUnit, serialize_geometry
from .stats import zscore
from .weights import SpatialWeights, queen_contiguity

__all__ = [
    "lattice",
    "detached_square",
    "autoregressive_solver",
    "synthetic_county",
    "default_config",
    "write_synthetic_county",
    "PREDICTOR_COLUMNS",
    "OUTCOME_COLUMN",
    "UNMATCHED_IDS",
]

PREDICTOR_COLUMNS = [
    "income",
    "poverty",
    "unemployment",
    "renters",
    "household_size",
    "median_age",
    "uninsured",
    "inactivity",
]
OUTCOME_COLUMN = "prevalence"
UNMATCHED_IDS = ("999001", "999002")


def _square(x0: float, y0: float) -> tuple:
    ring = (
        (x0, y0),
        (x0 + 1.0, y0),
        (x0 + 1.0, y0 + 1.0),
        (x0, y0 + 1.0),
        (x0, y0),
    )
    return ((ring,),)


def lattice(nx: int = 20, ny: int = 20, id_start: int = 100000) -> list[AreaUnit]:
    """Row-major grid of unit squares with tract-style numeric string ids."""
    units = []
    for r in range(ny):
        for c in range(nx):
            uid = str(id_start + r * nx + c)
            units.append(
                AreaUnit(
                    id=uid,
                    geometry=_square(float(c), float(r)),
                    properties={"GEOID": uid},
                )
            )
    return units


def detached_square(uid: str, x0: float, y0: float = 0.0) -> AreaUnit:
    """A unit square placed away from the lattice (no shared boundary)."""
    return AreaUnit(id=uid, geometry=_square(x0, y0), properties={"GEOID": uid})


def autoregressive_solver(links: SpatialWeights, param: float):
    """Callable v -> (I - param*W)^-1 v, W the row-standardized links, with
    the factorization done once.

    Useful for simulating many disturbance draws on the same weights.
    """
    a = sp.identity(links.n, format="csc") - param * links.row_standardized().tocsc()
    lu = scipy.sparse.linalg.splu(a)
    return lu.solve


def synthetic_county(seed: int = 20240817) -> tuple[bytes, bytes]:
    """Generate the bundled synthetic-county fixture.

    Returns (geometry bytes, attribute bytes).  The geometry holds a 20x20
    tract lattice plus 2 detached tracts absent from the attribute table,
    so a default merge drops exactly those 2 ids.  The outcome carries a
    planted spatial-error structure (lam = 0.5) on queen contiguity, and
    the inactivity column is a near-duplicate of a poverty/unemployment
    combination so collinearity pruning has something real to remove.
    """
    rng = np.random.default_rng(seed)
    grid = lattice()
    n = len(grid)

    links = queen_contiguity(grid)
    # regional smoothing so socioeconomic columns cluster the way real
    # tract data does; rescaling keeps the stated marginal mean and SD
    blur = autoregressive_solver(links, 0.7)

    def regional(mean: float, sd: float) -> np.ndarray:
        return mean + sd * zscore(blur(rng.normal(0.0, 1.0, n)))

    income = regional(52.0, 12.0)
    poverty = regional(15.0, 5.0)
    unemployment = rng.normal(6.0, 2.0, n)
    renters = rng.normal(35.0, 10.0, n)
    household_size = rng.normal(2.5, 0.3, n)
    median_age = rng.normal(38.0, 6.0, n)
    uninsured = regional(12.0, 4.0)
    inactivity = (
        18.0
        + 0.5 * poverty
        + 0.3 * unemployment
        + rng.normal(0.0, 0.25, n)
    )

    u = autoregressive_solver(links, 0.5)(rng.normal(0.0, 1.0, n))
    prevalence = (
        32.0
        + 2.2 * zscore(poverty)
        + 1.6 * zscore(uninsured)
        - 1.8 * zscore(income)
        + 0.9 * zscore(renters)
        + 0.6 * zscore(median_age)
        + 1.5 * u
    )

    units = grid + [
        detached_square(UNMATCHED_IDS[0], 30.0, 0.0),
        detached_square(UNMATCHED_IDS[1], 30.0, 5.0),
    ]
    geojson = serialize_geometry(units)

    columns = {
        "income": income,
        "poverty": poverty,
        "unemployment": unemployment,
        "renters": renters,
        "household_size": household_size,
        "median_age": median_age,
        "uninsured": uninsured,
        "inactivity": inactivity,
    }
    lines = ["GEOID," + OUTCOME_COLUMN + "," + ",".join(PREDICTOR_COLUMNS)]
    for i, unit in enumerate(grid):
        cells = [unit.id, repr(float(prevalence[i]))]
        cells += [repr(float(columns[c][i])) for c in PREDICTOR_COLUMNS]
        lines.append(",".join(cells))
    csv_bytes = ("\n".join(lines) + "\n").encode("utf-8")
    return geojson, csv_bytes


def default_config(
    geometry_path: str, attributes_path: str, output_dir: str
) -> dict:
    """Pipeline configuration matching the bundled fixture."""
    return {
        "geometry_path": geometry_path,
        "attributes_path": attributes_path,
        "id_property": "GEOID",
        "id_column": "GEOID",
        "outcome_column": OUTCOME_COLUMN,
        "candidate_predictor_columns": list(PREDICTOR_COLUMNS),
        "contiguity": "queen",
        "snap_tolerance": None,
        "alpha": 0.05,
        "vif_threshold": 10.0,
        "fdr_alpha": 0.05,
        "group_k": 5,
        "top_features_for_grouping": 4,
        "output_dir": output_dir,
        "spearman_column": "inactivity",
    }


def write_synthetic_county(directory: str, seed: int = 20240817) -> str:
    """Write fixture files plus a ready-to-run config; returns config path."""
    os.makedirs(directory, exist_ok=True)
    geo, csv_bytes = synthetic_county(seed)
    geo_path = os.path.join(directory, "tracts.geojson")
    attr_path = os.path.join(directory, "attributes.csv")
    with open(geo_path, "wb") as fh:
        fh.write(geo)
    with open(attr_path, "wb") as fh:
        fh.write(csv_bytes)
    config = default_config(geo_path, attr_path, os.path.join(directory, "out"))
    cfg_path = os.path.join(directory, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cfg_path
