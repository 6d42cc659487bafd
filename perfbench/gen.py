"""Seeded planted-structure inputs for the benchmark workloads.

A square lattice of unit squares (queen contiguity, four vertices per
unit) with SDOH-style attribute columns and an outcome carrying a planted
spatial error or spatial lag structure.  The recipe follows
``arealstat.synth.synthetic_county`` but takes the side length, the planted
model and its parameter, and the seed as arguments.

Only numpy and scipy are used: the queen weights come from index
arithmetic, as in the test suite's lattice oracle, so no change to the
library can alter the inputs it is measured on.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

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
ID_START = 100000


def queen_weights(side: int) -> sp.csc_matrix:
    """Row-standardized queen weights of a row-major side x side lattice."""
    r, c = np.divmod(np.arange(side * side), side)
    rows, cols = [], []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            rr, cc = r + dr, c + dc
            ok = (rr >= 0) & (rr < side) & (cc >= 0) & (cc < side)
            rows.append((r * side + c)[ok])
            cols.append((rr * side + cc)[ok])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    n = side * side
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (sp.diags(1.0 / deg) @ adj).tocsc()


def _solver(w: sp.csc_matrix, param: float):
    """v -> (I - param*W)^-1 v with one sparse factorization."""
    a = sp.identity(w.shape[0], format="csc") - param * w
    return scipy.sparse.linalg.splu(a).solve


def _zscore(v: np.ndarray) -> np.ndarray:
    return (v - v.mean()) / v.std(ddof=1)


def lattice_inputs(
    side: int, model: str, param: float, seed: int
) -> tuple[bytes, bytes]:
    """(GeoJSON bytes, CSV bytes) for one planted-structure lattice.

    ``model`` is "error" (u = (I - param W)^-1 e enters the outcome) or
    "lag" (the whole outcome is premultiplied by (I - param W)^-1).
    """
    if model not in ("error", "lag"):
        raise ValueError(f"unknown planted model {model!r}")
    rng = np.random.default_rng(seed)
    n = side * side
    w = queen_weights(side)
    blur = _solver(w, 0.7)

    def regional(mean: float, sd: float) -> np.ndarray:
        return mean + sd * _zscore(blur(rng.normal(0.0, 1.0, n)))

    income = regional(52.0, 12.0)
    poverty = regional(15.0, 5.0)
    unemployment = rng.normal(6.0, 2.0, n)
    renters = rng.normal(35.0, 10.0, n)
    household_size = rng.normal(2.5, 0.3, n)
    median_age = rng.normal(38.0, 6.0, n)
    uninsured = regional(12.0, 4.0)
    inactivity = 18.0 + 0.5 * poverty + 0.3 * unemployment + rng.normal(0.0, 0.25, n)

    signal = (
        32.0
        + 2.2 * _zscore(poverty)
        + 1.6 * _zscore(uninsured)
        - 1.8 * _zscore(income)
        + 0.9 * _zscore(renters)
        + 0.6 * _zscore(median_age)
    )
    noise = rng.normal(0.0, 1.0, n)
    planted = _solver(w, param)
    if model == "error":
        prevalence = signal + 1.5 * planted(noise)
    else:
        prevalence = planted(signal + 1.5 * noise)

    features = []
    for i in range(n):
        r, c = divmod(i, side)
        x0, y0 = float(c), float(r)
        ring = [[x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0], [x0, y0]]
        features.append(
            {
                "type": "Feature",
                "properties": {"GEOID": str(ID_START + i)},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    geojson = json.dumps(
        {"type": "FeatureCollection", "features": features}, sort_keys=True
    ).encode("utf-8")

    columns = [
        income,
        poverty,
        unemployment,
        renters,
        household_size,
        median_age,
        uninsured,
        inactivity,
    ]
    lines = ["GEOID," + OUTCOME_COLUMN + "," + ",".join(PREDICTOR_COLUMNS)]
    for i in range(n):
        cells = [str(ID_START + i), repr(float(prevalence[i]))]
        cells += [repr(float(col[i])) for col in columns]
        lines.append(",".join(cells))
    return geojson, ("\n".join(lines) + "\n").encode("utf-8")


def write_inputs(
    directory: str, side: int, model: str, param: float, seed: int
) -> str:
    """Write tracts.geojson, attributes.csv and config.json; returns the
    config path.  The config's output_dir is a placeholder that each
    repetition overrides."""
    os.makedirs(directory, exist_ok=True)
    geo, csv_bytes = lattice_inputs(side, model, param, seed)
    geo_path = os.path.join(directory, "tracts.geojson")
    attr_path = os.path.join(directory, "attributes.csv")
    with open(geo_path, "wb") as fh:
        fh.write(geo)
    with open(attr_path, "wb") as fh:
        fh.write(csv_bytes)
    config = {
        "geometry_path": geo_path,
        "attributes_path": attr_path,
        "id_property": "GEOID",
        "id_column": "GEOID",
        "outcome_column": OUTCOME_COLUMN,
        "candidate_predictor_columns": list(PREDICTOR_COLUMNS),
        "contiguity": "queen",
        "alpha": 0.05,
        "vif_threshold": 10.0,
        "fdr_alpha": 0.05,
        "group_k": 5,
        "top_features_for_grouping": 4,
        "output_dir": os.path.join(directory, "out"),
        "spearman_column": "inactivity",
    }
    cfg_path = os.path.join(directory, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cfg_path
