"""Contiguity-based spatial weights.

Queen contiguity links units sharing at least one snapped vertex; rook
contiguity requires a shared snapped edge.  Coordinates are quantized to a
snap pitch before comparison so nearly-touching boundaries from noisy
sources still register as neighbors.

A run holds one weights object: the contiguity links, an n x n binary
``scipy.sparse.csr_matrix`` without self-links and with sorted column
indices.  Every other view (degrees, neighbor lists, the row-standardized
W) is derived from it, and each statistic applies its own weighting: Gi*
adds the self-links, the spatial-dependence tests and fits row-standardize.
The links round-trip through a CSV file that lists each unit's neighbors by id.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ingest import AreaUnit, AreaUnits

__all__ = [
    "SpatialWeights",
    "CONTIGUITY_RULES",
    "queen_contiguity",
    "rook_contiguity",
    "detect_islands",
    "write_weights",
    "read_weights",
]


@dataclass(eq=False)
class SpatialWeights:
    """Contiguity links over units indexed 0..n-1.

    ``matrix`` is the n x n CSR link pattern: symmetric, every stored value
    1.0, no diagonal, sorted column indices; row i holds unit i's neighbors.
    A matrix that is not square, stores another value, has a diagonal entry
    or holds a link without its reverse is refused, naming the first unit
    at fault.
    """

    matrix: sp.csr_matrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"links matrix must be square, got shape {m.shape}")
        if not (m.data == 1.0).all():
            i, j, v = _first_entry(m, lambda data: ~(data == 1.0))
            raise ValueError(
                f"unit {i} has link value {v!r} to unit {j}; contiguity links "
                "are binary (1.0)"
            )
        if m.diagonal().any():
            i = int(np.flatnonzero(m.diagonal())[0])
            raise ValueError(f"unit {i} links to itself; contiguity links have no self-links")
        d = m - m.T
        if d.nnz:
            i, j, _ = _first_entry(d, lambda data: data > 0)
            raise ValueError(
                f"unit {i} links to unit {j} but unit {j} does not link back to "
                f"unit {i}; the link pattern must be symmetric"
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def degree(self) -> np.ndarray:
        return np.diff(self.matrix.indptr)

    def row_standardized(self) -> sp.csr_matrix:
        """W = D^-1 A: each link weighted 1/degree of its row, on the same
        pattern, so every non-empty row sums to 1; an island's row stays
        empty."""
        a = self.matrix
        deg = self.degree()
        return sp.csr_matrix(
            (1.0 / np.repeat(deg, deg), a.indices, a.indptr), shape=a.shape
        )

    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-unit column indices as read-only slices of the CSR indices."""
        indices = self.matrix.indices.view()
        indices.flags.writeable = False
        return np.split(indices, self.matrix.indptr[1:-1])


def _first_entry(m, bad) -> tuple[int, int, float]:
    """(i, j, value) of the first stored entry of the CSR ``m`` whose value
    ``bad`` marks: the first by (i, j) when the column indices are sorted."""
    coo = m.tocoo()
    k = np.flatnonzero(bad(coo.data))[0]
    return int(coo.row[k]), int(coo.col[k]), float(coo.data[k])


def _owned_vertices(
    units: AreaUnits | list[AreaUnit],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ring vertex, the index of the unit owning each, and a mask
    that is False on each ring's closing vertex."""
    if len(units) < 2:
        raise ValueError("contiguity needs at least 2 units")
    units = AreaUnits.of(units)
    first = units.ring_offsets[units.polygon_offsets[units.unit_offsets]]
    owner = np.repeat(np.arange(len(units)), np.diff(first))
    not_last = np.ones(len(owner), dtype=bool)
    not_last[units.ring_offsets[1:] - 1] = False
    return units.xy, owner, not_last


def _snap_keys(xy: np.ndarray, snap_tolerance: float | None) -> np.ndarray:
    """Vertices quantized to the snap pitch (default 1e-9 of the
    bounding-box diagonal).

    The keys stay float64: x / pitch passes 2**63 for coordinates near 1e12
    at a 1e-9 pitch, where an int64 cast would overflow.  ``rint`` rounds half
    to even, as Python's ``round`` does.
    """
    if snap_tolerance is not None:
        pitch = float(snap_tolerance)
        if not (math.isfinite(pitch) and pitch > 0):
            raise ValueError(f"snap_tolerance must be a finite positive number, got {pitch!r}")
    else:
        dx, dy = (xy.max(axis=0) - xy.min(axis=0)).tolist()
        diag = math.hypot(dx, dy)
        if diag == 0.0:
            raise ValueError("degenerate geometry: bounding box has zero diagonal")
        pitch = 1e-9 * diag
    return np.rint(xy / pitch)


def _link_shared_keys(owner: np.ndarray, keys: np.ndarray, n: int) -> SpatialWeights:
    """Units meeting on any key become mutual neighbors: the off-diagonal
    pattern of B B^T, where B is the unit x distinct-key incidence."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    key_id = np.empty(len(order), dtype=np.int64)
    key_id[order] = np.cumsum(new) - 1
    b = sp.csr_matrix(
        (np.ones(len(owner)), (owner, key_id)), shape=(n, int(new.sum()))
    )
    shared = (b @ b.T).tocoo()
    off = shared.row != shared.col
    a = sp.csr_matrix(
        (np.ones(int(off.sum())), (shared.row[off], shared.col[off])), shape=(n, n)
    )
    return SpatialWeights(matrix=a)


# The contiguity rules, each built by this module's ``<rule>_contiguity``.
CONTIGUITY_RULES = ("queen", "rook")


def queen_contiguity(
    units: AreaUnits | list[AreaUnit], snap_tolerance: float | None = None
) -> SpatialWeights:
    """Neighbors share at least one snapped vertex.

    Each vertex is quantized to the snap pitch (default 1e-9 of the
    bounding-box diagonal); all units meeting on a quantized vertex become
    mutual neighbors.
    """
    xy, owner, not_last = _owned_vertices(units)
    keys = _snap_keys(xy, snap_tolerance)
    # closing vertex repeats the first; skip it
    return _link_shared_keys(owner[not_last], keys[not_last], len(units))


def rook_contiguity(
    units: AreaUnits | list[AreaUnit], snap_tolerance: float | None = None
) -> SpatialWeights:
    """Neighbors share a snapped edge (consecutive vertex pair).

    Each boundary segment is keyed by its sorted pair of snapped endpoints,
    so orientation and traversal direction do not matter.  Segments whose
    endpoints snap together are dropped.
    """
    xy, owner, not_last = _owned_vertices(units)
    keys = _snap_keys(xy, snap_tolerance)
    start = np.flatnonzero(not_last)
    a, b = keys[start], keys[start + 1]
    swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
    edges = np.where(swap[:, None], np.hstack([b, a]), np.hstack([a, b]))
    keep = (a != b).any(axis=1)
    return _link_shared_keys(owner[start][keep], edges[keep], len(units))


def detect_islands(links: SpatialWeights) -> list[int]:
    """Indices of units with no neighbors, ascending."""
    return np.flatnonzero(links.degree() == 0).tolist()


def write_weights(links: SpatialWeights, ids: list[str]) -> str:
    """Serialize the links as CSV keyed by unit id, ``ids[i]`` naming unit i.

    A header row ``id,neighbors``, then one row per unit in id order
    (Python string order): the unit's id, then its neighbors' ids in id
    order; an island's row holds its id alone.  Rows end in CRLF and
    fields are quoted as RFC 4180 says, so an id holding a comma, a quote,
    CR or LF reads back whole.  The text does not depend on the unit order.
    """
    if len(ids) != links.n:
        raise ValueError(f"{len(ids)} ids for {links.n} units")
    ptr, cols = links.matrix.indptr.tolist(), links.matrix.indices.tolist()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["id", "neighbors"])
    writer.writerows(
        [ids[i], *sorted(ids[j] for j in cols[ptr[i] : ptr[i + 1]])]
        for i in sorted(range(links.n), key=ids.__getitem__)
    )
    return out.getvalue()


def read_weights(text: str) -> tuple[list[str], SpatialWeights]:
    """Parse the CSV written by :func:`write_weights`: the unit ids in row
    order and the links over them, unit i being the i-th row.

    Refused, naming the line: a first row other than the header
    ``id,neighbors`` (the former ``n row-standardized`` file among them),
    malformed quoting, an empty or repeated id, a neighbor that is unknown,
    repeated or the unit itself, and a neighbor whose row does not list
    the unit back (the first such link in row order).
    """
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    records, line = [], 1  # (first line, row) of each record
    try:
        for row in reader:
            records.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"weights line {line}: {exc}") from None
    header = records.pop(0)[1] if records else []
    if header != ["id", "neighbors"]:
        raise ValueError(f"weights line 1: expected the header 'id,neighbors', got {header!r}")
    index = {row[0]: i for i, (_, row) in enumerate(records) if row}
    cols, indptr = [], [0]
    for i, (line, row) in enumerate(records):
        uid, named = (row or [""])[0], row[1:]
        where = f"weights line {line}: unit {uid!r}"
        if not uid:
            raise ValueError(f"weights line {line}: empty unit id")
        if index[uid] != i:
            raise ValueError(f"{where} is repeated on line {records[index[uid]][0]}")
        unknown = [nb for nb in named if nb not in index]
        if unknown:
            raise ValueError(f"{where} lists unknown neighbor {unknown[0]!r}")
        if uid in named:
            raise ValueError(f"{where} lists itself as a neighbor")
        if len(set(named)) < len(named):
            twice = next(nb for k, nb in enumerate(named) if nb in named[:k])
            raise ValueError(f"{where} lists neighbor {twice!r} twice")
        cols.extend(index[nb] for nb in named)
        indptr.append(len(cols))
    n = len(records)
    m = sp.csr_matrix((np.ones(len(cols)), np.array(cols, int), indptr), shape=(n, n))
    m.sort_indices()
    ids = list(index)
    d = m - m.T
    if d.nnz:
        i, j, _ = _first_entry(d, lambda data: data > 0)
        raise ValueError(
            f"weights line {records[i][0]}: unit {ids[i]!r} lists neighbor {ids[j]!r}, "
            f"but line {records[j][0]} does not list {ids[i]!r} back"
        )
    return ids, SpatialWeights(matrix=m)
