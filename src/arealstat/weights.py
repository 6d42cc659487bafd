"""Contiguity-based spatial weights.

Queen contiguity links units sharing at least one snapped vertex; rook
contiguity requires a shared snapped edge.  Coordinates are quantized to a
snap pitch before comparison so nearly-touching boundaries from noisy
sources still register as neighbors.

A run holds one weights object: the contiguity links, an n x n binary
``scipy.sparse.csr_matrix`` without self-links and with sorted column
indices.  Every other view (degrees, neighbor lists, the row-standardized
W, dense arrays) is derived from it, and each statistic applies its own
weighting: Gi* adds the self-links, the spatial-dependence tests and fits
row-standardize.  The row-standardized W round-trips through a plain text
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ingest import AreaUnit, AreaUnits

__all__ = [
    "SpatialWeights",
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
        if (m != m.T).nnz:
            i, j, _ = _first_entry(m - m.T, lambda data: data > 0)
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

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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
        if snap_tolerance <= 0:
            raise ValueError("snap tolerance must be positive")
        pitch = float(snap_tolerance)
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


def write_weights(links: SpatialWeights) -> str:
    """Serialize the row-standardized W to the plain text format.

    First line is ``n row-standardized``; each following line is ``i j w``
    with 0-based indices sorted by (i, j) and weights written with full repr
    precision, so the file holds W's values bit-exactly.
    """
    m = links.row_standardized()
    rows = np.repeat(np.arange(links.n), np.diff(m.indptr))
    triples = zip(rows.tolist(), m.indices.tolist(), m.data.tolist())
    lines = [f"{links.n} row-standardized"]
    lines.extend(f"{i} {j} {w!r}" for i, j, w in triples)
    return "\n".join(lines) + "\n"


def read_weights(text: str) -> SpatialWeights:
    """Parse the plain text format written by :func:`write_weights` and
    return the link pattern.

    The header mode is ``binary`` or ``row-standardized``.  Input the
    spatial code would misuse is refused with a message naming the unit: a
    row-standardized weight other than 1/degree (within 1e-12), and then,
    as :class:`SpatialWeights` refuses them, a binary weight other than 1,
    a self-link or a link without its reverse.  When several links are at
    fault, the first by (i, j) is named.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty weights text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'n mode'")
    try:
        n = int(head[0])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}: n is not an integer") from None
    mode = head[1]
    if mode not in ("binary", "row-standardized"):
        raise ValueError(f"unknown weights mode {mode!r}")

    ii, jj, data = [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed weights line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"weights line {ln!r} indexes outside 0..{n - 1}")
        ii.append(i)
        jj.append(j)
        data.append(float(parts[2]))
    ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    order = np.lexsort((jj, ii))
    ii, jj, data = ii[order], jj[order], np.array(data, dtype=float)[order]
    code = ii * n + jj
    dup = np.flatnonzero(code[1:] == code[:-1])
    if dup.size:
        k = dup[0]
        raise ValueError(f"duplicate weights entry for pair ({ii[k]}, {jj[k]})")

    indptr = np.concatenate([[0], np.cumsum(np.bincount(ii, minlength=n))])
    if mode == "row-standardized":
        deg = np.diff(indptr)
        expected = 1.0 / np.repeat(deg, deg)
        wrong = np.flatnonzero(~(np.abs(data - expected) <= 1e-12))
        if wrong.size:
            k = wrong[0]
            raise ValueError(
                f"unit {ii[k]} has row-standardized weight {float(data[k])!r} on "
                f"its link to unit {jj[k]}; expected {float(expected[k])!r}"
            )
        data = np.ones(len(data))
    # a binary file's weights are the links' values, which the type checks
    return SpatialWeights(matrix=sp.csr_matrix((data, jj, indptr), shape=(n, n)))
