"""Contiguity-based spatial weights.

Queen contiguity links units sharing at least one snapped vertex; rook
contiguity requires a shared snapped edge.  Coordinates are quantized to a
snap pitch before comparison so nearly-touching boundaries from noisy
sources still register as neighbors.  Weights come in binary and
row-standardized modes and round-trip through a plain text format.

Contiguity returns binary weights without self-links, whose n x n
``scipy.sparse.csr_matrix`` is the link pattern; every weights object is one
such matrix with sorted column indices, and every other view (degrees,
neighbor lists, dense arrays) is derived from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ingest import AreaUnit, AreaUnits

__all__ = [
    "SpatialWeights",
    "queen_contiguity",
    "rook_contiguity",
    "detect_islands",
    "to_weights",
    "lag",
    "write_weights",
    "read_weights",
]


@dataclass(eq=False)
class SpatialWeights:
    """Sparse spatial weights over units indexed 0..n-1.

    ``matrix`` is the n x n CSR weights matrix with sorted column indices;
    row i holds unit i's neighbors (and itself, with ``include_self``) and
    their weights.  Contiguity links are the binary weights without
    self-links: every stored value 1.0, no diagonal.
    """

    mode: str
    include_self: bool
    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def degree(self) -> np.ndarray:
        return np.diff(self.matrix.indptr)

    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-unit column indices as read-only slices of the CSR indices."""
        indices = self.matrix.indices.view()
        indices.flags.writeable = False
        return np.split(indices, self.matrix.indptr[1:-1])

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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
    return SpatialWeights(mode="binary", include_self=False, matrix=a)


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


def to_weights(
    links: SpatialWeights, mode: str, include_self: bool = False
) -> SpatialWeights:
    """Turn contiguity links into weights.

    ``mode`` is ``"binary"`` (every link weight 1) or ``"row-standardized"``
    (each row rescaled to sum to 1).  With ``include_self`` a self-link is
    added before any standardization.  Isolated units keep an all-zero row
    under row standardization; a warning names them.  ``links`` must be
    binary weights without self-links, as contiguity returns them.
    """
    if mode not in ("binary", "row-standardized"):
        raise ValueError(f"unknown weights mode {mode!r}")
    if links.mode != "binary" or links.include_self:
        raise ValueError(
            "weights must be built from contiguity links (binary, without self-links)"
        )
    w = links.matrix
    if include_self:
        w = w + sp.identity(links.n, format="csr")
    if mode == "row-standardized":
        deg = np.diff(w.indptr)
        islands = np.flatnonzero(deg == 0).tolist()
        if islands:
            warnings.warn(
                f"row standardization left all-zero rows for isolated units {islands}",
                stacklevel=2,
            )
        w = sp.csr_matrix((1.0 / np.repeat(deg, deg), w.indices, w.indptr), shape=w.shape)
    return SpatialWeights(mode=mode, include_self=include_self, matrix=w)


def lag(weights: SpatialWeights, x: np.ndarray) -> np.ndarray:
    """Spatially lagged values Wx."""
    x = np.asarray(x, dtype=float)
    if x.shape != (weights.n,):
        raise ValueError(f"x must have shape ({weights.n},), got {x.shape}")
    return weights.matrix @ x


def write_weights(weights: SpatialWeights) -> str:
    """Serialize to the plain text format.

    First line is ``n mode``; each following line is ``i j w`` with 0-based
    indices sorted by (i, j) and weights written with full repr precision so
    reading back is bit-exact.
    """
    m = weights.matrix
    rows = np.repeat(np.arange(weights.n), np.diff(m.indptr))
    links = zip(rows.tolist(), m.indices.tolist(), m.data.tolist())
    lines = [f"{weights.n} {weights.mode}"]
    lines.extend(f"{i} {j} {w!r}" for i, j, w in links)
    return "\n".join(lines) + "\n"


def read_weights(text: str) -> SpatialWeights:
    """Parse the plain text format written by :func:`write_weights`.

    ``include_self`` is inferred from the presence of self-links.  Input
    the spatial code would misuse is refused with a message naming the
    unit: self-links on some units but not all, a link without its reverse,
    a binary weight other than 1, or a row-standardized weight other than
    1/degree (within 1e-12).  When several links are at fault, the first by
    (i, j) is named.
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

    diag = ii == jj
    has_self = bool(diag.any())
    if has_self:
        lacking = np.flatnonzero(np.bincount(ii[diag], minlength=n) == 0)
        if lacking.size:
            raise ValueError(
                f"unit {lacking[0]} has no self-link while other units have one; "
                "self-links must be on every unit or on none"
            )
    one_way = np.flatnonzero(~np.isin(jj * n + ii, code))
    if one_way.size:
        i, j = ii[one_way[0]], jj[one_way[0]]
        raise ValueError(
            f"unit {i} links to unit {j} but unit {j} does not link back to "
            f"unit {i}; the link pattern must be symmetric"
        )
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ii, minlength=n))])
    deg = np.diff(indptr)
    if mode == "binary":
        expected, tol = np.ones(len(data)), 0.0
    else:
        expected, tol = 1.0 / np.repeat(deg, deg), 1e-12
    wrong = np.flatnonzero(~(np.abs(data - expected) <= tol))
    if wrong.size:
        k = wrong[0]
        raise ValueError(
            f"unit {ii[k]} has {mode} weight {float(data[k])!r} on its link to "
            f"unit {jj[k]}; expected {float(expected[k])!r}"
        )

    return SpatialWeights(
        mode=mode,
        include_self=has_self,
        matrix=sp.csr_matrix((data, jj, indptr), shape=(n, n)),
    )
