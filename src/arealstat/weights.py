"""Contiguity-based spatial weights.

Queen contiguity links units sharing at least one snapped vertex; rook
contiguity requires a shared snapped edge.  Coordinates are quantized to a
snap pitch before comparison so nearly-touching boundaries from noisy
sources still register as neighbors.  Weights come in binary and
row-standardized modes and round-trip through a plain text format.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ingest import AreaUnit

__all__ = [
    "AdjacencyList",
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
class AdjacencyList:
    """Symmetric neighbor structure over units indexed 0..n-1."""

    n: int
    neighbors: list[np.ndarray]

    def degree(self) -> np.ndarray:
        return np.array([len(nb) for nb in self.neighbors], dtype=int)


@dataclass(eq=False)
class SpatialWeights:
    """Sparse spatial weights derived from an adjacency list.

    ``rows[i]`` and ``values[i]`` hold unit i's neighbor indices and the
    matching weights, parallel and sorted by neighbor index.
    """

    adjacency: AdjacencyList
    mode: str
    include_self: bool
    rows: list[np.ndarray]
    values: list[np.ndarray]

    @property
    def n(self) -> int:
        return self.adjacency.n

    def to_csr(self) -> sp.csr_matrix:
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, r in enumerate(self.rows):
            indptr[i + 1] = indptr[i] + len(r)
        indices = np.concatenate(self.rows) if self.n else np.empty(0, dtype=int)
        data = np.concatenate(self.values) if self.n else np.empty(0)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()


def _snap_pitch(units: list[AreaUnit], snap_tolerance: float | None) -> float:
    if snap_tolerance is not None:
        if snap_tolerance <= 0:
            raise ValueError("snap tolerance must be positive")
        return float(snap_tolerance)
    xs: list[float] = []
    ys: list[float] = []
    for u in units:
        for poly in u.geometry:
            for ring in poly:
                for x, y in ring:
                    xs.append(x)
                    ys.append(y)
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    diag = math.hypot(dx, dy)
    if diag == 0.0:
        raise ValueError("degenerate geometry: bounding box has zero diagonal")
    return 1e-9 * diag


def _snap(value: float, pitch: float) -> int:
    return int(round(value / pitch))


def _collect_links(buckets: dict, n: int) -> AdjacencyList:
    links: list[set[int]] = [set() for _ in range(n)]
    for members in buckets.values():
        if len(members) < 2:
            continue
        uniq = sorted(set(members))
        for a in uniq:
            for b in uniq:
                if a != b:
                    links[a].add(b)
    neighbors = [np.array(sorted(s), dtype=int) for s in links]
    return AdjacencyList(n=n, neighbors=neighbors)


def queen_contiguity(
    units: list[AreaUnit], snap_tolerance: float | None = None
) -> AdjacencyList:
    """Neighbors share at least one snapped vertex.

    Each vertex is quantized to the snap pitch (default 1e-9 of the
    bounding-box diagonal) and hashed into a bucket; all units meeting in a
    bucket become mutual neighbors.
    """
    if len(units) < 2:
        raise ValueError("contiguity needs at least 2 units")
    pitch = _snap_pitch(units, snap_tolerance)
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, u in enumerate(units):
        mine: set[tuple[int, int]] = set()
        for poly in u.geometry:
            for ring in poly:
                # closing vertex repeats the first; skip it
                for x, y in ring[:-1]:
                    mine.add((_snap(x, pitch), _snap(y, pitch)))
        for key in mine:
            buckets[key].append(i)
    return _collect_links(buckets, len(units))


def rook_contiguity(
    units: list[AreaUnit], snap_tolerance: float | None = None
) -> AdjacencyList:
    """Neighbors share a snapped edge (consecutive vertex pair).

    Each boundary segment is keyed by its sorted pair of snapped endpoints,
    so orientation and traversal direction do not matter.
    """
    if len(units) < 2:
        raise ValueError("contiguity needs at least 2 units")
    pitch = _snap_pitch(units, snap_tolerance)
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for i, u in enumerate(units):
        mine: set[tuple] = set()
        for poly in u.geometry:
            for ring in poly:
                snapped = [(_snap(x, pitch), _snap(y, pitch)) for x, y in ring]
                for a, b in zip(snapped[:-1], snapped[1:]):
                    if a == b:
                        continue
                    mine.add((a, b) if a <= b else (b, a))
        for key in mine:
            buckets[key].append(i)
    return _collect_links(buckets, len(units))


def detect_islands(adjacency: AdjacencyList) -> list[int]:
    """Indices of units with no neighbors, ascending."""
    return [i for i, nb in enumerate(adjacency.neighbors) if len(nb) == 0]


def to_weights(
    adjacency: AdjacencyList, mode: str, include_self: bool = False
) -> SpatialWeights:
    """Turn adjacency into weights.

    ``mode`` is ``"binary"`` (every link weight 1) or ``"row-standardized"``
    (each row rescaled to sum to 1).  With ``include_self`` a self-link is
    added before any standardization.  Isolated units keep an all-zero row
    under row standardization; a warning names them.
    """
    if mode not in ("binary", "row-standardized"):
        raise ValueError(f"unknown weights mode {mode!r}")
    rows: list[np.ndarray] = []
    values: list[np.ndarray] = []
    islands = []
    for i, nb in enumerate(adjacency.neighbors):
        idx = nb
        if include_self:
            idx = np.unique(np.append(nb, i))
        w = np.ones(len(idx), dtype=float)
        if mode == "row-standardized":
            total = w.sum()
            if total > 0:
                w = w / total
            else:
                islands.append(i)
        rows.append(idx.astype(int))
        values.append(w)
    if islands:
        warnings.warn(
            f"row standardization left all-zero rows for isolated units {islands}",
            stacklevel=2,
        )
    return SpatialWeights(
        adjacency=adjacency,
        mode=mode,
        include_self=include_self,
        rows=rows,
        values=values,
    )


def lag(weights: SpatialWeights, x: np.ndarray) -> np.ndarray:
    """Spatially lagged values Wx."""
    x = np.asarray(x, dtype=float)
    if x.shape != (weights.n,):
        raise ValueError(f"x must have shape ({weights.n},), got {x.shape}")
    out = np.zeros(weights.n)
    for i in range(weights.n):
        if len(weights.rows[i]):
            out[i] = float(weights.values[i] @ x[weights.rows[i]])
    return out


def write_weights(weights: SpatialWeights) -> str:
    """Serialize to the plain text format.

    First line is ``n mode``; each following line is ``i j w`` with 0-based
    indices sorted by (i, j) and weights written with full repr precision so
    reading back is bit-exact.
    """
    lines = [f"{weights.n} {weights.mode}"]
    for i in range(weights.n):
        for j, w in zip(weights.rows[i], weights.values[i]):
            lines.append(f"{i} {int(j)} {float(w)!r}")
    return "\n".join(lines) + "\n"


def read_weights(text: str) -> SpatialWeights:
    """Parse the plain text format written by :func:`write_weights`.

    The adjacency reconstructed from the links drops any self-links;
    ``include_self`` is inferred from their presence.  Input the spatial
    code would misuse is refused with a message naming the unit: self-links
    on some units but not all, a link without its reverse, a binary weight
    other than 1, or a row-standardized weight other than 1/degree (within
    1e-12).
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

    entries: list[dict[int, float]] = [dict() for _ in range(n)]
    has_self = False
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed weights line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"weights line {ln!r} indexes outside 0..{n - 1}")
        if j in entries[i]:
            raise ValueError(f"duplicate weights entry for pair ({i}, {j})")
        entries[i][j] = w
        if i == j:
            has_self = True

    tol = 0.0 if mode == "binary" else 1e-12
    for i, row in enumerate(entries):
        if has_self and i not in row:
            raise ValueError(
                f"unit {i} has no self-link while other units have one; "
                "self-links must be on every unit or on none"
            )
        for j, w in row.items():
            if i not in entries[j]:
                raise ValueError(
                    f"unit {i} links to unit {j} but unit {j} does not link "
                    f"back to unit {i}; the link pattern must be symmetric"
                )
            expected = 1.0 if mode == "binary" else 1.0 / len(row)
            if not abs(w - expected) <= tol:
                raise ValueError(
                    f"unit {i} has {mode} weight {w!r} on its link to unit "
                    f"{j}; expected {expected!r}"
                )

    neighbors = [
        np.array(sorted(k for k in row if k != i), dtype=int)
        for i, row in enumerate(entries)
    ]
    rows = [np.array(sorted(row), dtype=int) for row in entries]
    values = [
        np.array([entries[i][j] for j in rows[i]], dtype=float) for i in range(n)
    ]
    return SpatialWeights(
        adjacency=AdjacencyList(n=n, neighbors=neighbors),
        mode=mode,
        include_self=has_self,
        rows=rows,
        values=values,
    )
