"""Deterministic SVG choropleth rendering.

Maps are drawn by hand into SVG text so identical inputs always produce
byte-identical files: no timestamps, no library version strings, and all
coordinates formatted at fixed precision.
"""

from __future__ import annotations

import html

import numpy as np

from .hotspot import CLASS_ORDER
from .ingest import AreaUnit, AreaUnits

__all__ = [
    "SEQUENTIAL_REDS",
    "HOTSPOT_PALETTE",
    "CATEGORICAL_PALETTE",
    "quantile_bins",
    "render_choropleth",
]

SEQUENTIAL_REDS = ["#fee5d9", "#fcae91", "#fb6a4a", "#de2d26", "#a50f15"]

HOTSPOT_PALETTE = dict(
    zip(CLASS_ORDER, ["#08519c", "#3182bd", "#6baed6", "#f0f0f0", "#fc9272", "#de2d26", "#a50f15"])
)

CATEGORICAL_PALETTE = [
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
    "#1f78b4",
    "#b2df8a",
    "#fb9a99",
    "#cab2d6",
]

_WIDTH = 800.0
_MAP_TOP = 40.0
_MAP_BOTTOM = 560.0
_HEIGHT = 640.0
_PAD = 10.0


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return html.escape(text, quote=False)


def quantile_bins(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign 5 lower-closed quantile bins.

    Edges sit at the 20/40/60/80 percent quantiles; a value's bin is the
    number of edges at or below it, so each bin is closed on its lower
    edge.  Returns (bin indices 0..4, the 4 edges).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-d array")
    if np.isnan(v).any():
        raise ValueError("values contain missing values")
    edges = np.quantile(v, [0.2, 0.4, 0.6, 0.8])
    bins = (v[:, None] >= edges[None, :]).sum(axis=1)
    return bins, edges


def _transform(units: AreaUnits) -> tuple[np.ndarray, np.ndarray]:
    """Map coordinates of every vertex: the outer rings' bounding box
    scaled to fit the map frame, centred, y pointing down."""
    outer = np.zeros(len(units.ring_offsets) - 1, dtype=bool)
    outer[units.polygon_offsets[:-1]] = True
    box = units.xy[np.repeat(outer, np.diff(units.ring_offsets))]
    minx, miny = box.min(axis=0).tolist()
    maxx, maxy = box.max(axis=0).tolist()
    dx = maxx - minx
    dy = maxy - miny
    map_w = _WIDTH - 2 * _PAD
    map_h = _MAP_BOTTOM - _MAP_TOP
    if dx == 0 and dy == 0:
        scale = 1.0
    else:
        sx = map_w / dx if dx > 0 else np.inf
        sy = map_h / dy if dy > 0 else np.inf
        scale = min(sx, sy)
    offx = _PAD + 0.5 * (map_w - dx * scale)
    offy = _MAP_TOP + 0.5 * (map_h - dy * scale)
    return offx + (units.xy[:, 0] - minx) * scale, offy + (maxy - units.xy[:, 1]) * scale


def _unit_paths(units: AreaUnits) -> list[str]:
    """Each unit's SVG path data, one ``%``-format per ring (``'%.3f' %``
    prints a float as ``f"{:.3f}"`` does); the closing vertex is implied
    by ``Z``."""
    px, py = _transform(units)
    ends = units.ring_offsets
    drawn = np.ones(len(px), dtype=bool)
    drawn[ends[1:] - 1] = False
    flat = np.column_stack([px, py])[drawn].ravel().tolist()
    rings, k = [], 0
    for m in (np.diff(ends) - 1).tolist():
        fmt = "M %.3f %.3f" + " L %.3f %.3f" * (m - 1) + " Z"
        rings.append(fmt % tuple(flat[k : k + 2 * m]))
        k += 2 * m
    first = units.polygon_offsets[units.unit_offsets].tolist()
    return [" ".join(rings[a:b]) for a, b in zip(first[:-1], first[1:])]


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    # entries are (color, label); slots split the full width evenly
    slot = (_WIDTH - 2 * _PAD) / len(entries)
    out = []
    for k, (color, label) in enumerate(entries):
        x = _PAD + k * slot
        out.append(
            f'<rect x="{x:.3f}" y="585" width="16" height="16" '
            f'fill="{color}" stroke="#333333" stroke-width="0.5" />'
        )
        out.append(
            f'<text x="{x + 20:.3f}" y="598" font-family="sans-serif" '
            f'font-size="12" fill="#222222">{_escape(label)}</text>'
        )
    return out


def render_choropleth(
    units: AreaUnits | list[AreaUnit],
    values,
    kind: str = "quantile",
    title: str = "",
) -> str:
    """Render one choropleth as a complete SVG document string.

    ``kind`` selects the coloring rule: "quantile" bins numeric values into
    5 lower-closed quantile classes, "hotspot" expects the 7 hot/cold class
    labels, and "group" expects positive integer group labels.
    """
    units = AreaUnits.of(units)
    if not len(units):
        raise ValueError("no units to render")
    if kind not in ("quantile", "hotspot", "group"):
        raise ValueError(f"unknown choropleth kind {kind!r}")
    if len(values) != len(units):
        raise ValueError(
            f"got {len(values)} values for {len(units)} units"
        )

    if kind == "quantile":
        bins, edges = quantile_bins(np.asarray(values, dtype=float))
        fill = [SEQUENTIAL_REDS[b] for b in bins]
        labels = (
            [f"< {edges[0]:.6g}"]
            + [f"[{edges[k]:.6g}, {edges[k + 1]:.6g})" for k in range(3)]
            + [f">= {edges[3]:.6g}"]
        )
        legend = list(zip(SEQUENTIAL_REDS, labels))
    elif kind == "hotspot":
        bad = sorted({c for c in values if c not in HOTSPOT_PALETTE})
        if bad:
            raise ValueError(f"unknown hotspot classes {bad}")
        fill = [HOTSPOT_PALETTE[c] for c in values]
        legend = [(HOTSPOT_PALETTE[c], c) for c in CLASS_ORDER]
    else:
        groups = sorted(set(int(g) for g in values))
        lut = {
            g: CATEGORICAL_PALETTE[k % len(CATEGORICAL_PALETTE)]
            for k, g in enumerate(groups)
        }
        fill = [lut[int(g)] for g in values]
        legend = [(lut[g], f"group {g}") for g in groups]

    paths = units.memo("svg_paths", _unit_paths)
    titles = units.memo("svg_titles", lambda u: [_escape(uid) for uid in u.ids])
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff" />',
    ]
    if title:
        lines.append(
            '<text x="400" y="24" text-anchor="middle" font-family="sans-serif" '
            f'font-size="16" fill="#111111">{_escape(title)}</text>'
        )
    for title, d, color in zip(titles, paths, fill):
        lines.append(
            f'<path d="{d}" fill="{color}" '
            'fill-rule="evenodd" stroke="#333333" stroke-width="0.5">'
            f"<title>{title}</title></path>"
        )
    lines.extend(_legend(legend))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
