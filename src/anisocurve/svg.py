"""Minimal static SVG emission (plain path elements, no dependencies)."""

from __future__ import annotations

import numpy as np

from .energy import _CSV_BLOCK_ROWS, _format_rows

__all__ = ["render_polylines"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
_WIDTH, _HEIGHT = 640, 480


def render_polylines(curves: list, labels: list | None = None) -> str:
    """Render closed or open polylines ((k, 2) arrays) into one 640 x 480 SVG string."""
    pts = np.vstack([np.asarray(c, dtype=float) for c in curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * float(span.max())
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    scale = min((_WIDTH - 20) / span[0], (_HEIGHT - 20) / span[1])

    def to_px(c):
        x = 10 + (c[:, 0] - lo[0]) * scale
        y = _HEIGHT - 10 - (c[:, 1] - lo[1]) * scale
        return np.column_stack([x, y])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for k, curve in enumerate(curves):
        xy = to_px(np.asarray(curve, dtype=float))
        blocks = [_format_rows(xy[i:i + _CSV_BLOCK_ROWS], "%.3f", " ", " L ")
                  for i in range(0, len(xy), _CSV_BLOCK_ROWS)]
        d = "M " + b"".join(blocks).decode()[:-3]
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if labels and k < len(labels):
            parts.append(
                f'<text x="{15 + 90 * k}" y="20" fill="{color}" '
                f'font-family="sans-serif" font-size="13">{labels[k]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
