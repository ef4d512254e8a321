"""Minimal static SVG emission (plain path elements, no dependencies)."""

from __future__ import annotations

import numpy as np

__all__ = ["render_polylines"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]


def render_polylines(
    curves: list,
    width: int = 640,
    height: int = 480,
    labels: list | None = None,
) -> str:
    """Render closed or open polylines ((k, 2) arrays) into one SVG string."""
    pts = np.vstack([np.asarray(c, dtype=float) for c in curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * float(span.max())
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    scale = min((width - 20) / span[0], (height - 20) / span[1])

    def to_px(c):
        x = 10 + (c[:, 0] - lo[0]) * scale
        y = height - 10 - (c[:, 1] - lo[1]) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, curve in enumerate(curves):
        x, y = to_px(np.asarray(curve, dtype=float))
        d = "M " + " L ".join(f"{a:.3f} {b:.3f}" for a, b in zip(x.tolist(), y.tolist()))
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if labels and k < len(labels):
            parts.append(
                f'<text x="{15 + 90 * k}" y="20" fill="{color}" '
                f'font-family="sans-serif" font-size="13">{labels[k]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
