"""SVG emission: path data against per-point formatting."""

import re
import warnings

import numpy as np
import pytest

from anisocurve.svg import render_polylines


def test_path_data_matches_per_point_formatting():
    t = np.linspace(0.0, 2.0 * np.pi, 33)
    closed = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    closed[-1] = closed[0]
    s = np.linspace(-1.0, 3.0, 17)
    open_curve = np.column_stack([s, np.exp(-s) - 0.5])
    svg = render_polylines([closed, open_curve], labels=["closed", "open"])

    # the 640 x 480 canvas fitted to both curves with a 5% pad and a 10 px margin
    pts = np.vstack([closed, open_curve])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.05 * float((hi - lo).max())
    lo, hi = lo - pad, hi + pad
    scale = min(620 / (hi - lo)[0], 460 / (hi - lo)[1])
    expected = []
    for curve in (closed, open_curve):
        x = 10 + (curve[:, 0] - lo[0]) * scale
        y = 480 - 10 - (curve[:, 1] - lo[1]) * scale
        points = [f"{a:.3f} {b:.3f}" for a, b in zip(x.tolist(), y.tolist())]
        expected.append("M " + " L ".join(points))
    assert re.findall(r'<path d="([^"]*)"', svg) == expected


@pytest.mark.parametrize("points", [0, 1, 8191, 8192, 8193, 16385])
def test_path_data_matches_per_point_formatting_across_blocks(points):
    curve = np.random.default_rng(points).uniform([-5.0, -4.0], [5.0, 4.0], (points, 2))
    frame = np.array([[-5.0, -4.0], [5.0, 4.0]])  # the canvas: the curve is inside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_polylines([curve, frame])
    scale = min(620 / 11.0, 460 / 9.0)  # the 10 x 8 box with a 5% pad of its larger side
    expected = []
    for c in (curve, frame):
        x = 10 + (c[:, 0] + 5.5) * scale
        y = 480 - 10 - (c[:, 1] + 4.5) * scale
        expected.append("M " + " L ".join("%.3f %.3f" % p for p in zip(x.tolist(), y.tolist())))
    assert re.findall(r'<path d="([^"]*)"', svg) == expected
