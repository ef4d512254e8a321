"""Wulff shapes of a few anisotropies: measures, flags, and an SVG.

Run from the repository root:

    python3 demos/wulff_shapes.py

Writes wulff_shapes.svg next to this script.
"""

from pathlib import Path

import numpy as np

from anisocurve import Anisotropy
from anisocurve.svg import render_polylines

ANISOS = [
    ("euclidean", Anisotropy.euclidean()),
    ("ellipse(2, 0.5)", Anisotropy.ellipse(2.0, 0.5)),
    ("lp(1)", Anisotropy.lp(1.0)),
    ("lp(4)", Anisotropy.lp(4.0)),
    ("square", Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])),
]


def main():
    print(f"{'anisotropy':<16} {'|W|':>9} {'P_phi':>9} {'c_phi':>9} {'alpha0':>9} flags")
    curves, labels = [], []
    for name, aniso in ANISOS:
        m = aniso.wulff_measures()
        f = aniso.symmetry_flags()
        tags = []
        if f.elliptic:
            tags.append("elliptic")
        if f.vertical_facets:
            tags.append("vertical-facets")
        if f.partially_monotone:
            tags.append("partially-monotone")
        print(f"{name:<16} {m.area:9.5f} {m.phi_perimeter:9.5f} "
              f"{m.c_phi:9.5f} {m.alpha0:9.5f} {', '.join(tags)}")
        pts = aniso.wulff_sample(256)
        curves.append(np.vstack([pts, pts[:1]]))
        labels.append(name)
    out = Path(__file__).with_name("wulff_shapes.svg")
    out.write_text(render_polylines(curves, labels=labels))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
