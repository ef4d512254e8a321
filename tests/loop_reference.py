"""One-at-a-time references for the block code of the diagnostics and the raster reader.

The Cahn–Hoffman test, the tangent-ball check and ``read_raster`` of
:mod:`anisocurve` work on whole arrays: faces in blocks of normals, ball
centres in blocks of centre–obstacle pairs, the raster body in one pass.
This module keeps the earlier forms, one Python step per face, per ball
centre and per raster row, so that the tests can check that both give the
same results and messages.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from anisocurve import Anisotropy, Profile, RasterSet
from anisocurve.anisotropy import check_keys, finite_number, positive_integer
from anisocurve.classifier import CahnHoffmanResult, _monotone_class, edge_normals
from anisocurve.regularity import BALL_TOL_CELLS, TangentBallReport, edge_unit_normals

CELLS = frozenset("01")


def face_mask(aniso: Anisotropy, nu: np.ndarray) -> np.ndarray:
    """The face of one normal: the polyline points within the tolerance of the
    largest <x, nu>."""
    pts, _, _, tol = aniso._face_polyline
    dots = pts @ np.asarray(nu, dtype=float)
    return dots >= dots.max() - tol


def cahn_hoffman(aniso: Anisotropy, u: Profile) -> CahnHoffmanResult:
    """The Cahn–Hoffman test with one face mask per distinct edge normal."""
    warning = None
    if not aniso.symmetry_flags().partially_monotone:
        warning = "anisotropy is not partially monotone; the characterization is heuristic"
    en = edge_normals(u)
    all_normals = np.vstack([en.normals, en.limit_normals])
    _, unique_idx = np.unique(np.round(all_normals, 12), axis=0, return_index=True)
    unique_idx.sort()
    running = True
    seen = []  # (index, face mask) of the faces intersected so far
    witness_pair = None
    for j in unique_idx:
        mask = face_mask(aniso, all_normals[j])
        running = running & mask
        if not running.any():
            witness_pair = next(((int(i), int(j)) for i, earlier in seen
                                 if not (earlier & mask).any()), None)
            break
        seen.append((j, mask))
    feasible = bool(running.any())
    return CahnHoffmanResult(
        feasible=feasible,
        witness_arc=aniso._arc_from_mask(running) if feasible else None,
        infeasibility_witness=witness_pair,
        monotone=_monotone_class(u.values),
        hypothesis_warning=warning,
    )


def normal_contact_point(aniso: Anisotropy, nu) -> np.ndarray:
    """The boundary point with outward normal nu, for one normal."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.hypot(nu[0], nu[1])
    if aniso._abq:
        axes, q = np.array(aniso._abq[:2]), aniso._abq[2]
        qd = q / (q - 1.0)
        z = np.abs(axes * nu)
        ratio = z / z.max()
        return axes * np.sign(nu) * ratio ** (qd - 1.0) * np.sum(ratio**qd) ** (-1.0 / q)
    arc = aniso._arc_from_mask(face_mask(aniso, nu))
    return 0.5 * (arc.endpoints[0] + arc.endpoints[1])


def graph_obstacles(u: Profile) -> np.ndarray:
    """Graph vertices plus the subdivision points of edges longer than 2h, one edge at a time."""
    nodes = u.grid.nodes()
    pts = [np.column_stack([nodes, u.values])]
    h = u.grid.h
    du = u.edge_differences()
    seg_len = np.hypot(du, h)
    for j in np.nonzero(seg_len > 2.0 * h)[0]:
        k = int(np.ceil(seg_len[j] / h))
        t = np.linspace(0.0, 1.0, k + 1)[1:-1]
        pts.append(np.column_stack([nodes[j] + t * h, u.values[j] + t * du[j]]))
    return np.vstack(pts)


def tangent_ball_check(aniso: Anisotropy, u: Profile, r: float) -> TangentBallReport:
    """The tangent-ball check with one contact point and one gauge call per ball centre."""
    tol = BALL_TOL_CELLS * u.grid.h
    vertices = np.column_stack([u.grid.nodes(), u.values])
    edge_nu = edge_unit_normals(u)
    nu = np.empty_like(vertices)
    nu[0] = edge_nu[0]
    nu[-1] = edge_nu[-1]
    nu[1:-1] = edge_nu[:-1] + edge_nu[1:]
    nu /= np.hypot(nu[:, 0], nu[:, 1])[:, None]
    contact = np.array([normal_contact_point(aniso, n) for n in nu])
    obstacles = graph_obstacles(u)

    def fraction(centers):
        ok = sum(float(np.min(aniso.eval_many(obstacles - c))) >= r - tol for c in centers)
        return ok / len(centers)

    return TangentBallReport(radius_tested=r,
                             fraction_verified_above=fraction(vertices + r * contact),
                             fraction_verified_below=fraction(vertices - r * contact))


def read_raster(path) -> RasterSet:
    """The raster reader that splits and checks the body one row at a time."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header must be a JSON object")
    check_keys(header, ("box", "nx", "ny"), f"{path}: raster header")
    nx, ny = (positive_integer(header[key], f"raster {key}") for key in ("nx", "ny"))
    box = header["box"]
    if not isinstance(box, list) or len(box) != 4:
        raise ValueError(f"{path}: box must be a list of four numbers")
    x_min, x_max, y_min, y_max = (finite_number(v, "raster box bound") for v in box)
    if len(lines) - 1 != ny:
        raise ValueError(f"{path}: expected {ny} grid rows, found {len(lines) - 1}")
    digits = []
    for k, line in enumerate(lines[1:]):
        row = line.split()
        if len(row) != nx:
            raise ValueError(f"{path}: row {k} has {len(row)} entries, expected {nx}")
        if not CELLS.issuperset(row):
            bad = next(tok for tok in row if tok not in CELLS)
            raise ValueError(f"{path}: row {k} has cell {bad!r}, expected 0 or 1")
        digits.append("".join(row))
    grid = np.frombuffer("".join(digits).encode(), dtype=np.uint8).reshape(ny, nx)
    return RasterSet(x_min, x_max, y_min, y_max, (grid == ord("1"))[::-1].T)
