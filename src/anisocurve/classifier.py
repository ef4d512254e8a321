"""Local-minimality classification via a common calibration vector.

A profile is a local minimizer of the anisotropic graph area iff a
single vector N with phi(N) = 1 satisfies <N, nu> = phi°(nu) along the
whole generalized graph, i.e. N lies on the exposed face of every edge
normal simultaneously.  Faces are intersected as index runs on the
shared Wulff boundary polyline (exact vertices for polygons), a block of
distinct normals at a time, up to the first block whose faces empty the
intersection.  Jump edges contribute both their steep discrete normal and the limiting
horizontal normal, matching the way the relaxed area charges jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anisotropy import FACE_BLOCK_PAIRS, Anisotropy, BoundaryArc
from .energy import Profile
from .regularity import edge_unit_normals

__all__ = ["EdgeNormals", "CahnHoffmanResult", "edge_normals", "cahn_hoffman"]

JUMP_SLOPE_FACTOR = 1e4  # |du| > factor * h marks an edge as jump-like
MONOTONE_TOL = 1e-12  # |du| above this times the range of u counts as a rise or a fall
FIRST_BLOCK = 8  # faces intersected in the first block; later blocks double


@dataclass(frozen=True)
class EdgeNormals:
    normals: np.ndarray  # (n_edges, 2) unit normals
    jump_flags: np.ndarray  # (n_edges,) bool
    limit_normals: np.ndarray  # (k, 2), -+e1 per jump edge


@dataclass(frozen=True)
class CahnHoffmanResult:
    feasible: bool
    witness_arc: Optional[BoundaryArc]
    infeasibility_witness: Optional[tuple]
    monotone: str  # "nondecreasing" | "nonincreasing" | "constant" | "none"
    hypothesis_warning: Optional[str] = None


def edge_normals(u: Profile) -> EdgeNormals:
    """Subgraph edge normals plus limiting horizontal normals at jumps."""
    h = u.grid.h
    du = u.edge_differences()
    normals = edge_unit_normals(u)
    jumps = np.abs(du) > JUMP_SLOPE_FACTOR * h
    limits = np.column_stack([-np.sign(du[jumps]), np.zeros(int(jumps.sum()))])
    return EdgeNormals(normals=normals, jump_flags=jumps, limit_normals=limits)


def _monotone_class(values: np.ndarray) -> str:
    du = np.diff(values)
    tol = MONOTONE_TOL * np.ptp(values)
    up = np.any(du > tol)
    down = np.any(du < -tol)
    if up and down:
        return "none"
    if up:
        return "nondecreasing"
    if down:
        return "nonincreasing"
    return "constant"


def _blocks(count: int, m: int):
    """(start, stop) of consecutive blocks of ``count`` faces on an m-point
    polyline: FIRST_BLOCK faces, then twice as many per block up to
    FACE_BLOCK_PAIRS face-point pairs (one face at least)."""
    cap = max(1, FACE_BLOCK_PAIRS // m)
    start, size = 0, min(FIRST_BLOCK, cap)
    while start < count:
        yield start, min(start + size, count)
        start += size
        size = min(2 * size, cap)


def _first_disjoint(aniso: Anisotropy, normals: np.ndarray, face: np.ndarray):
    """The index of the first of ``normals`` whose face is disjoint from the
    mask ``face``, or None when each of them meets it."""
    for start, stop in _blocks(len(normals), len(face)):
        disjoint = ~(aniso.face_mask(normals[start:stop]) & face).any(axis=1)
        if disjoint.any():
            return start + int(np.argmax(disjoint))
    return None


def cahn_hoffman(aniso: Anisotropy, u: Profile) -> CahnHoffmanResult:
    """Search for a single calibration vector feasible on every edge face.

    Each distinct normal costs O(m) on an m-point polyline, up to the first one
    whose face empties the intersection; memory stays within a block of
    FACE_BLOCK_PAIRS face-point pairs.
    """
    warning = None
    if not aniso.symmetry_flags().partially_monotone:
        warning = "anisotropy is not partially monotone; the characterization is heuristic"

    en = edge_normals(u)
    all_normals = np.vstack([en.normals, en.limit_normals])
    # deduplicate normals: identical edges contribute the same face
    rounded = np.round(all_normals, 12)
    _, unique_idx = np.unique(rounded, axis=0, return_index=True)
    unique_idx.sort()

    normals = all_normals[unique_idx]
    m = len(aniso._face_polyline[0])
    running = np.ones(m, dtype=bool)
    witness_pair = None
    for start, stop in _blocks(len(normals), m):
        masks = aniso.face_mask(normals[start:stop])
        # the running intersection through each face of the block, on the few
        # points that survive the faces before it and its first face
        kept = np.flatnonzero(running & masks[0])
        meet = np.logical_and.accumulate(masks[:, kept], axis=0)
        alive = meet.any(axis=1)
        k = len(alive) - 1 if alive.all() else int(np.argmin(alive))
        running = np.zeros(m, dtype=bool)
        running[kept[meet[k]]] = True
        if alive[k]:
            continue
        # face start + k empties the intersection.  The witness is the first
        # earlier face disjoint from it; pairwise-overlapping faces with an
        # empty joint intersection leave witness_pair as None
        i = _first_disjoint(aniso, normals[:start + k], masks[k])
        if i is not None:
            witness_pair = (int(unique_idx[i]), int(unique_idx[start + k]))
        break

    feasible = bool(running.any())
    return CahnHoffmanResult(
        feasible=feasible,
        witness_arc=aniso._arc_from_mask(running) if feasible else None,
        infeasibility_witness=witness_pair,
        monotone=_monotone_class(u.values),
        hypothesis_warning=warning,
    )
