"""Local-minimality classification via a common calibration vector.

A profile is a local minimizer of the anisotropic graph area iff a
single vector N with phi(N) = 1 satisfies <N, nu> = phi°(nu) along the
whole generalized graph, i.e. N lies on the exposed face of every edge
normal simultaneously.  Faces are intersected as index runs on the
shared Wulff boundary polyline (exact vertices for polygons).  Jump
edges contribute both their steep discrete normal and the limiting
horizontal normal, matching the way the relaxed area charges jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy, BoundaryArc
from .energy import Profile
from .regularity import edge_unit_normals

__all__ = ["EdgeNormals", "CahnHoffmanResult", "edge_normals", "cahn_hoffman"]

JUMP_SLOPE_FACTOR = 1e4  # |du| > factor * h marks an edge as jump-like
MONOTONE_TOL = 1e-12  # |du| above this times the range of u counts as a rise or a fall


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


def cahn_hoffman(aniso: Anisotropy, u: Profile) -> CahnHoffmanResult:
    """Search for a single calibration vector feasible on every edge face."""
    warning = None
    if not aniso.symmetry_flags().partially_monotone:
        warning = "anisotropy is not partially monotone; the characterization is heuristic"

    en = edge_normals(u)
    all_normals = np.vstack([en.normals, en.limit_normals])
    # deduplicate normals: identical edges contribute the same face
    rounded = np.round(all_normals, 12)
    _, unique_idx = np.unique(rounded, axis=0, return_index=True)
    unique_idx.sort()

    running = True
    seen = []  # (index, face mask) of the faces intersected so far
    witness_pair = None
    for j in unique_idx:
        mask = aniso.face_mask(all_normals[j])
        running = running & mask
        if not running.any():
            # the first earlier face disjoint from this one; pairwise-overlapping
            # faces with an empty joint intersection leave witness_pair as None
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
