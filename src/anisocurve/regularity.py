"""Regularity diagnostics on computed profiles.

Four probes: the discrete Lipschitz constant and its algebraically
linked minimal normal deviation; the maximum principle margins; a mesh
refinement study that separates bounded slopes from jumps (a fixed
height jump concentrates on one edge, so max |du| / h grows like n);
and a uniform tangent Wulff-ball verification from both sides of the
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy
from .energy import Grid, Profile
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "RegularityReport",
    "TangentBallReport",
    "RefinementStudy",
    "lipschitz_report",
    "refinement_study",
    "tangent_ball_check",
]

LIPSCHITZ_RATIO = 1.2  # stabilization threshold for max|du|/h across levels
JUMP_RATIO = 1.8  # growth-per-level threshold flagging a concentrating jump


@dataclass(frozen=True)
class RegularityReport:
    lipschitz_estimate: float
    normal_deviation_min: float
    max_principle_ok: bool
    max_principle_margin_low: float
    max_principle_margin_high: float


@dataclass(frozen=True)
class TangentBallReport:
    radius_tested: float
    fraction_verified_above: float
    fraction_verified_below: float


@dataclass(frozen=True)
class RefinementStudy:
    classification: str  # "lipschitz" | "jump_suspected" | "inconclusive"
    cells: list
    slope_maxima: list
    base_report: SolveReport  # the solve on the unrefined grid (level 0)


def edge_unit_normals(u: Profile) -> np.ndarray:
    """Outward unit normals (-du, h)/|.| of the subgraph, one per edge."""
    h = u.grid.h
    du = u.edge_differences()
    norms = np.hypot(du, h)
    return np.column_stack([-du, np.full(len(du), h)]) / norms[:, None]


def lipschitz_report(u: Profile, g: np.ndarray, tol: float = 1e-6) -> RegularityReport:
    """Slope maximum, minimal vertical normal component, and the
    maximum-principle margins against [-||g^-||_inf, ||g^+||_inf]."""
    g = np.asarray(g, dtype=float)
    h = u.grid.h
    du = u.edge_differences()
    lip = float(np.max(np.abs(du)) / h) if len(du) else 0.0
    deviation = 1.0 / math.sqrt(1.0 + lip * lip)
    hi = float(np.max(np.maximum(g, 0.0)))
    lo = -float(np.max(np.maximum(-g, 0.0)))
    margin_low = float(np.min(u.values) - lo)
    margin_high = float(hi - np.max(u.values))
    ok = margin_low >= -tol and margin_high >= -tol
    return RegularityReport(
        lipschitz_estimate=lip,
        normal_deviation_min=deviation,
        max_principle_ok=bool(ok),
        max_principle_margin_low=margin_low,
        max_principle_margin_high=margin_high,
    )


def refinement_study(
    aniso: Anisotropy,
    grid: Grid,
    gspec,
    p: float,
    levels: int = 3,
    cfg: Optional[SolverConfig] = None,
) -> RefinementStudy:
    """Solve on dyadically refined grids and classify the slope growth.

    The slope maximum L_k = max |du| / h stabilizes for Lipschitz
    minimizers (successive ratio <= 1.2) and roughly doubles per level
    when a jump concentrates on a single edge (ratio >= 1.8).

    Each level is solved cold from the sampled datum with the same
    iteration budget, so the statistic compares equal-effort solves;
    warm starting from the coarse solution parks the iterate in the
    flat part of a degenerate minimizer family and hides the growth.
    """
    if levels < 3:
        raise ValueError("refinement_study needs at least 3 levels")
    if cfg is None:
        cfg = SolverConfig(max_iters=20_000)
    cells = []
    slope_maxima = []
    base_report = None
    g_current = grid
    for _ in range(levels):
        g_samples = gspec.sample(g_current)
        report = solve(aniso, g_current, g_samples, p, cfg)
        if base_report is None:
            base_report = report
        du = report.profile.edge_differences()
        slope_maxima.append(float(np.max(np.abs(du)) / g_current.h))
        cells.append(g_current.n_cells)
        g_current = g_current.refine()

    flat_tol = 1e-9
    if max(slope_maxima) <= flat_tol:
        return RefinementStudy("lipschitz", cells, slope_maxima, base_report)
    ratios = [
        b / a if a > flat_tol else math.inf
        for a, b in zip(slope_maxima[:-1], slope_maxima[1:])
    ]
    if all(r <= LIPSCHITZ_RATIO for r in ratios):
        cls = "lipschitz"
    elif all(r >= JUMP_RATIO for r in ratios[-2:]):
        cls = "jump_suspected"
    else:
        cls = "inconclusive"
    return RefinementStudy(cls, cells, slope_maxima, base_report)


def _graph_obstacles(u: Profile) -> np.ndarray:
    """Graph vertices plus subdivision points of long (jump-like) edges.

    The generalized graph includes the vertical segment of a jump; a
    vertex-only cloud would miss balls poking through that wall, so any
    edge longer than 2h is subdivided down to roughly h resolution.
    """
    nodes = u.grid.nodes()
    pts = [np.column_stack([nodes, u.values])]
    h = u.grid.h
    du = u.edge_differences()
    seg_len = np.hypot(du, h)
    for j in np.nonzero(seg_len > 2.0 * h)[0]:
        k = int(np.ceil(seg_len[j] / h))
        t = np.linspace(0.0, 1.0, k + 1)[1:-1]
        pts.append(
            np.column_stack(
                [nodes[j] + t * h, u.values[j] + t * du[j]]
            )
        )
    return np.vstack(pts)


def tangent_ball_check(
    aniso: Anisotropy,
    u: Profile,
    r: float,
    tol: Optional[float] = None,
) -> TangentBallReport:
    """Uniform tangent Wulff-ball verification at every graph vertex.

    For each vertex, translated Wulff shapes of radius r are placed
    tangentially above and below along the vertex normal; the fraction
    of vertices whose ball avoids the graph (within tol, default 5h)
    is reported per side.
    """
    if r <= 0:
        raise ValueError("tangent ball radius must be positive")
    h = u.grid.h
    tol = 5.0 * h if tol is None else float(tol)
    nodes = u.grid.nodes()
    vertices = np.column_stack([nodes, u.values])
    edge_nu = edge_unit_normals(u)
    # edge-averaged upward normal per vertex
    nu = np.empty_like(vertices)
    nu[0] = edge_nu[0]
    nu[-1] = edge_nu[-1]
    nu[1:-1] = edge_nu[:-1] + edge_nu[1:]
    nu /= np.hypot(nu[:, 0], nu[:, 1])[:, None]

    contact = np.array([aniso.normal_contact_point(n) for n in nu])
    obstacles = _graph_obstacles(u)

    def fraction(centers: np.ndarray) -> float:
        ok = 0
        for c in centers:
            dmin = float(np.min(aniso.eval_many(obstacles - c)))
            if dmin >= r - tol:
                ok += 1
        return ok / len(centers)

    below = fraction(vertices - r * contact)
    above = fraction(vertices + r * contact)
    return TangentBallReport(
        radius_tested=r,
        fraction_verified_above=above,
        fraction_verified_below=below,
    )
