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

from .anisotropy import Anisotropy, positive_number
from .energy import Grid, Profile, energy
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "RegularityReport",
    "TangentBallReport",
    "RefinementStudy",
    "lipschitz_report",
    "refinement_study",
    "tangent_ball_check",
]

# Labels of refinement_study: slope exponents at or below LIPSCHITZ_EXPONENT
# are bounded slopes, at or above JUMP_EXPONENT a jump on one edge; a jump
# excess that shrinks by JUMP_EXCESS_DECAY or more per level tends to 0.
LIPSCHITZ_EXPONENT = 0.25
JUMP_EXPONENT = 0.75
JUMP_EXCESS_DECAY = 0.75
JUMP_FRACTION = 0.125  # the probed jump, as a fraction of the datum's range
FLAT_SLOPE = 1e-9  # slope maxima below this count as a flat profile
MAX_PRINCIPLE_TOL = 1e-6  # lipschitz_report: how far u may leave the datum's range, times its width
BALL_TOL_CELLS = 5.0  # tangent_ball_check: a ball may overlap the graph by this many h
BALL_BLOCK_PAIRS = 2**14  # tangent_ball_check: centre-obstacle pairs per block


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
    slope_exponent: float  # beta, the least-squares slope of log L_k against log(1/h_k)
    jump_excess: list  # Delta E_k, the energy cost of a jump of J = ptp(g)/8 on level k
    base_report: SolveReport  # the solve on the unrefined grid (level 0)


def edge_unit_normals(u: Profile) -> np.ndarray:
    """Outward unit normals (-du, h)/|.| of the subgraph, one per edge."""
    h = u.grid.h
    du = u.edge_differences()
    norms = np.hypot(du, h)
    return np.column_stack([-du, np.full(len(du), h)]) / norms[:, None]


def lipschitz_report(u: Profile, g: np.ndarray) -> RegularityReport:
    """Slope maximum, minimal vertical normal component, and the
    maximum-principle margins against [-||g^-||_inf, ||g^+||_inf]; the
    principle holds if u leaves that range by at most MAX_PRINCIPLE_TOL
    (max g - min g), so a constant datum allows no excursion."""
    g = np.asarray(g, dtype=float)
    h = u.grid.h
    du = u.edge_differences()
    lip = float(np.max(np.abs(du)) / h) if len(du) else 0.0
    deviation = 1.0 / math.sqrt(1.0 + lip * lip)
    hi = float(np.max(np.maximum(g, 0.0)))
    lo = -float(np.max(np.maximum(-g, 0.0)))
    margin_low = float(np.min(u.values) - lo)
    margin_high = float(hi - np.max(u.values))
    ok = min(margin_low, margin_high) >= -MAX_PRINCIPLE_TOL * float(np.ptp(g))
    return RegularityReport(
        lipschitz_estimate=lip,
        normal_deviation_min=deviation,
        max_principle_ok=ok,
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
    """Solve on dyadically refined grids and classify the minimizers.

    Level k is solved by :func:`anisocurve.solver.solve` on the k-th
    dyadic refinement of ``grid``.  Two statistics of the minimizers u_k
    decide the label:

    - the slope exponent beta, the least-squares slope of log L_k
      against log(1/h_k), with L_k = max |du| / h.  It is 0 for bounded
      slopes and 1 for a jump that concentrates on one edge; a flat
      profile has beta = 0;
    - the jump excess Delta E_k.  At the edge with the largest |du|, the
      nodes left of it are shifted by -J/2 and the nodes right of it by
      +J/2, in the direction that enlarges the jump, with
      J = ptp(g) / 8.  Delta E_k is the exact energy of the shifted
      profile minus that of u_k.  It bounds from above the cost of the
      cheapest profile with that extra jump, so it tends to 0 only when
      a jump of size J is admissible in the limit.

    ``lipschitz`` when beta <= 0.25; ``jump_suspected`` when beta >= 0.75
    or Delta E_{k+1} <= 0.75 Delta E_k at every level; ``inconclusive``
    otherwise, which includes data whose steepest slope the grids do not
    resolve yet.
    """
    if levels < 3:
        raise ValueError("refinement_study needs at least 3 levels")
    cfg = cfg or SolverConfig()
    cells = []
    slope_maxima = []
    jump_excess = []
    base_report = None
    g_current = grid
    for _ in range(levels):
        g_samples = gspec.sample(g_current)
        report = solve(aniso, g_current, g_samples, p, cfg)
        if base_report is None:
            base_report = report
        du = report.profile.edge_differences()
        j = int(np.argmax(np.abs(du)))
        half_jump = math.copysign(0.5 * JUMP_FRACTION * float(np.ptp(g_samples)), du[j])
        shifted = report.profile.values + np.where(np.arange(len(du) + 1) > j,
                                                   half_jump, -half_jump)
        shifted_energy = energy(aniso, Profile(g_current, shifted), g_samples, p).total
        jump_excess.append(shifted_energy - report.energy.total)
        slope_maxima.append(float(np.abs(du[j]) / g_current.h))
        cells.append(g_current.n_cells)
        g_current = g_current.refine()

    # least squares in closed form: np.polyfit would load LAPACK, about 1 MB
    x = np.log(np.array(cells) / grid.length)
    x -= x.mean()
    beta = float(np.sum(x * np.log(np.maximum(slope_maxima, FLAT_SLOPE))) / np.sum(x * x))
    if beta <= LIPSCHITZ_EXPONENT:
        cls = "lipschitz"
    elif beta >= JUMP_EXPONENT or all(
            b <= JUMP_EXCESS_DECAY * a for a, b in zip(jump_excess[:-1], jump_excess[1:])):
        cls = "jump_suspected"
    else:
        cls = "inconclusive"
    return RefinementStudy(cls, cells, slope_maxima, beta, jump_excess, base_report)


def _graph_obstacles(u: Profile) -> np.ndarray:
    """Graph vertices plus subdivision points of long (jump-like) edges.

    The generalized graph includes the vertical segment of a jump; a
    vertex-only cloud would miss balls poking through that wall, so any
    edge longer than 2h is subdivided down to roughly h resolution: an
    edge j of length L_j gets the k_j - 1 interior points at t = i / k_j,
    k_j = ceil(L_j / h).
    """
    nodes = u.grid.nodes()
    h = u.grid.h
    du = u.edge_differences()
    seg_len = np.hypot(du, h)
    long_edges = np.flatnonzero(seg_len > 2.0 * h)
    parts = np.ceil(seg_len[long_edges] / h).astype(int)  # k_j
    inner = parts - 1
    edge = np.repeat(long_edges, inner)
    # i = 1 .. k_j - 1 along each edge, and t = i * (1 / k_j) as np.linspace forms it
    i = np.arange(1, len(edge) + 1) - np.repeat(np.cumsum(inner) - inner, inner)
    t = i * np.repeat(1.0 / parts, inner)
    return np.vstack([np.column_stack([nodes, u.values]),
                      np.column_stack([nodes[edge] + t * h, u.values[edge] + t * du[edge]])])


def tangent_ball_check(aniso: Anisotropy, u: Profile, r: float) -> TangentBallReport:
    """Uniform tangent Wulff-ball verification at every graph vertex.

    For each vertex, translated Wulff shapes of radius r are placed
    tangentially above and below along the vertex normal; the fraction
    of vertices whose ball avoids the graph (within 5h) is reported per
    side.  r must be a finite positive number.  The centres are measured
    against the graph BALL_BLOCK_PAIRS centre-obstacle pairs at a time,
    so the work is O(n^2) in time and O(n) in memory.
    """
    positive_number(r, "tangent ball radius")
    tol = BALL_TOL_CELLS * u.grid.h
    nodes = u.grid.nodes()
    vertices = np.column_stack([nodes, u.values])
    edge_nu = edge_unit_normals(u)
    # edge-averaged upward normal per vertex
    nu = np.empty_like(vertices)
    nu[0] = edge_nu[0]
    nu[-1] = edge_nu[-1]
    nu[1:-1] = edge_nu[:-1] + edge_nu[1:]
    nu /= np.hypot(nu[:, 0], nu[:, 1])[:, None]

    contact = aniso.normal_contact_point(nu)
    obstacles = _graph_obstacles(u)
    step = max(1, BALL_BLOCK_PAIRS // len(obstacles))

    def fraction(centers: np.ndarray) -> float:
        ok = 0
        for start in range(0, len(centers), step):
            block = centers[start:start + step, None, :]
            dmin = aniso.eval_many(obstacles - block).min(axis=1)
            ok += int(np.count_nonzero(dmin >= r - tol))
        return ok / len(centers)

    below = fraction(vertices - r * contact)
    above = fraction(vertices + r * contact)
    return TangentBallReport(
        radius_tested=r,
        fraction_verified_above=above,
        fraction_verified_below=below,
    )
