"""First-order primal-dual solver for the discrete graph-area energy.

The discrete problem

    min_u  sum_i phi°(-(u_{i+1}-u_i), h) + sum_j w_j |u_j - g_j|^p

is written as a saddle point over per-edge dual variables n_i
constrained to the Wulff shape, using the exact representation
phi°(w) = max_{phi(n) <= 1} <w, n>.  Dual ascent projects onto the
Wulff shape, primal descent applies the separable fidelity prox, and
the primal iterate is over-relaxed.  The method is not monotone, so
the best-energy iterate seen is tracked and returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy
from .energy import (EnergyBreakdown, Grid, Profile, check_fidelity_exponent, energy,
                     energy_totals, trapezoid_weights)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverDivergenceError",
    "solve",
    "prox_fidelity",
    "brute_force_oracle",
]


# The general-p prox stops once every Newton step is below _PROX_STEP_RTOL
# of its iterate; convergence is quadratic, so the iterate left after such a
# step is exact to rounding.  _PROX_MAX_PASSES only bounds the loop on
# non-finite input.
_PROX_STEP_RTOL = 1e-10
_PROX_MAX_PASSES = 100


class SolverDivergenceError(RuntimeError):
    """Non-finite iterate encountered; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200_000
    tol_rel: float = 1e-10
    stagnation_window: int = 100
    tau: float = 0.495
    sigma_step: float = 0.495
    over_relaxation: float = 1.0

    def __post_init__(self):
        if self.tau <= 0 or self.sigma_step <= 0:
            raise ValueError("step sizes must be positive")
        if self.tau * self.sigma_step * 4.0 > 1.0 + 1e-12:
            raise ValueError("step sizes must satisfy tau * sigma * 4 <= 1")
        if not 0.0 <= self.over_relaxation <= 1.0:
            raise ValueError("over_relaxation must lie in [0, 1]")


@dataclass(frozen=True)
class SolveReport:
    profile: Profile
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    final_stagnation: float
    dual_feasibility_max_violation: float


def prox_fidelity(v: float, g_j: float, w: float, p: float, tau: float) -> float:
    """argmin_z (z - v)^2 / (2 tau) + w |z - g_j|^p, scalar."""
    return float(
        _prox_fidelity_many(np.array([v]), np.array([g_j]), np.array([w]), p, tau)[0]
    )


def _prox_fidelity_many(
    v: np.ndarray, g: np.ndarray, w: np.ndarray, p: float, tau: float
) -> np.ndarray:
    check_fidelity_exponent(p)
    tw = tau * w
    if p == 1.0:
        return g + np.sign(v - g) * np.maximum(np.abs(v - g) - tw, 0.0)
    if p == 2.0:
        return (v + 2.0 * tw * g) / (1.0 + 2.0 * tw)
    # general p: y = |z - g| solves y + c y^(p-1) = a with a = |v - g| and
    # c = tau w p.  Newton's method on a convex increasing form of that
    # equation, started from an upper bound of the root, descends to the
    # root monotonically: for p < 2 the unknown is s = y^(p-1), solving
    # s^m + c s = a with m = 1/(p-1) > 1 from s = a^(p-1); for p > 2 it is
    # y itself, from the smaller of the bounds y <= a and c y^(p-1) <= a.
    # c is kept positive so the slope never vanishes.
    d = v - g
    a = np.abs(d)
    c = np.maximum(tw * p, np.finfo(float).tiny)
    if p < 2.0:
        m = 1.0 / (p - 1.0)
        s = a ** (p - 1.0)
        for _ in range(_PROX_MAX_PASSES):
            sm1 = s ** (m - 1.0)
            step = (sm1 * s + c * s - a) / (m * sm1 + c)
            s = np.maximum(s - step, 0.0)
            if (step <= _PROX_STEP_RTOL * s).all():
                break
        # s^m magnifies the rounding of s m-fold; where the fidelity term is
        # the smaller one, y = a - c s from the equation itself is exact
        cs = c * s
        y = np.where(2.0 * cs <= a, a - cs, s**m)
    else:
        y = a / np.maximum(c * a ** (p - 2.0), 1.0) ** (1.0 / (p - 1.0))
        for _ in range(_PROX_MAX_PASSES):
            yp2 = y ** (p - 2.0)
            step = (y + c * yp2 * y - a) / (1.0 + c * (p - 1.0) * yp2)
            y = np.maximum(y - step, 0.0)
            if (step <= _PROX_STEP_RTOL * y).all():
                break
    return g + np.sign(d) * y


def solve(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    cfg: Optional[SolverConfig] = None,
    u0: Optional[np.ndarray] = None,
) -> SolveReport:
    """Minimize the discrete energy; returns the best-energy iterate seen.

    Stops when the oscillation band of the iterate energy over the last
    ``stagnation_window`` iterations drops below ``tol_rel`` relatively.
    The band of the raw (non-monotone) energy series is used rather than
    the running best: the best value can sit still for long stretches
    while the iterate is still travelling, and stopping there returns a
    point far from the minimizer.
    """
    cfg = cfg or SolverConfig()
    check_fidelity_exponent(p)
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_cells + 1,):
        raise ValueError("datum samples must match the grid nodes")
    h = grid.h
    w = trapezoid_weights(grid)
    sigma, tau, theta = cfg.sigma_step, cfg.tau, cfg.over_relaxation

    u = g.copy() if u0 is None else np.asarray(u0, dtype=float).copy()
    if u.shape != g.shape:
        raise ValueError("warm start must match the grid nodes")
    ubar = u.copy()
    dual = np.zeros((grid.n_cells, 2))
    pairs = np.empty((grid.n_cells, 2))
    pairs[:, 1] = h

    def total_energy(values: np.ndarray) -> float:
        pairs[:, 0] = values[:-1] - values[1:]
        area = float(aniso.eval_dual_many(pairs).sum())
        return area + float((w * np.abs(values - g) ** p).sum())

    best_vals = u.copy()
    best_energy = total_energy(u)
    window = cfg.stagnation_window
    band = np.full(window, np.inf)
    band[0] = best_energy
    converged = False
    stagnation = np.inf
    iterations = 0

    for k in range(1, cfg.max_iters + 1):
        iterations = k
        # dual ascent on the edge pairs (-du, h), then Wulff projection
        dual[:, 0] += sigma * (ubar[:-1] - ubar[1:])
        dual[:, 1] += sigma * h
        dual = aniso.project_wulff_many(dual)
        # primal descent: u + tau * A^T n_1 with A the forward difference
        n1 = dual[:, 0]
        grad = np.empty_like(u)
        grad[0] = -n1[0]
        grad[1:-1] = n1[:-1] - n1[1:]
        grad[-1] = n1[-1]
        u_new = _prox_fidelity_many(u + tau * grad, g, w, p, tau)
        if not np.isfinite(u_new).all():
            raise SolverDivergenceError(k)
        ubar = u_new + theta * (u_new - u)
        u = u_new

        e = total_energy(u)
        if e < best_energy:
            best_energy = e
            best_vals = u.copy()
        band[k % window] = e
        if k >= window:
            stagnation = (band.max() - band.min()) / max(1.0, abs(e))
            if stagnation < cfg.tol_rel:
                converged = True
                break

    profile = Profile(grid, best_vals)
    violation = float(np.max(aniso.eval_many(dual)) - 1.0) if len(dual) else 0.0
    return SolveReport(
        profile=profile,
        energy=energy(aniso, profile, g, p),
        iterations=iterations,
        converged=converged,
        final_stagnation=float(stagnation),
        dual_feasibility_max_violation=max(violation, 0.0),
    )


def brute_force_oracle(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    levels: int = 21,
) -> Profile:
    """Independent minimizer for tiny grids: exhaustive scan + refinement.

    Nodal values are quantized to ``levels`` points in the maximum
    principle window [-||g||_inf, ||g||_inf]; the quantized optimum is
    then polished by a shrinking full cross-product pattern search.
    The pattern includes every diagonal move, which matters: the energy
    is piecewise linear for crystalline gauges with p = 1, and purely
    coordinate-wise refinement stalls at nonsmooth corners there.
    """
    if grid.n_cells > 4:
        raise ValueError("brute_force_oracle handles n_cells <= 4 only")
    if levels < 21:
        raise ValueError("oracle requires levels >= 21")
    g = np.asarray(g, dtype=float)
    n_nodes = grid.n_cells + 1
    bound = float(np.max(np.abs(g)))
    if bound == 0.0:
        return Profile(grid, np.zeros(n_nodes))
    axis = np.linspace(-bound, bound, levels)

    best_vals = None
    best_energy = np.inf
    # enumerate chunked over the first coordinate to bound memory
    tail_grids = np.meshgrid(*([axis] * (n_nodes - 1)), indexing="ij")
    tail = np.column_stack([t.ravel() for t in tail_grids])
    block = np.empty((len(tail), n_nodes))
    block[:, 1:] = tail
    for v0 in axis:
        block[:, 0] = v0
        totals = energy_totals(aniso, block, g, p, grid)
        k = int(np.argmin(totals))
        if totals[k] < best_energy:
            best_energy = float(totals[k])
            best_vals = block[k].copy()

    vals = _pattern_refine(aniso, grid, g, p, best_vals, bound)
    return Profile(grid, vals)


def _pattern_refine(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    vals: np.ndarray,
    bound: float,
    max_stages: int = 2000,
) -> np.ndarray:
    """Shrinking cross-product pattern search around the scan optimum.

    Evaluates center + {-w, -w/2, 0, w/2, w}^m at each stage, moves to
    the best point, halves w when the center already wins.  The energy
    is convex in the nodal values, so this converges to a global
    minimizer value even when the objective is piecewise linear.
    """
    m = len(vals)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    steps = np.meshgrid(*([offsets] * m), indexing="ij")
    pattern = np.column_stack([s.ravel() for s in steps])
    center_row = int(np.flatnonzero(np.all(pattern == 0.0, axis=1))[0])

    center = vals.copy()
    w = 2.0 * bound / 20.0
    for _ in range(max_stages):
        block = np.clip(center[None, :] + w * pattern, -bound, bound)
        totals = energy_totals(aniso, block, g, p, grid)
        k = int(np.argmin(totals))
        if totals[k] < totals[center_row]:
            center = block[k].copy()
        else:
            w *= 0.5
            if w < 1e-13 * (1.0 + bound):
                break
    return center
