"""The first-order primal-dual (PDHG) solver, kept as a test reference.

The package solves with the banded Newton method of
:func:`anisocurve.solver.solve`.  This module keeps the earlier PDHG
iteration and its fidelity prox, unchanged, so that tests can compare
Newton's energies against an independent solver.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from anisocurve import (Anisotropy, Grid, Profile, SolveReport, SolverConfig,
                        SolverDivergenceError, energy)
from anisocurve.energy import check_fidelity_exponent, trapezoid_weights

# The general-p prox stops once every Newton step is below _PROX_STEP_RTOL
# of its iterate; convergence is quadratic, so the iterate left after such a
# step is exact to rounding.  _PROX_MAX_PASSES only bounds the loop on
# non-finite input.
_PROX_STEP_RTOL = 1e-10
_PROX_MAX_PASSES = 100


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


# PDHG step sizes (_TAU * _SIGMA_STEP * 4 <= 1 keeps the iteration stable),
# over-relaxation and the length of the energy band the stop rule watches
_TAU = 0.495
_SIGMA_STEP = 0.495
_OVER_RELAXATION = 1.0
_STAGNATION_WINDOW = 100


def _solve_pdhg(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    cfg: Optional[SolverConfig] = None,
) -> SolveReport:
    """First-order primal-dual (PDHG) minimization of the discrete energy.

    The energy is written as a saddle point over per-edge dual variables
    constrained to the Wulff shape, using phi°(w) = max_{phi(n) <= 1} <w, n>.
    Dual ascent projects onto the Wulff shape, primal descent applies the
    separable fidelity prox, and the primal iterate is over-relaxed.  The
    method is not monotone, so the best-energy iterate seen is returned.

    Stops when the oscillation band of the iterate energy over the last
    _STAGNATION_WINDOW iterations drops below ``tol_rel`` relatively.
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
    sigma, tau, theta = _SIGMA_STEP, _TAU, _OVER_RELAXATION

    u = g.copy()
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
    window = _STAGNATION_WINDOW
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
        method="pdhg",
    )
