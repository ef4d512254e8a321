"""Exact chain sweep and banded Newton solver for the discrete graph-area energy.

The discrete problem

    min_u  E(u) = sum_i phi°(-(u_{i+1}-u_i), h) + sum_j w_j |u_j - g_j|^p

has one term per edge, a convex function of one difference, and one
term per node.  :func:`solve` picks the method from the input:

- a polygon gauge takes :func:`_solve_chain`, built on an exact
  dynamic-programming sweep along the chain (:func:`_chain_sweep`).
  The edge term's slope levels and kinks come from the upper envelope
  of the vertex lines that the gauge builds once, the same envelope
  that evaluates phi°.
  With a piecewise-linear edge term and a fidelity that is linear or
  quadratic in each unknown, each message of the forward pass is a
  convex piecewise-linear or piecewise-quadratic function, kept
  exactly, and a backward pass reads the minimizer off them.  On an
  envelope of at most ``_LOCAL_LEVELS`` levels a message is edited in
  place, band by band, so a node costs about the same however long the
  message grows: a quadratic message keeps its points in a deque per
  band, the staircase of p = 1 its jumps in a heap-ordered set per band.
  Denser envelopes are rebuilt with whole-array operations at every
  node.  At p = 1
  and p = 2 one sweep solves the problem: no iterations, tolerance or
  smoothing, and the report says ``iterations = 1``,
  ``converged = True`` and ``final_stagnation = 0.0``.  At any other p
  each step of a proximal Newton method replaces the fidelity by its
  quadratic model and sweeps that model plus the exact edge terms.
- every other input takes :func:`_solve_newton`.  The Hessian is
  tridiagonal for every gauge, and a damped Newton method solves the
  tridiagonal system H d = -grad E in O(n) per step (cyclic reduction
  down to a Thomas sweep) by an elimination that never subtracts, so the
  fidelity's curvature counts even where it is far below the edges' (a
  cell far below the datum's size).

Both iterative methods run one loop, :func:`_descend`: a step from the
method's model, an Armijo backtrack along it, and a continuation in the
smoothing width.  Each step, like each smoothed term, yields its value
before its derivatives, so a line-search trial reads the first yield
alone.  Both methods need second derivatives, so the nonsmooth pieces are
smoothed with a relative width eps: |t|^p of the fidelity becomes
(t^2 + (eps S)^2)^(p/2) by :func:`_smoothed_power`, with S the datum's
range plus the interval length, at every p that a method iterates on
(every p for Newton, every p other than 1 and 2 for the chain).  Above
p = 2 this keeps a node curvature of order (eps S)^(p-2) at u = g, where
|t|^p has none.  Newton's gauge term uses
:meth:`Anisotropy.smoothed_dual` at width eps h (a smoothed |r|^q' for
lp(q > 2)).  The chain never smooths the gauge: since :func:`solve`
sends every polygon to the chain, the polygon branch of
``smoothed_dual``, a log-sum-exp over the m lines of the same envelope,
serves only the tests' Newton reference.  eps starts at 1e-2 and
shrinks each time the iteration settles (five-fold for Newton, a
thousandfold for the chain), down to a fixed floor of 1e-10
(continuation); Newton problems with no nonsmooth
piece (p >= 2 and a smooth dual gauge) start at the floor.  Every
smoothed term is an upper bound of the exact one; at the floor the
excess is at most about 1e-10 (S + h log m) per unit length.  The floor
is not lower because the energy changes across a smoothed kink, about
eps h, must stay well above the rounding of the energy sum for the line
search to resolve them.  The smoothing also scatters the nodes that the
exact minimizer keeps on the datum by about eps S; the final polish of
:func:`solve` puts them back.  A number that leaves the floats becomes
NaN; a NaN step or sweep, or an infinite energy, raises
:class:`SolverDivergenceError`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy, positive_integer, positive_number
from .energy import (EnergyBreakdown, Grid, Profile, check_fidelity_exponent, energy,
                     energy_totals, trapezoid_weights)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverDivergenceError",
    "solve",
    "brute_force_oracle",
]


# Smoothing continuation of _descend: eps starts at _EPS_START and is
# multiplied by _EPS_FACTOR (Newton) once the relative decrement drops below
# _STAGE_TOL * eps, until it reaches _EPS_FLOOR.  The proximal Newton method
# of the chain multiplies by _CHAIN_EPS_FACTOR instead: each stage costs at
# least one sweep, and with exact edge terms a coarser schedule loses nothing.
_EPS_START = 1e-2
_EPS_FLOOR = 1e-10
_EPS_FACTOR = 0.2
_CHAIN_EPS_FACTOR = 1e-3
_STAGE_TOL = 1e-2
_ARMIJO = 0.25  # sufficient-decrease fraction of the backtracking line search
# relative diagonal shift that keeps the Hessian definite where the smoothed
# energy is flat to rounding: _RIDGE times the geometric mean of the largest
# node (fidelity) and edge curvatures, or the largest edge curvature where no
# node has any.  The two grow apart like h^-2 as the cells shrink: a shift
# relative to the edges alone would swamp the node curvatures that move the
# profile as a whole, and one relative to the nodes alone leaves the nearly
# flat directions of a smoothed polygon gauge undamped
_RIDGE = 1e-14
# the final polish may raise the exact energy by this much (relative), the
# rounding of an energy sum
_ROUNDING = 1e-14
# the polish puts nodes this close to the datum (relative to the scale of u)
# back on it
_SNAP = 1e3 * _EPS_FLOOR
_THOMAS_MAX = 128  # cyclic reduction hands systems this small to a Thomas sweep
# a chain sweep, quadratic or staircase, edits its slope bands locally on
# envelopes of at most this many levels, where that is faster than the
# whole-array sweep: more levels make narrower bands, between which a node
# moves more points
_LOCAL_LEVELS = 5
# the local sweep writes a band's points out in full once the fidelity updates
# it keeps for them would add more than this many times the band's largest
# |level| to one of them
_LOCAL_SLACK = 64.0
_ORACLE_LEVELS = 21  # brute_force_oracle: lattice points per node


class SolverDivergenceError(RuntimeError):
    """Non-finite iterate encountered; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the iterative methods.

    ``max_iters`` caps the Newton steps of :func:`solve`, or its chain
    sweeps on a polygon gauge, and ``tol_rel`` bounds the final relative
    decrement of either.  Neither applies at p = 1 and p = 2 on a polygon
    gauge, where a single sweep is exact.
    """

    max_iters: int = 200_000
    tol_rel: float = 1e-10

    def __post_init__(self):
        positive_integer(self.max_iters, "solver max_iters")
        positive_number(self.tol_rel, "solver tol_rel")


@dataclass(frozen=True)
class SolveReport:
    profile: Profile
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    final_stagnation: float
    dual_feasibility_max_violation: float
    # the method :func:`solve` chose, "chain" or "newton"; a report built
    # elsewhere may leave it empty
    method: str = ""


def solve(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    cfg: Optional[SolverConfig] = None,
) -> SolveReport:
    """Minimize the discrete energy; the method depends on the input only.

    A polygon gauge (``aniso.kind == "polygon"``, which includes lp(1)
    and generic gauges) takes :func:`_solve_chain`, and ``method`` in the
    report is ``"chain"``.  At p = 1 and p = 2 that is one exact sweep with
    no stopping rule, so ``iterations`` is 1, ``converged`` is true,
    ``final_stagnation`` is 0, and ``cfg.max_iters`` and ``cfg.tol_rel``
    do not apply; at any other p it is a proximal Newton method whose
    ``iterations`` count sweeps.  Every other input takes the damped
    Newton method of :func:`_solve_newton` (``method`` ``"newton"``).
    Each function describes its report fields.  A datum with a non-finite
    sample raises :class:`SolverDivergenceError` at iteration 1, and a
    result whose exact energy overflows raises it at the last iteration.

    Either way the result is then polished: nodes within 1e-7 S of the
    datum are put back on it, and the profile is truncated to the datum's
    range, which is the maximum principle.  Each is kept unless it raises
    the exact energy beyond rounding, which truncation can do under a
    gauge that is not mirror-symmetric.  The reported energy is the exact
    one, from :func:`anisocurve.energy.energy`.
    ``dual_feasibility_max_violation`` is measured on the dual field
    grad_w phi°_eps(-du, h): for Newton smoothed at the floor width, where
    converged solves end, and for the chain, which never smooths, the vertex
    of the envelope's line on top at each edge.  The field lies in the Wulff
    shape up to rounding.  Cells whose half width is below the smallest
    normal float raise ValueError.
    """
    check_fidelity_exponent(p)
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_cells + 1,):
        raise ValueError("datum samples must match the grid nodes")
    if 0.5 * grid.h < np.finfo(float).tiny:
        raise ValueError(f"cells of width {grid.h:.3g} are too short to solve on: half a cell "
                         "is below the smallest normal float")
    if not np.isfinite(g).all():
        raise SolverDivergenceError(1)
    method = _solve_chain if aniso.kind == "polygon" else _solve_newton
    return _run(method, aniso, grid, g, p, cfg or SolverConfig())


def _run(method, aniso: Anisotropy, grid: Grid, g: np.ndarray, p: float,
         cfg: SolverConfig) -> SolveReport:
    """Run ``method(aniso, grid, g, p, w, scale, cfg)``, w the trapezoid weights, then
    polish and report the iterate it returns, as :func:`solve` describes."""
    w = trapezoid_weights(grid)
    # the scale of u: the datum's range plus the interval length (for gauges
    # whose cheapest slope is not zero).  It bounds the Newton steps and sets
    # the fidelity's smoothing width eps * scale.
    scale = float(np.ptp(g)) + grid.length
    u, iterations, converged, stagnation = method(aniso, grid, g, p, w, scale, cfg)
    if not np.isfinite(u).all():
        raise SolverDivergenceError(iterations)

    def polished(profile, report, values):
        if values.tobytes() == profile.values.tobytes():  # nothing to score
            return profile, report
        candidate = Profile(grid, values)
        candidate_energy = energy(aniso, candidate, g, p)
        if candidate_energy.total <= report.total * (1.0 + _ROUNDING):
            return candidate, candidate_energy
        return profile, report

    profile = Profile(grid, u)
    report_energy = energy(aniso, profile, g, p)
    if not math.isfinite(report_energy.total):
        raise SolverDivergenceError(iterations)
    profile, report_energy = polished(
        profile, report_energy, np.where(np.abs(u - g) <= _SNAP * scale, g, u))
    profile, report_energy = polished(
        profile, report_energy, np.clip(profile.values, g.min(), g.max()))
    r = -np.diff(profile.values)
    if method is _solve_chain:  # the chain never smooths: the vertex of the line on top
        slopes, heights, handover = aniso.dual_envelope
        k = (grid.h * handover).searchsorted(r)
        n1, n2 = slopes[k], heights[k]
    else:
        _, (n1, _, n2) = aniso.smoothed_dual(r, grid.h, _EPS_FLOOR)
    violation = float(np.max(aniso.eval_many(np.column_stack([n1, n2]))) - 1.0)
    return SolveReport(
        profile=profile,
        energy=report_energy,
        iterations=iterations,
        converged=converged,
        final_stagnation=float(stagnation),
        dual_feasibility_max_violation=max(violation, 0.0),
        method=method.__name__.removeprefix("_solve_"),
    )


def _solve_newton(
    aniso: Anisotropy, grid: Grid, g: np.ndarray, p: float, w: np.ndarray, scale: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, bool, float]:
    """Damped Newton steps from u = g on the smoothed energy, run by :func:`_descend`.

    Each step yields the smoothed energy, which is all a line-search trial
    reads, then solves the tridiagonal Newton system H d = -grad by
    :func:`_solve_path_laplacian`, as H is the edges' curvatures on a path
    plus the nodes', and yields d and the decrease -grad . d, the squared
    Newton decrement.  The fidelity is smoothed at every p, so at u = g
    each node has a curvature even above p = 2.  eps starts at the floor
    when no term is nonsmooth (p >= 2 and a smooth dual gauge).
    ``iterations`` counts Newton systems solved.
    """
    h = grid.h

    def step(u: np.ndarray, eps: float):
        area = aniso.smoothed_dual(u[:-1] - u[1:], h, eps)
        fid = _smoothed_power(u - g, p, eps * scale)
        yield float(next(area).sum() + (w * next(fid)).sum())
        (da, dda, _), (dfid, ddfid) = next(area), next(fid)
        grad, excess = w * dfid, w * ddfid
        grad[:-1] += da
        grad[1:] -= da
        excess += _RIDGE * (math.sqrt(excess.max()) * math.sqrt(dda.max()) or dda.max())
        d = _solve_path_laplacian(dda, excess, -grad)
        yield d, -float(grad @ d)

    eps = _EPS_FLOOR if p >= 2.0 and aniso.smooth_dual else _EPS_START
    return _descend(g.copy(), eps, _EPS_FACTOR, scale, step, cfg)


def _solve_chain(
    aniso: Anisotropy, grid: Grid, g: np.ndarray, p: float, w: np.ndarray, scale: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, bool, float]:
    """Minimize for a polygon gauge by exact chain sweeps (:func:`_chain_sweep`).

    At p = 1 and p = 2 every term is piecewise linear or quadratic, so one
    sweep with the datum as centres and the trapezoid weights gives the
    exact minimizer: ``iterations = 1``, ``converged`` true and
    ``final_stagnation = 0``.

    At any other p :func:`_descend` runs a proximal Newton method (Lee, Sun
    & Saunders, "Proximal Newton-type methods for minimizing composite
    functions", SIAM J. Optim. 24, 2014) whose steps are sweeps.  Only the
    fidelity is smoothed, to (t^2 + (eps S)^2)^(p/2); the edge terms psi
    stay exact.  Each step replaces the smoothed fidelity F by its
    second-order model at u, the weighted quadratic
    sum_j W_j (x_j - c_j)^2 + const with W_j = w_j f''_j / 2 and
    c_j = u_j - f'_j / f''_j, and one sweep minimizes that model plus psi.
    The step d = u_hat - u predicts the decrease
    -(grad F . d + psi(u + d) - psi(u)).  The line search reads the energy
    alone, psi plus the first yield of :func:`_smoothed_power`.
    ``iterations`` counts sweeps.
    """
    # psi(r) = phi°(r, h) = max_k s_k r + c_k h over the gauge's envelope: psi(-t) has
    # slopes -s_m < ... < -s_1 and kinks at -h times the hand-over points
    s, _, handover = aniso.dual_envelope
    levels, kinks = -s[::-1], -(grid.h * handover)[::-1]
    if p in (1.0, 2.0):
        return _chain_sweep(levels, kinks, g, w, p == 2.0), 1, True, 0.0
    # a model curvature floor, relative to the edge terms' slope per unit of u;
    # it keeps the sweep finite where f'' vanishes to rounding (large p)
    ridge = _RIDGE * float(np.abs(levels).max()) / scale

    def edges(u: np.ndarray) -> float:
        t = np.diff(u)  # psi(-t) for t = u_{i+1} - u_i
        return float(aniso.eval_dual_many(np.column_stack([-t, np.full_like(t, grid.h)])).sum())

    def step(u: np.ndarray, eps: float):
        fid, area = _smoothed_power(u - g, p, eps * scale), edges(u)
        yield area + float(w @ next(fid))
        dfid, ddfid = next(fid)
        grad, weights = w * dfid, 0.5 * (w * ddfid) + ridge
        d = _chain_sweep(levels, kinks, u - 0.5 * grad / weights, weights, True) - u
        yield d, area - edges(u + d) - float(grad @ d)

    return _descend(g.copy(), _EPS_START, _CHAIN_EPS_FACTOR, scale, step, cfg)


def _descend(u, eps, factor, scale, step, cfg):
    """Damped descent from u on an energy smoothed at width eps, with continuation.

    ``step(u, eps)`` yields the smoothed energy E at u, then a direction d
    and the decrease ``gain`` that the method's model predicts for u + d.
    A trial reads E alone, ``next(step(u + t d, eps))``, so it costs no
    derivatives.  The line search halves t from min(1, scale / max|d|)
    until E(u + t d) <= E(u) - 1/4 t gain < E(u) (Armijo), and gives up
    once the decrease it asks for is below the rounding of E.  The relative
    decrement gain / (2 |E|) estimates the relative distance to the
    smoothed minimum.  A smoothing stage ends after a step whose decrement
    is at most 1e-2 eps or whose line search gave up: eps is multiplied by
    ``factor``, down to the floor.  There the solve converges once the
    decrement is at most ``cfg.tol_rel`` (that step is still taken) and
    stops when the line search gives up; ``cfg.max_iters`` caps the steps.
    A non-finite d raises :class:`SolverDivergenceError`.  Returns u, the
    steps taken, whether they converged and the last relative decrement.
    """
    decrement = math.inf
    for iterations in range(1, cfg.max_iters + 1):
        value, (d, gain) = step(u, eps)
        if not np.isfinite(d).all():
            raise SolverDivergenceError(iterations)
        gain = max(0.0, gain)
        decrement = gain / (2.0 * abs(value)) if gain else 0.0
        t = min(1.0, scale / max(float(np.abs(d).max()), 1e-300))
        moved = False
        while not moved and value - _ARMIJO * t * gain < value:
            trial = u + t * d
            new = next(step(trial, eps))
            moved = new < value and new <= value - _ARMIJO * t * gain
            t *= 0.5
        if moved:
            u = trial
        at_floor = eps <= _EPS_FLOOR
        if at_floor and decrement <= cfg.tol_rel:
            return u, iterations, True, decrement
        if not at_floor and (not moved or decrement <= max(cfg.tol_rel, _STAGE_TOL * eps)):
            eps = max(eps * factor, _EPS_FLOOR)
        elif not moved:  # no representable decrease left at the floor
            break
    return u, iterations, False, decrement


def _chain_sweep(
    levels: np.ndarray, kinks: np.ndarray, centres: np.ndarray, weights: np.ndarray,
    quadratic: bool,
) -> np.ndarray:
    """The exact minimizer of sum_j W_j |u_j - c_j|^q + sum_i psi(u_i - u_{i+1}), q = 1 or 2.

    Dynamic programming along the chain (Kolmogorov, Pock & Rolinek,
    "Total variation on a tree", SIAM J. Imaging Sci. 9, 2016): the
    message M_j(x) is the least energy of nodes 0..j with u_j = x, and

        M_j(y) = W_j |y - c_j|^q + min_x [M_{j-1}(x) + psi(x - y)],

    with psi(r) = phi°(r, h) convex and piecewise linear, given by its
    ``levels`` and ``kinks``, which :func:`_solve_chain` reads off the
    gauge's ``dual_envelope``.  Each M_j is
    convex, and its derivative is stored as a nondecreasing polyline of
    points (x, M_j'(x)) with tails of slope 0 (q = 1) or 2 W_j (q = 2):
    a staircase for q = 1, a continuous curve for q = 2.  The fidelity
    step adds W_j sign(x - c_j), a jump of 2 W_j at c_j, or 2 W_j (x - c_j).
    The edge step is the inf-convolution with psi(-.), whose slope levels
    sigma_1 < ... < sigma_m and kinks tau_1 < ... < tau_{m-1} are those
    of the gauge's envelope: the part of the curve between its crossings of
    sigma_i and sigma_{i+1} (band i) moves along x by tau_i, flat pieces at
    the levels join the bands, and the curve is clipped to
    [sigma_1, sigma_m].  The first crossing X_i of every level is kept per
    node, and the backward pass reads u_j from u_{j+1} in one loop over
    the levels:

        u_j = max(X_1, max_i min(u_{j+1} - tau_i, X_{i+1})).

    Each X_i is the first crossing, so where the minimizer is not unique
    (q = 1) the sweep returns the least one, unless rounding breaks a tie:
    a flat of M_j' that lies on a level in exact arithmetic may round to
    either side of it.

    On an envelope of at most ``_LOCAL_LEVELS`` levels a forward pass edits
    each band in place, so a node costs a fixed amount of work per band plus
    what crosses a level, however long the message: a quadratic sweep keeps
    the points of each band in a deque (:func:`_local_messages`), a
    staircase the jumps of each band in a heap-ordered set
    (:func:`_staircase_messages`), since its fidelity step inserts a jump
    inside a band.  Denser envelopes, where a node moves many points
    between many narrow bands, take :func:`_array_messages`, a fixed number
    of whole-array operations on the polyline per node.  All three build
    the same messages, up to rounding.  Once a centre, a weight or an end
    of the derivative is not finite, every u_j is NaN.
    """
    if not (np.isfinite(centres).all() and np.isfinite(weights).all()):
        messages = None
    elif len(levels) > _LOCAL_LEVELS:
        messages = _array_messages(levels, kinks, centres, weights, quadratic)
    elif quadratic:
        messages = _local_messages(levels, kinks, centres, weights)
    else:
        messages = _staircase_messages(levels, kinks, centres, weights)
    if messages is None:  # the data or a message left the floats
        return np.full(len(centres), math.nan)
    crossings, y = messages
    u = [y]
    kink_list = kinks.tolist()
    for row in reversed(crossings):
        v = row[0]
        for kink, x in zip(kink_list, row[1:]):
            t = y - kink
            if x < t:
                t = x
            if t > v:
                v = t
        u.append(v)
        y = v
    return np.array(u[::-1])


def _array_messages(levels, kinks, centres, weights, quadratic):
    """The forward pass of :func:`_chain_sweep` on the whole polyline at once.

    Returns the first crossings of every level per edge, as lists, and the
    root of the last message's derivative, or None once an end of the
    derivative leaves the floats.
    Each node's edge step is a fixed number of whole-array operations on
    the polyline, which grows by at most 2 m points per node.
    """
    flat_levels = np.concatenate([levels[1:], levels[:-1]])
    flat_kinks = np.concatenate([kinks, kinks])
    crossings = []  # per node, the first crossing of every level
    x, lam, slope = centres[:1].copy(), np.zeros(1), 0.0  # M' = 0 before node 0
    for j, (cj, wj) in enumerate(zip(centres.tolist(), weights.tolist())):
        if not (math.isfinite(lam[0]) and math.isfinite(lam[-1])):
            return None
        if j:
            # edge step: part b of the curve, between the crossings of levels
            # b and b + 1, is x[after[b]:before[b + 1]] and moves by kink b; a
            # staircase drops its points at a level in between, on a flat
            before = lam.searchsorted(levels, "left")
            after = before if quadratic else lam.searchsorted(levels, "right")
            lo = _level_crossings(x, lam, slope, levels, before)
            hi = lo if quadratic else _level_crossings(x, lam, slope, levels, after)
            crossings.append(lo.tolist())
            body_x, body_lam = x[after[0]:before[-1]], lam[after[0]:before[-1]]
            if not quadratic:
                keep = levels[levels.searchsorted(body_lam)] != body_lam
                body_x, body_lam = body_x[keep], body_lam[keep]
            # the flats join the parts: the end of part b at level b + 1 and
            # its start at level b, unless the curve never reaches the level
            flat_x = np.concatenate([lo[1:], hi[:-1]]) + flat_kinks
            reached = np.isfinite(flat_x)
            x = np.concatenate([flat_x[reached],
                                body_x + np.repeat(kinks, before[1:] - after[:-1])])
            lam = np.concatenate([flat_levels[reached], body_lam])
            order = np.lexsort((x, lam))  # the parts in order along x, each between its flats
            x, lam, slope = x[order], lam[order], 0.0
        if quadratic:
            lam = lam + 2.0 * wj * (x - cj)
            slope = 2.0 * wj
            continue
        s = int(x.searchsorted(cj))  # the first point at or right of c_j
        v = float(lam[max(s - 1, 0)])  # M' just left of c_j: the staircase is flat there
        if s < len(x) and x[s] == cj:  # lengthen the jump already at c_j
            jump_x, jump_lam = [cj], [v - wj]
        else:
            jump_x, jump_lam = [cj, cj], [v - wj, v + wj]
        x = np.concatenate([x[:s], jump_x, x[s:]])
        lam = np.concatenate([lam[:s] - wj, jump_lam, lam[s:] + wj])
    root = _level_crossings(x, lam, slope, np.zeros(1), lam.searchsorted([0.0]))
    return crossings, float(root[0])


def _local_messages(levels, kinks, centres, weights):
    """The forward pass of a quadratic :func:`_chain_sweep`, edited locally per node.

    The polyline is kept as its m - 1 bands, each a deque of the points
    with sigma_b <= M' <= sigma_{b+1} in order, between the two flats that
    the last edge step pushed.  Band b stores a point relative to an origin
    of its own and to the fidelity the band has taken since: (y, l) is the
    point (y + s_b, l + A_b y + B_b).  The edge step moves the band by
    adding its kink to s_b, and the fidelity step adds 2 W_j to A_b and
    2 W_j (s_b - c_j) to B_b, the update 2 W_j (x - c_j) at the origin.
    The two ends of every band, which are all that a node reads, are also
    kept as plain points and updated like the whole-array sweep's points,
    so the crossings are as accurate as its; the stored form only holds a
    point until it becomes an end.  That form loses digits as A_b y + B_b
    grows against l, so a band that empties restarts at the next point it
    receives, with its origin there and A_b = B_b = 0, and a band whose
    A_b y + B_b exceeds ``_LOCAL_SLACK`` times its largest |level| at
    either end is written out in full again around its middle point.

    At each node the run of end points that crossed a level moves to the
    neighbouring band in one step, the runs outside [sigma_1, sigma_m] are
    clipped, the crossings are read off the band ends, and every band takes
    its two flats and then the fidelity: a node costs a fixed amount of work
    per band, plus the points that cross a level.  Returns what
    :func:`_array_messages` returns.
    """
    sig, tau = levels.tolist(), kinks.tolist()
    top = len(tau)  # the number of bands, and the index of the last level
    bands = [deque() for _ in tau]
    first, last = [None] * top, [None] * top  # each band's end points, (x, M'(x))
    shift, grow, base = [0.0] * top, [0.0] * top, [0.0] * top  # s_b, A_b and B_b
    # the most that A_b y + B_b may add to a stored point before band b is rebased
    reach = [_LOCAL_SLACK * max(-lo, hi) for lo, hi in zip(sig, sig[1:])]
    isfinite = math.isfinite

    def take_front(b, level):  # remove and return the run of end points below level
        band, run = bands[b], []
        s, a, c = shift[b], grow[b], base[b]
        end = first[b]
        while end and end[1] < level:
            run.append(end)
            band.popleft()
            if not band:
                first[b] = last[b] = None
                return run
            y, l = band[0]
            end = y + s, l + (a * y + c)
        first[b] = end
        return run

    def take_back(b, level):  # the same at the back, for the points at or above level
        band, run = bands[b], []
        s, a, c = shift[b], grow[b], base[b]
        end = last[b]
        while end and end[1] >= level:
            run.append(end)
            band.pop()
            if not band:
                first[b] = last[b] = None
                return run
            y, l = band[-1]
            end = y + s, l + (a * y + c)
        last[b] = end
        return run

    def give(b, run, at_front):  # add the points of run to an end of band b, in turn
        # an empty band restarts with its origin at the first of them
        band = bands[b]
        if not band:
            shift[b], grow[b], base[b] = run[0][0], 0.0, 0.0
            (last if at_front else first)[b] = run[0]
        (first if at_front else last)[b] = run[-1]
        s, a, c, stored = shift[b], grow[b], base[b], []
        for x, lam in run:
            y = x - s
            stored.append((y, lam - (a * y + c)))
        band.extendleft(stored) if at_front else band.extend(stored)

    crossings = []  # per node, the first crossing of every level
    give(0, [(float(centres[0]), 0.0)], True)  # M' = 0 before node 0
    slope = 0.0
    for j, (cj, wj) in enumerate(zip(centres.tolist(), weights.tolist())):
        if j:
            # the runs of end points that crossed a level move to the band
            # above it, then to the band below it, one level at a time
            for i in range(1, top):
                end = last[i - 1]
                if end and end[1] >= sig[i]:
                    give(i, take_back(i - 1, sig[i]), True)
            for i in range(top - 1, 0, -1):
                end = first[i]
                if end and end[1] < sig[i]:
                    give(i - 1, take_front(i, sig[i]), False)
            # clip to [sigma_1, sigma_m], keeping the nearest clipped point of
            # either end for the crossing of the outer level
            below = above = None
            end = first[0]
            if end and end[1] < sig[0]:
                below = take_front(0, sig[0])[-1]
            end = last[-1]
            if end and end[1] >= sig[top]:
                above = take_back(top - 1, sig[top])[-1]
            # level i lies between the last point of the bands below it and
            # the first of the bands above; past the ends the curve goes on
            # with the slope of the tails
            if all(first):
                lows, ups = [below, *last], [*first, above]
            else:
                lows, ups = [below], [above]
                for b in range(top):
                    lows.append(last[b] or lows[-1])
                    ups.append(first[-1 - b] or ups[-1])
                ups.reverse()
            if not (isfinite((below or ups[0])[1]) and isfinite((above or lows[-1])[1])):
                return None  # an end of the derivative left the floats
            row = []
            for level, lo, up in zip(sig, lows, ups):
                near = lo or up
                row.append(lo[0] + (level - lo[1]) * ((up[0] - lo[0]) / (up[1] - lo[1]))
                           if lo and up else near[0] + (level - near[1]) / slope)
            crossings.append(row)
        # each band takes its flats, then the fidelity 2 W_j (x - c_j)
        slope = 2.0 * wj
        for b, band in enumerate(bands):
            s, a, c = shift[b], grow[b], base[b]
            if j:
                kink, low, high = tau[b], sig[b], sig[b + 1]
                s += kink
                start, end = row[b] + kink, row[b + 1] + kink
                # the flats are the new ends; where the curve never reaches a
                # level, the old end moved with the band.  An empty band
                # restarts with its origin at the flat it takes
                if isfinite(start):
                    if not band:
                        s, a, c = start, 0.0, 0.0
                        last[b] = start, low
                    first[b] = start, low
                    y = start - s
                    band.appendleft((y, low - (a * y + c)))
                elif band:
                    y, l = band[0]
                    first[b] = y + s, l + (a * y + c)
                if isfinite(end):
                    if not band:
                        s, a, c = end, 0.0, 0.0
                        first[b] = end, high
                    last[b] = end, high
                    y = end - s
                    band.append((y, high - (a * y + c)))
                elif band:
                    y, l = band[-1]
                    last[b] = y + s, l + (a * y + c)
                if band:
                    near, far = -band[0][0], band[-1][0]  # the largest |y| is at an end
                    if a * (far if far > near else near) + abs(c) > reach[b]:
                        # the stored form outgrew the band's levels: write the
                        # points out in full again, around the middle one
                        points = [(y + s, l + (a * y + c)) for y, l in band]
                        s = points[len(points) // 2][0]
                        a = c = 0.0
                        band.clear()
                        band.extend((x - s, lam) for x, lam in points)
            shift[b], grow[b], base[b] = s, a + slope, c + slope * (s - cj)
            if band:  # the ends take the update itself
                x, lam = first[b]
                first[b] = x, lam + slope * (x - cj)
                x, lam = last[b]
                last[b] = x, lam + slope * (x - cj)
    curve = []  # the last message, each band between its ends as kept
    for b, band in enumerate(bands):
        if band:
            s, a, c = shift[b], grow[b], base[b]
            inner = [(y + s, l + (a * y + c)) for y, l in itertools.islice(band, 1, len(band) - 1)]
            curve += [first[b], *inner, last[b]][-len(band):]
    x, lam = np.array(curve).T
    root = _level_crossings(x, lam, slope, np.zeros(1), lam.searchsorted([0.0]))
    return crossings, float(root[0])


def _staircase_messages(levels, kinks, centres, weights):
    """The forward pass of a staircase :func:`_chain_sweep` (q = 1), edited locally per node.

    The staircase is kept as its jumps: M'(x) is the left tail plus the
    sizes of the jumps at or left of x.  Band b holds the jumps, or the
    parts of jumps, that lie between sigma_b and sigma_{b+1}: a dict from
    position to size, positions stored relative to a lazy shift s_b, with
    two heaps of the positions that give the band's first and last jump
    (entries whose jump has left the band are dropped when they surface).
    ``value[b]`` is M' between band b - 1 and band b, so value[0] and
    value[m - 1] are the two tails, and an empty band has equal values at
    both sides.  A band's jumps keep their sizes until they leave it.

    The fidelity step takes W_j from the values left of c_j and adds it to
    those right of it, m values per node, and inserts a jump of 2 W_j at
    c_j into the last band whose first jump lies left of c_j (or the first
    nonempty band), lengthening a jump already at c_j.  The edge step
    moves the jumps beyond a level to the neighbouring band, one level at a
    time, splitting a jump that straddles it; clips the tails to
    [sigma_1, sigma_m], removing each clipped jump once; reads the crossings
    off the band ends; and adds each kink to its band's shift.  The flats
    at the levels are the gaps between bands, so a point on a flat is never
    stored.  A node costs a fixed amount of work per band plus O(log n) per
    jump inserted, moved, split or removed.  The values stay within
    [sigma_1 - W_j, sigma_m + W_j], so they never leave the floats.  Returns
    what :func:`_array_messages` returns.
    """
    sig, tau = levels.tolist(), kinks.tolist()
    top = len(tau)  # the number of bands, and the index of the last level
    jumps = [{} for _ in tau]  # band b: y -> the size of the jump at y + shift[b]
    lows, highs = [[] for _ in tau], [[] for _ in tau]  # heaps of y and of -y
    shift = [0.0] * top
    value = [0.0] * (top + 1)  # M' = 0 before node 0
    inf = math.inf

    def first(b):  # the y of band b's first jump; the band is not empty
        heap, band = lows[b], jumps[b]
        while heap[0] not in band:
            heappop(heap)
        return heap[0]

    def last(b):  # the y of band b's last jump
        heap, band = highs[b], jumps[b]
        while -heap[0] not in band:
            heappop(heap)
        return -heap[0]

    def insert(b, x, size):  # add a jump of this size at x to band b
        band, y = jumps[b], x - shift[b]
        if y in band:
            band[y] += size
        else:
            band[y] = size
            heappush(lows[b], y)
            heappush(highs[b], -y)

    crossings = []  # per node, the first crossing of every level
    for j, (cj, wj) in enumerate(zip(centres.tolist(), weights.tolist())):
        if j:
            # the jumps above a level move to the band above it, then those
            # below a level to the band below it, one level at a time
            for i in range(1, top):
                level, band = sig[i], jumps[i - 1]
                while value[i] > level and band:
                    y = last(i - 1)
                    size, rest = band[y], value[i] - band[y]
                    if rest >= level:
                        del band[y]
                        heappop(highs[i - 1])
                        insert(i, y + shift[i - 1], size)
                        value[i] = rest
                    else:  # split at the level
                        band[y] = level - rest
                        insert(i, y + shift[i - 1], value[i] - level)
                        value[i] = level
                if not band:
                    value[i] = value[i - 1]
            for i in range(top - 1, 0, -1):
                level, band = sig[i], jumps[i]
                while value[i] < level and band:
                    y = first(i)
                    size, reach = band[y], value[i] + band[y]
                    if reach <= level:
                        del band[y]
                        heappop(lows[i])
                        insert(i - 1, y + shift[i], size)
                        value[i] = reach
                    else:
                        band[y] = reach - level
                        insert(i - 1, y + shift[i], level - value[i])
                        value[i] = level
                if not band:
                    value[i] = value[i + 1]
            # clip to [sigma_1, sigma_m]; the last jump clipped at the bottom
            # is where M' reaches sigma_1
            level, band, crossed = sig[0], jumps[0], -inf
            while value[0] < level and band:
                y = first(0)
                crossed, reach = y + shift[0], value[0] + band[y]
                if reach <= level:
                    del band[y]
                    heappop(lows[0])
                    value[0] = reach
                else:
                    band[y] = reach - level
                    value[0] = level
            level, band = sig[top], jumps[top - 1]
            while value[top] > level and band:
                y = last(top - 1)
                rest = value[top] - band[y]
                if rest >= level:
                    del band[y]
                    heappop(highs[top - 1])
                    value[top] = rest
                else:
                    band[y] = level - rest
                    value[top] = level
            # M' reaches sigma_i at the last jump below it: never if it ends
            # below sigma_i, and from the left tail on if no jump lies below
            row = [crossed]
            for i in range(1, top + 1):
                if value[i] < sig[i]:
                    row.append(inf)
                else:
                    row.append(last(i - 1) + shift[i - 1] if jumps[i - 1] else -inf)
            crossings.append(row)
            for b in range(top):
                shift[b] += tau[b]
        # the jump goes to the last band whose first jump lies left of c_j,
        # else to the first band that has jumps
        for k in range(top - 1, -1, -1):
            if jumps[k] and first(k) + shift[k] < cj:
                break
        else:
            k = next((b for b in range(top) if jumps[b]), 0)
        for b in range(top + 1):
            value[b] += wj if b > k else -wj
        insert(k, cj, 2.0 * wj)
    b = next(b for b in range(top) if value[b + 1] >= 0.0)
    band, level = jumps[b], value[b]
    for y in sorted(band):  # the jump at which M' reaches 0
        level += band[y]
        if level >= 0.0:
            break
    return crossings, y + shift[b]


def _level_crossings(
    x: np.ndarray, lam: np.ndarray, slope: float, levels: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Where the nondecreasing polyline (x, lam) reaches each level.

    ``k`` is ``lam.searchsorted(levels, side)``.  With ``side="left"`` the
    result is inf{x : M'(x) >= level}, with ``side="right"``
    sup{x : M'(x) <= level}; they differ only on a flat piece at the
    level.  Past the end points the curve continues with ``slope``.  A
    flat tail (slope 0) marks the staircase of p = 1, which rises only
    on vertical pieces: a level is reached at point k, or at -inf or +inf
    if the curve never reaches it.
    """
    last = len(x) - 1
    k1 = np.minimum(k, last)
    if slope == 0.0:
        out = x[k1]
        out[k == 0] = -np.inf
        out[k > last] = np.inf
        return out
    k0 = np.maximum(k - 1, 0)
    rise = lam[k1] - lam[k0]
    inner = rise > 0.0  # 0 < k <= last; at either end k0 == k1
    tail = x[k1] + (levels - lam[k1]) / slope
    run = (x[k1] - x[k0]) / np.where(inner, rise, 1.0)
    return np.where(inner, x[k0] + (levels - lam[k0]) * run, tail)


def _smoothed_power(t: np.ndarray, p: float, eps: float):
    """Yield (t^2 + eps^2)^(p/2), an upper bound of |t|^p, then its first two derivatives.

    The second derivative is positive for every p >= 1, also at t = 0.  All
    three are finite wherever t^2 is.
    """
    s = t * t + eps * eps
    value = s ** (0.5 * p)
    yield value
    sp = value / s  # s^(p/2 - 1)
    yield p * t * sp, p * ((p - 1.0) * t * t + eps * eps) * (sp / s)


def _solve_path_laplacian(edge: np.ndarray, excess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (D^T diag(edge) D + diag(excess)) x = rhs, D the difference operator of a path.

    The matrix has edge_{i-1} + edge_i + excess_i on its diagonal and
    -edge_i beside it.  Elimination keeps each pivot as its coupling to
    the right plus the excess that has reached the node (Grassmann, Taksar
    & Heyman, "Regenerative analysis and steady state distributions for
    Markov chains", Oper. Res. 33, 1985), so with edge, excess >= 0 no
    pivot is formed by a subtraction: an excess far below the couplings,
    which the diagonal edge + edge + excess would round away, still sets
    the solution.  Odd-even cyclic reduction eliminates the odd-indexed
    unknowns, which leaves a system of the same form in the even-indexed
    ones, half the size; below _THOMAS_MAX unknowns a Thomas sweep over
    Python floats is cheaper.  A zero pivot makes the result non-finite
    in both.
    """
    n = len(excess)
    if n <= _THOMAS_MAX:
        a, f, x = edge.tolist() + [0.0], excess.tolist(), rhs.tolist()
        carried = f[0]  # the excess that has reached node i
        pivots = [a[0] + carried]
        try:
            for i in range(1, n):
                m = a[i - 1] / pivots[-1]
                x[i] += m * x[i - 1]
                carried = f[i] + m * carried
                pivots.append(a[i] + carried)
            x[-1] /= pivots[-1]
            for i in range(n - 2, -1, -1):
                x[i] = (x[i] + a[i] * x[i + 1]) / pivots[i]
        except ZeroDivisionError:  # a zero pivot; cyclic reduction gives NaN there
            return np.full(n, math.nan)
        return np.array(x)
    if n % 2 == 0:  # pad with the decoupled equation x = 0
        edge, excess, rhs = np.append(edge, 0.0), np.append(excess, 1.0), np.append(rhs, 0.0)
    left, right = edge[0::2], edge[1::2]  # the couplings of each odd unknown
    inv = 1.0 / (left + right + excess[1::2])
    left_q, right_q = left * inv, right * inv
    excess_even, rhs_even = excess[0::2].copy(), rhs[0::2].copy()
    for part, odd in ((excess_even, excess[1::2]), (rhs_even, rhs[1::2])):
        part[:-1] += left_q * odd
        part[1:] += right_q * odd
    x = np.empty(len(excess))
    x[0::2] = even = _solve_path_laplacian(left * right_q, excess_even, rhs_even)
    x[1::2] = (rhs[1::2] + left * even[:-1] + right * even[1:]) * inv
    return x[:n]


def brute_force_oracle(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
) -> Profile:
    """Independent minimizer for tiny grids: lattice minimum + refinement.

    Since u = g is admissible and every term is nonnegative, a minimizer
    has w_j |u_j - g_j|^p <= E(g) at each node, so every minimizer lies in
    the window [min_j (g_j - R_j), max_j (g_j + R_j)] with
    R_j = (E(g) / w_j)^(1/p), under any gauge.  Nodal values are
    quantized to ``_ORACLE_LEVELS`` points in that window, and the exact
    minimum over that lattice is found by dynamic programming along the
    chain; the lattice optimum is then polished by a shrinking full
    cross-product pattern search inside the window.  The pattern includes
    every diagonal move, which matters: the energy is piecewise linear for
    crystalline gauges with p = 1, and purely coordinate-wise refinement
    stalls at nonsmooth corners there.
    """
    if grid.n_cells > 4:
        raise ValueError("brute_force_oracle handles n_cells <= 4 only")
    g = np.asarray(g, dtype=float)
    reach = (energy(aniso, Profile(grid, g), g, p).total / trapezoid_weights(grid)) ** (1.0 / p)
    window = (float(np.min(g - reach)), float(np.max(g + reach)))
    axis = np.linspace(*window, _ORACLE_LEVELS)
    vals = _pattern_refine(aniso, grid, g, p, _lattice_minimum(aniso, grid, g, p, axis), window)
    return Profile(grid, vals)


def _lattice_minimum(
    aniso: Anisotropy, grid: Grid, g: np.ndarray, p: float, axis: np.ndarray
) -> np.ndarray:
    """Nodal values on ``axis`` of least energy, by min-sum dynamic programming.

    The energy is a chain: a fidelity term per node plus an edge term per
    pair of neighbours, the same L x L table for every edge.  The forward
    pass keeps, for each level of node j, the cheapest energy of nodes
    0..j and the level of node j - 1 it came from; the backward pass reads
    the minimizer off those choices.  O(n L^2) instead of L^(n+1).
    """
    steps = axis[None, :] - axis[:, None]  # [a, b]: the difference from level a to level b
    edge = aniso.eval_dual_many(np.stack([-steps, np.full_like(steps, grid.h)], axis=-1))
    fidelity = trapezoid_weights(grid)[:, None] * np.abs(axis[None, :] - g[:, None]) ** p
    cost = fidelity[0]
    choices = []
    for node_cost in fidelity[1:]:
        total = cost[:, None] + edge
        came_from = np.argmin(total, axis=0)
        choices.append(came_from)
        cost = total[came_from, np.arange(len(axis))] + node_cost
    k = int(np.argmin(cost))
    path = [k]
    for came_from in reversed(choices):
        k = int(came_from[k])
        path.append(k)
    return axis[path[::-1]]


def _pattern_refine(
    aniso: Anisotropy,
    grid: Grid,
    g: np.ndarray,
    p: float,
    vals: np.ndarray,
    window: tuple[float, float],
) -> np.ndarray:
    """Shrinking cross-product pattern search around the lattice optimum.

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
    lo, hi = window
    w = (hi - lo) / (_ORACLE_LEVELS - 1)
    for _ in range(2000):  # a bound only: the width falls below rounding first
        block = np.clip(center[None, :] + w * pattern, lo, hi)
        totals = energy_totals(aniso, block, g, p, grid)
        k = int(np.argmin(totals))
        if totals[k] < totals[center_row]:
            center = block[k].copy()
        else:
            w *= 0.5
            if w < 1e-13 * (1.0 + max(abs(lo), abs(hi))):
                break
    return center
