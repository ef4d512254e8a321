"""Newton solver, exact chain sweep and brute-force oracle tests; the PDHG reference and its prox."""

import dataclasses
import heapq
import math

import numpy as np
import pytest

from anisocurve import (
    Anisotropy,
    Grid,
    GSpec,
    Profile,
    SolverConfig,
    SolverDivergenceError,
    brute_force_oracle,
    energy,
    solve,
)
from anisocurve.energy import energy_totals, trapezoid_weights
from anisocurve.solver import (_lattice_minimum, _run, _solve_chain, _solve_newton,
                               _solve_path_laplacian)
from anisocurve import reference as ref
from anisocurve import solver
from pdhg_reference import _prox_fidelity_many, _solve_pdhg, prox_fidelity

EUCLID = Anisotropy.euclidean()
SQUARE = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
# a regular hexagon turned off the axes, so not mirror-symmetric
HEXAGON = Anisotropy.polygon(
    [[np.cos(t), np.sin(t)] for t in 0.2 + np.pi / 3 * np.arange(6)])
GAUGES = {
    "euclidean": EUCLID,
    "ellipse": Anisotropy.ellipse(2.0, 0.5),
    "lp1.5": Anisotropy.lp(1.5),
    "lp3": Anisotropy.lp(3.0),
    "lp1": Anisotropy.lp(1.0),
    "square": SQUARE,
    "hexagon": HEXAGON,
}
POLYGONS = ["square", "lp1", "hexagon"]


def _fuzz(rng, n):
    """Piecewise-constant datum on n + 1 nodes with 2 to 6 levels."""
    pieces = int(rng.integers(2, 7))
    cuts = np.sort(rng.choice(np.arange(1, n + 1), pieces - 1, replace=False))
    return np.repeat(rng.uniform(-1, 1, pieces), np.diff(np.r_[0, cuts, n + 1]))


# -- prox of the PDHG reference -----------------------------------------


def test_prox_p1_full_shrinkage():
    assert prox_fidelity(0.3, 0.0, 0.5, 1.0, 1.0) == pytest.approx(0.0)


def test_prox_p1_partial_shrinkage():
    assert prox_fidelity(2.0, 0.0, 0.5, 1.0, 1.0) == pytest.approx(1.5)


def test_prox_p2_closed_form():
    assert prox_fidelity(1.0, 0.0, 0.5, 2.0, 1.0) == pytest.approx(0.5)


def _reference_prox(v, g, w, p, tau):
    """The Newton-bisection prox that the monotone Newton kernel replaced."""
    d = v - g
    ad = np.abs(d)
    c = tau * w * p
    lo = np.zeros_like(ad)
    hi = ad.copy()
    y = 0.5 * ad
    scale = 1.0 + float(np.max(ad, initial=0.0))
    for _ in range(120):
        yp = y ** (p - 1.0)
        f = y + c * yp - ad
        if float(np.max(np.abs(f))) < 1e-14 * scale:
            break
        pos = f > 0.0
        zero = f == 0.0
        hi = np.where(pos | zero, y, hi)
        lo = np.where(~pos | zero, y, lo)
        if float(np.max(hi - lo)) < 1e-15 * scale:
            y = 0.5 * (lo + hi)
            break
        fp = 1.0 + c * (p - 1.0) * yp / np.maximum(y, 1e-300)
        y_new = y - f / fp
        inside = (y_new >= lo) & (y_new <= hi)
        y = np.where(inside, y_new, 0.5 * (lo + hi))
    return g + np.sign(d) * y


def test_prox_general_p_first_order_optimality():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(50):
        cases.append((float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                      float(rng.uniform(0.01, 2.0)), float(rng.uniform(1.05, 4.0)),
                      float(rng.uniform(0.05, 1.0))))
    for p in (1.05, 1.5, 1.95, 2.5, 4.0):
        for residual in (0.0, 1e-300, 1e6):
            for _ in range(4):
                gj = float(rng.uniform(-3, 3))
                v = gj + float(rng.choice([-1.0, 1.0])) * residual
                cases.append((v, gj, float(rng.uniform(0.01, 2.0)), p,
                              float(rng.uniform(0.05, 1.0))))
    for v, gj, w, p, tau in cases:
        z = prox_fidelity(v, gj, w, p, tau)
        scale = max(1.0, abs(v), abs(gj))

        def obj(x):
            return (x - v) ** 2 / (2 * tau) + w * abs(x - gj) ** p

        # steps also scaled to the input, and an allowance for the rounding
        # of obj itself, which reaches 1e12 at residual 1e6
        tol = 1e-10 + 4.0 * np.finfo(float).eps * obj(z)
        for eps in (1e-6, 1e-3, 0.1):
            for step in (eps, eps * scale):
                assert obj(z) <= min(obj(z + step), obj(z - step)) + tol
        # agreement with the replaced kernel, relative to the input scale
        ref = float(_reference_prox(np.array([v]), np.array([gj]), np.array([w]), p, tau)[0])
        assert abs(z - ref) <= 1e-13 * scale


def test_prox_many_matches_reference_on_solver_sized_arrays():
    rng = np.random.default_rng(1)
    n = 513
    for p in (1.05, 1.5, 1.95, 2.5, 4.0):
        v = rng.normal(0.0, 0.5, n)
        g = rng.normal(0.0, 0.5, n)
        v[:8] = g[:8]  # zero residuals
        w = np.full(n, 2.0 / (n - 1))
        z = _prox_fidelity_many(v, g, w, p, 0.495)
        ref = _reference_prox(v, g, w, p, 0.495)
        scale = np.maximum(1.0, np.maximum(np.abs(v), np.abs(g)))
        assert np.max(np.abs(z - ref) / scale) <= 1e-13
        np.testing.assert_array_equal(z[:8], g[:8])
        # with g = 0, y = |z| solves y + c y^(p-1) = |v| to rounding over
        # nine decades of |v|
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 6.0, n)
        y = np.abs(_prox_fidelity_many(v, np.zeros(n), w, p, 0.495))
        equation = y + 0.495 * w * p * y ** (p - 1.0)
        assert np.max(np.abs(equation - np.abs(v)) / np.abs(v)) <= 8.0 * np.finfo(float).eps


def test_prox_rejects_p_below_one():
    grid = Grid(-1.0, 1.0, 8)
    for p in (0.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            prox_fidelity(1.0, 0.0, 1.0, p, 1.0)
        with pytest.raises(ValueError):
            solve(EUCLID, grid, GSpec.step(0.1).sample(grid), p)


# -- config -------------------------------------------------------------


def test_config_holds_only_the_newton_knobs():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_iters", "tol_rel"]
    with pytest.raises(TypeError):
        SolverConfig(tau=0.4)


# -- solve --------------------------------------------------------------


def test_constant_datum_gives_flat_solution():
    grid = Grid(-1, 1, 64)
    for c in (0.0, 0.4, -0.8):
        g = np.full(65, c)
        rep = solve(EUCLID, grid, g, 1.5)
        np.testing.assert_allclose(rep.profile.values, c, atol=1e-6)
        assert rep.energy.total == pytest.approx(2.0, abs=1e-8)


def test_solve_reports_dual_feasibility():
    grid = Grid(-1, 1, 32)
    g = GSpec.step(0.5).sample(grid)
    rep = solve(EUCLID, grid, g, 1.0)
    assert rep.dual_feasibility_max_violation <= 1e-7


def test_candidate_dominance():
    rng = np.random.default_rng(3)
    grid = Grid(-1, 1, 64)
    for p in (1.0, 2.0):
        g = rng.uniform(-1, 1, 65)
        rep = solve(EUCLID, grid, g, p)
        zero = energy(EUCLID, Profile(grid, np.zeros(65)), g, p).total
        datum = energy(EUCLID, Profile(grid, g), g, p).total
        assert rep.energy.total <= zero + 1e-9
        assert rep.energy.total <= datum + 1e-9


def test_solve_maximum_principle_and_truncation_stability():
    rng = np.random.default_rng(8)
    grid = Grid(-1, 1, 96)
    g = rng.uniform(-0.7, 0.9, 97)
    rep = solve(EUCLID, grid, g, 2.0)
    u = rep.profile.values
    assert np.min(u) >= np.min(g) - 1e-6
    assert np.max(u) <= np.max(g) + 1e-6
    clipped = Profile(grid, np.clip(u, np.min(g), np.max(g)))
    assert abs(energy(EUCLID, clipped, g, 2.0).total - rep.energy.total) < 1e-9


def test_solve_deterministic():
    grid = Grid(-1, 1, 48)
    g = GSpec.step(0.3).sample(grid)
    r1 = solve(EUCLID, grid, g, 1.0)
    r2 = solve(EUCLID, grid, g, 1.0)
    assert r1.iterations == r2.iterations
    assert r1.energy.total == r2.energy.total
    np.testing.assert_array_equal(r1.profile.values, r2.profile.values)


def test_solve_divergence_on_nonfinite_datum():
    grid = Grid(-1, 1, 8)
    for bad in (np.nan, np.inf, -np.inf):
        g = np.zeros(9)
        g[4] = bad
        for aniso in (EUCLID, GAUGES["lp3"]):
            with pytest.raises(SolverDivergenceError) as excinfo:
                solve(aniso, grid, g, 1.0)
            assert excinfo.value.iteration >= 1


def test_solve_rejects_a_datum_of_the_wrong_shape():
    grid = Grid(-1, 1, 8)
    for g in (np.zeros(8), np.zeros(10), np.zeros((9, 1))):
        with pytest.raises(ValueError, match="datum samples must match the grid nodes"):
            solve(EUCLID, grid, g, 1.0)


def test_solve_matches_c11_minimizer():
    a = 0.05
    grid = Grid(-1, 1, 512)
    g = GSpec.step(a).sample(grid)
    rep = solve(EUCLID, grid, g, 1.0)
    exact = ref.sample_profile(grid, ref.c11_minimizer, a).values
    assert np.max(np.abs(rep.profile.values - exact)) < 2e-2


# -- oracle -------------------------------------------------------------


def test_oracle_trivial_data():
    grid = Grid(-1, 1, 3)
    np.testing.assert_allclose(brute_force_oracle(EUCLID, grid, np.zeros(4), 1.0).values,
                               0.0, atol=1e-9)
    c = np.full(4, 0.37)
    np.testing.assert_allclose(brute_force_oracle(EUCLID, grid, c, 2.0).values,
                               0.37, atol=1e-6)


def test_oracle_rejects_large_grids():
    grid = Grid(-1, 1, 5)
    with pytest.raises(ValueError):
        brute_force_oracle(EUCLID, grid, np.zeros(6), 1.0)


def test_oracle_below_sampled_closed_form():
    # at two cells the oracle must do at least as well as the sampled
    # continuum minimizer on the same nodes
    grid = Grid(-1, 1, 2)
    g = GSpec.step(0.05).sample(grid)
    o = brute_force_oracle(EUCLID, grid, g, 1.0)
    eo = float(energy_totals(EUCLID, o.values[None, :], g, 1.0, grid)[0])
    uc = ref.sample_profile(grid, ref.c11_minimizer, 0.05)
    ec = energy(EUCLID, uc, g, 1.0).total
    assert eo <= ec + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gauge", ["euclidean", "lp1", "square", "ellipse"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_lattice_minimum_matches_exhaustive_scan(n, gauge, p):
    aniso = GAUGES[gauge]
    rng = np.random.default_rng([n, len(gauge), int(2 * p)])
    grid = Grid(-1, 1, n)
    g = rng.uniform(-1, 1, n + 1)
    axis = np.linspace(-1.0, 1.0, 21)
    lattice = np.stack(np.meshgrid(*([axis] * (n + 1)), indexing="ij"), axis=-1).reshape(-1, n + 1)
    scan_min = float(np.min(energy_totals(aniso, lattice, g, p, grid)))
    vals = _lattice_minimum(aniso, grid, g, p, axis)
    assert np.all(np.isin(vals, axis))
    dp_energy = float(energy_totals(aniso, vals[None, :], g, p, grid)[0])
    assert dp_energy == pytest.approx(scan_min, rel=1e-13, abs=1e-13)


def test_solve_agrees_with_oracle_small_instances():
    rng = np.random.default_rng(17)
    l1 = Anisotropy.lp(1.0)
    for k in range(8):
        n = int(rng.integers(2, 5))
        aniso = EUCLID if k % 2 == 0 else l1
        p = 1.0 if k % 3 else 2.0
        grid = Grid(-1, 1, n)
        g = rng.uniform(-1, 1, n + 1)
        o = brute_force_oracle(aniso, grid, g, p)
        eo = float(energy_totals(aniso, o.values[None, :], g, p, grid)[0])
        rep = solve(aniso, grid, g, p)
        assert abs(rep.energy.total - eo) <= 1e-3 * (1.0 + eo)


# -- Newton -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 127, 128, 129, 130, 257, 1000, 1025])
def test_tridiagonal_solver_matches_dense_solve(n):
    # the path Laplacian form of the Newton system: couplings and excess >= 0
    rng = np.random.default_rng(n)
    for _ in range(5):
        edge = rng.uniform(0.0, 1.0, n - 1) * 10.0 ** rng.uniform(-3, 3, n - 1)
        couplings = np.r_[edge, 0.0] + np.r_[0.0, edge]
        excess = couplings * rng.uniform(0.0, 2.0, n) + 10.0 ** rng.uniform(-3, 3, n)
        rhs = rng.normal(size=n)
        dense = np.diag(couplings + excess) - np.diag(edge, 1) - np.diag(edge, -1)
        exact = np.linalg.solve(dense, rhs)
        x = _solve_path_laplacian(edge, excess, rhs)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [5, 300])
def test_tridiagonal_solver_on_a_singular_system_is_not_finite(n):
    # the Newton system where every curvature underflows to 0; the Thomas
    # sweep (n <= 128) and cyclic reduction both meet a zero pivot
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _solve_path_laplacian(np.zeros(n - 1), np.zeros(n), np.ones(n))
    assert x.shape == (n,) and not np.isfinite(x).all()


@pytest.mark.parametrize("n", [5, 300])
def test_path_laplacian_keeps_an_excess_far_below_the_couplings(n):
    # couplings 1e16 and an excess of 1e-16 at node 0 only: a unit load at the
    # far end holds every node at about 1 / 1e-16; the diagonal 1e16 + 1e-16
    # would round the excess away and leave the system singular
    excess = np.zeros(n)
    excess[0] = 1e-16
    x = _solve_path_laplacian(np.full(n - 1, 1e16), excess, np.r_[np.zeros(n - 1), 1.0])
    np.testing.assert_allclose(x, 1e16, rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_newton_converges_on_intervals_far_below_the_datum(p):
    # a step of 0.5 on [-L, L]: the constant 0 bounds the minimum energy and is
    # the minimizer once L is small.  From L = 1e-14 on the cells are about as
    # narrow as the spacing of floats near 0.5; there the Newton shift damps
    # the move of the whole profile, which leaves the energy up to about 5e-7
    # (relative) above the constant's
    for n in (16, 200):
        for length in (1.0, 1e-6, 1e-12, 1e-14, 1e-16):
            grid = Grid(-length, length, n)
            g = GSpec.step(0.5).sample(grid)
            rep = solve(EUCLID, grid, g, p, SolverConfig(max_iters=2000))
            constant = energy(EUCLID, Profile(grid, np.zeros(n + 1)), g, p).total
            assert rep.converged, (n, length)
            assert rep.energy.total <= constant * (1.0 + 1e-6), (n, length)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_newton_above_p_two_reaches_the_constant_on_tiny_intervals(p):
    # the smoothed fidelity keeps a node curvature of order (eps S)^(p-2) at
    # u = g, where |t|^p has none, so the first step moves the whole profile;
    # a solve left at u = g reads up to 4.7e39 times the constant's energy
    for n in (16, 57):
        for length in (1e-22, 1e-24, 1e-32, 1e-40):
            grid = Grid(-length, length, n)
            g = GSpec.step(0.5).sample(grid)
            rep = solve(EUCLID, grid, g, p, SolverConfig(max_iters=2000))
            constant = energy(EUCLID, Profile(grid, np.zeros(n + 1)), g, p).total
            assert rep.converged, (n, length)
            assert rep.energy.total <= constant * (1.0 + 1e-6), (n, length)


def test_newton_on_a_huge_step_above_p_two_converges_at_the_datum():
    # the decrease left below E(g) is about 1e-20 relative, far below tol_rel
    grid = Grid(-1, 1, 16)
    g = GSpec.step(1e20).sample(grid)
    rep = solve(EUCLID, grid, g, 2.5)
    assert rep.converged
    assert rep.energy.total == energy(EUCLID, Profile(grid, g), g, 2.5).total


@pytest.mark.parametrize("gauge", sorted(GAUGES))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_newton_energy_not_above_pdhg(gauge, p):
    aniso = GAUGES[gauge]
    rng = np.random.default_rng(int(10 * p) + len(gauge))
    for grid, g in ((Grid(-1, 1, 32), GSpec.step(0.3).sample(Grid(-1, 1, 32))),
                    (Grid(-1, 1, 24), _fuzz(rng, 24))):
        newton = solve(aniso, grid, g, p)
        pdhg = _solve_pdhg(aniso, grid, g, p, SolverConfig(max_iters=20_000))
        assert newton.converged
        assert newton.energy.total <= pdhg.energy.total + 1e-9 * (1.0 + pdhg.energy.total)
        assert newton.dual_feasibility_max_violation <= 1e-12


def test_newton_respects_the_step_cap():
    grid = Grid(-1, 1, 128)
    g = GSpec.step(0.05).sample(grid)
    for cap in (1, 2, 5, 17):
        rep = solve(EUCLID, grid, g, 1.0, SolverConfig(max_iters=cap))
        assert rep.iterations == cap
        assert not rep.converged
    for aniso in (EUCLID, SQUARE):
        rep = solve(aniso, grid, g, 1.5, SolverConfig(max_iters=400))
        assert rep.converged
        assert 1 <= rep.iterations <= 400
        assert rep.final_stagnation <= SolverConfig().tol_rel


@pytest.mark.parametrize("gauge", ["euclidean", "ellipse", "lp1.5", "lp3", "lp1", "square"])
def test_newton_maximum_principle(gauge):
    aniso = GAUGES[gauge]
    rng = np.random.default_rng(len(gauge))
    cases = [(Grid(-1, 1, n), GSpec.step(a).sample(Grid(-1, 1, n)), p)
             for n in (16, 64) for a in (0.05, 0.3, 2.0) for p in (1.0, 1.5, 2.0)]
    for k in range(6):
        n = int(rng.integers(16, 129))
        cases.append((Grid(-1, 1, n), _fuzz(rng, n), (1.0, 1.5, 2.0)[k % 3]))
    for grid, g, p in cases:
        u = solve(aniso, grid, g, p).profile.values
        assert np.min(u) >= np.min(g) - 1e-9
        assert np.max(u) <= np.max(g) + 1e-9


def test_newton_final_step_is_converged_to_rounding():
    # p = 2 and a smooth gauge: nothing is smoothed, Newton converges
    # quadratically and the exact energy is stationary at the result
    aniso = GAUGES["ellipse"]
    grid = Grid(-1, 1, 200)
    g = _fuzz(np.random.default_rng(4), 200)
    rep = solve(aniso, grid, g, 2.0)
    assert rep.converged and rep.iterations <= 20
    u = rep.profile.values
    step = 1e-6
    for j in (0, 57, 100, 200):
        bumped = u.copy()
        bumped[j] += step
        up = energy(aniso, Profile(grid, bumped), g, 2.0).total
        bumped[j] -= 2 * step
        down = energy(aniso, Profile(grid, bumped), g, 2.0).total
        assert abs(up - down) / (2 * step) <= 1e-6


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_newton_on_lp_near_one(p):
    # q' = 201: unscaled, h^q' underflows and smoothed_dual divides 0 by 0
    grid = Grid(-1, 1, 256)
    g = GSpec.step(0.3).sample(grid)
    rep = solve(Anisotropy.lp(1.005), grid, g, p)
    assert rep.converged and rep.method == "newton"
    assert np.isfinite(rep.profile.values).all()
    assert rep.energy.total <= energy(Anisotropy.lp(1.005), Profile(grid, g), g, p).total


# -- exact chain sweep --------------------------------------------------


def _polygon_sweep_cases(rng):
    """Step 0.3, fuzz and step-2 data on grids of 16 to 128 cells."""
    cases = []
    for n in (16, int(rng.integers(17, 128)), 128):
        grid = Grid(-1, 1, n)
        cases += [(grid, GSpec.step(0.3).sample(grid)), (grid, _fuzz(rng, n)),
                  (grid, GSpec.step(2.0).sample(grid))]
    return cases


@pytest.mark.parametrize("gauge", POLYGONS)
@pytest.mark.parametrize("p", [1.0, 1.05, 1.5, 2.0, 3.0])
def test_chain_energy_not_above_newton(gauge, p):
    aniso = GAUGES[gauge]
    for grid, g in _polygon_sweep_cases(np.random.default_rng([len(gauge), int(p)])):
        exact = solve(aniso, grid, g, p)
        newton = _run(_solve_newton, aniso, grid, g, p, SolverConfig())
        assert newton.iterations > 1 and newton.converged
        assert exact.converged and exact.method == "chain"
        assert exact.energy.total <= newton.energy.total + 1e-9 * (1.0 + newton.energy.total)
        assert exact.dual_feasibility_max_violation <= 1e-12


@pytest.mark.parametrize("gauge", POLYGONS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_chain_energy_not_above_the_lattice_bound(gauge, p):
    # the least energy over 401 levels per node bounds the minimum from above,
    # whatever the solver
    aniso = GAUGES[gauge]
    rng = np.random.default_rng([7, len(gauge), int(p)])
    grid = Grid(-1, 1, 64)
    for g in (rng.uniform(-1, 1, 65), _fuzz(rng, 64)):
        bound = float(np.max(np.abs(g)))
        lattice = _lattice_minimum(aniso, grid, g, p, np.linspace(-bound, bound, 401))
        e_lattice = energy(aniso, Profile(grid, lattice), g, p).total
        e_exact = solve(aniso, grid, g, p).energy.total
        assert e_exact <= e_lattice + 1e-12 * (1.0 + e_lattice)


def test_chain_agrees_with_oracle_small_instances():
    rng = np.random.default_rng(23)
    for k in range(12):
        n = int(rng.integers(1, 5))
        aniso = (SQUARE, HEXAGON)[k % 2]
        p = (1.0, 1.0, 2.0)[k % 3]
        grid = Grid(-1, 1, n)
        g = rng.uniform(-1, 1, n + 1)
        o = brute_force_oracle(aniso, grid, g, p)
        eo = float(energy_totals(aniso, o.values[None, :], g, p, grid)[0])
        rep = solve(aniso, grid, g, p)
        assert abs(rep.energy.total - eo) <= 1e-9 * (1.0 + eo)


def test_chain_is_bitwise_deterministic_and_reports_one_sweep():
    grid = Grid(-1, 1, 96)
    g = _fuzz(np.random.default_rng(9), 96)
    for aniso in (SQUARE, HEXAGON):
        for p in (1.0, 2.0):
            r1, r2 = solve(aniso, grid, g, p), solve(aniso, grid, g, p)
            np.testing.assert_array_equal(r1.profile.values, r2.profile.values)
            assert r1.energy == r2.energy
            assert (r1.iterations, r1.converged, r1.final_stagnation) == (1, True, 0.0)
            assert r1.dual_feasibility_max_violation <= 1e-12


def test_solve_routes_every_polygon_to_the_chain():
    grid = Grid(-1, 1, 40)
    g = GSpec.step(0.3).sample(grid)
    for p in (1.0, 2.0):
        exact = _run(_solve_chain, SQUARE, grid, g, p, SolverConfig())
        # the step cap does not apply to the single exact sweep
        routed = solve(SQUARE, grid, g, p, SolverConfig(max_iters=1))
        np.testing.assert_array_equal(routed.profile.values, exact.profile.values)
        assert routed.converged and routed.method == "chain"
    for aniso in (SQUARE, GAUGES["lp1"]):
        routed = solve(aniso, grid, g, 1.5)
        exact = _run(_solve_chain, aniso, grid, g, 1.5, SolverConfig())
        np.testing.assert_array_equal(routed.profile.values, exact.profile.values)
        assert routed.method == "chain" and routed.iterations > 1
    for name in ("euclidean", "ellipse", "lp3"):
        routed = solve(GAUGES[name], grid, g, 1.0)
        assert routed.method == "newton" and routed.iterations > 1


def test_chain_respects_the_sweep_cap():
    grid = Grid(-1, 1, 64)
    g = _fuzz(np.random.default_rng(12), 64)
    for cap in (1, 2, 3):
        rep = solve(SQUARE, grid, g, 1.5, SolverConfig(max_iters=cap))
        assert rep.iterations == cap
        assert not rep.converged
    rep = solve(SQUARE, grid, g, 1.5)
    assert rep.converged and rep.iterations > 3
    assert 0.0 <= rep.final_stagnation <= SolverConfig().tol_rel


def test_chain_proximal_newton_is_bitwise_deterministic():
    grid = Grid(-1, 1, 96)
    g = _fuzz(np.random.default_rng(9), 96)
    for aniso in (SQUARE, HEXAGON):
        for p in (1.5, 3.0):
            r1, r2 = solve(aniso, grid, g, p), solve(aniso, grid, g, p)
            np.testing.assert_array_equal(r1.profile.values, r2.profile.values)
            assert r1.energy == r2.energy
            assert (r1.iterations, r1.final_stagnation) == (r2.iterations, r2.final_stagnation)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_chain_on_a_generic_gauge_not_above_newton(p):
    # a generic gauge is a polygon of 4096 sampled vertices, so its edge term
    # has 2049 slope levels
    aniso = Anisotropy.generic(math.hypot)
    grid = Grid(-1, 1, 32)
    g = GSpec.step(0.3).sample(grid)
    exact = solve(aniso, grid, g, p)
    newton = _run(_solve_newton, aniso, grid, g, p, SolverConfig())
    assert exact.method == "chain" and exact.converged
    assert exact.energy.total <= newton.energy.total + 1e-9 * (1.0 + newton.energy.total)


def test_chain_divergence_on_nonfinite_datum():
    grid = Grid(-1, 1, 8)
    for bad in (np.nan, np.inf):
        g = np.zeros(9)
        g[4] = bad
        for p in (1.0, 1.5, 2.0):
            with pytest.raises(SolverDivergenceError) as excinfo:
                solve(SQUARE, grid, g, p)
            assert excinfo.value.iteration == 1


def test_chain_divergence_on_an_overflowing_fidelity_model():
    # (t^2 + (eps S)^2)^(p/2) overflows at the first eps, so the model's
    # weights are infinite
    grid = Grid(-1, 1, 16)
    for a, p in ((1e6, 80.0), (1e6, 200.0), (1e3, 400.0), (1e80, 5.0)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverDivergenceError) as excinfo:
            solve(SQUARE, grid, GSpec.step(a).sample(grid), p)
        assert excinfo.value.iteration == 1


def test_chain_solves_data_far_from_unit_scale():
    # Newton's pivots vanish on such data at p > 2: the smoothed polygon gauge
    # and |t|^p both lose their curvature, and the tridiagonal solve meets a
    # zero pivot
    grid = Grid(-1, 1, 7)
    rng = np.random.default_rng(3)
    for scale in (1e-8, 1e6):
        g = scale * rng.uniform(-1, 1, 8)
        for p in (1.5, 2.5, 8.0):
            rep = solve(SQUARE, grid, g, p)
            assert rep.converged
            assert rep.energy.total <= energy(SQUARE, Profile(grid, g), g, p).total


def test_chain_maximum_principle_under_the_hexagon():
    # The hexagon is not mirror-symmetric: phi°(r, h) is least at r != 0, so
    # truncating to the datum's range can raise the energy, and the minimizer
    # then overshoots the range (step 0.3 by 0.03, at p = 1 and 2).  The sweep
    # must truncate wherever that is free and overshoot exactly as far as
    # Newton's minimizer does elsewhere.
    rng = np.random.default_rng(6)
    cases = [(Grid(-1, 1, n), GSpec.step(a).sample(Grid(-1, 1, n)), p)
             for n in (16, 64) for a in (0.05, 0.3, 2.0) for p in (1.0, 2.0)]
    for k in range(8):
        n = int(rng.integers(16, 129))
        cases.append((Grid(-1, 1, n), _fuzz(rng, n), (1.0, 2.0)[k % 2]))
    inside = 0
    for grid, g, p in cases:
        rep = solve(HEXAGON, grid, g, p)
        u = rep.profile.values
        newton = _run(_solve_newton, HEXAGON, grid, g, p, SolverConfig()).profile.values
        excess = max(g.min() - u.min(), u.max() - g.max(), 0.0)
        newton_excess = max(g.min() - newton.min(), newton.max() - g.max(), 0.0)
        assert excess == pytest.approx(newton_excess, abs=1e-6)
        if excess == 0.0:
            inside += 1
            continue
        truncated = energy(HEXAGON, Profile(grid, np.clip(u, g.min(), g.max())), g, p).total
        assert truncated > rep.energy.total + 1e-6
    assert inside >= len(cases) // 2


# -- local and whole-array sweeps ----------------------------------------

# a regular octagon: its edge term has 5 slope levels
OCTAGON = Anisotropy.polygon([[np.cos(t), np.sin(t)] for t in np.pi / 4 * np.arange(8)])
SPARSE = {"square": SQUARE, "lp1": GAUGES["lp1"], "hexagon": HEXAGON, "octagon": OCTAGON}


def _sweep_input(aniso, grid):
    """The levels and kinks that :func:`solver._solve_chain` hands to the sweep."""
    s, _, handover = aniso.dual_envelope
    return -s[::-1], -(grid.h * handover)[::-1]


def _local_and_whole_sweeps(monkeypatch, aniso, grid, centres, weights, quadratic):
    """The profile of the local sweep, then that of the whole-array one."""
    levels, kinks = _sweep_input(aniso, grid)
    assert len(levels) <= solver._LOCAL_LEVELS
    local = solver._chain_sweep(levels, kinks, centres, weights, quadratic)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_LOCAL_LEVELS", 0)
        whole = solver._chain_sweep(levels, kinks, centres, weights, quadratic)
    return local, whole


@pytest.mark.parametrize("gauge", SPARSE)
def test_local_quadratic_sweep_matches_the_whole_array_sweep(monkeypatch, gauge):
    # weights spread over three decades, as a proximal Newton model's can be
    rng = np.random.default_rng([31, list(SPARSE).index(gauge)])
    for n in (1, 2, 8, 64, 512, 4096):
        grid = Grid(-1, 1, n)
        noisy = np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(n + 1)
        # below 5 cells every node is a level of its own
        fuzz = _fuzz(rng, n) if n >= 5 else rng.uniform(-1, 1, n + 1)
        for g in (GSpec.step(0.3).sample(grid), fuzz, noisy):
            weights = trapezoid_weights(grid) * 10.0 ** rng.uniform(-1.5, 1.5, n + 1)
            local, whole = _local_and_whole_sweeps(monkeypatch, SPARSE[gauge], grid, g, weights,
                                                   True)
            scale = np.ptp(g) + grid.length
            np.testing.assert_allclose(local, whole, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("gauge", SPARSE)
def test_local_staircase_sweep_matches_the_whole_array_sweep(monkeypatch, gauge):
    # Weights spread over three decades keep minimizers from tying.  Under
    # equal weights two minimizers can tie to the last bit, and the two
    # sweeps, which round the staircase's values differently, may then return
    # different ones.
    rng = np.random.default_rng([41, list(SPARSE).index(gauge)])
    for n in (1, 2, 8, 64, 512, 4096):
        grid = Grid(-1, 1, n)
        noisy = np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(n + 1)
        fuzz = _fuzz(rng, n) if n >= 5 else rng.uniform(-1, 1, n + 1)
        for g in (GSpec.step(0.3).sample(grid), fuzz, noisy):
            weights = trapezoid_weights(grid) * 10.0 ** rng.uniform(-1.5, 1.5, n + 1)
            local, whole = _local_and_whole_sweeps(monkeypatch, SPARSE[gauge], grid, g, weights,
                                                   False)
            scale = np.ptp(g) + grid.length
            np.testing.assert_allclose(local, whole, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("k", [-600, 600])
def test_quadratic_sweeps_are_bitwise_scale_equivariant(monkeypatch, k):
    # centres and kinks times 2^k, weights times 2^-k: every product of a
    # weight and a length is unchanged, so the profile is exactly 2^k times
    rng = np.random.default_rng(37)
    for aniso in SPARSE.values():
        grid = Grid(-1, 1, 64)
        weights = trapezoid_weights(grid) * 10.0 ** rng.uniform(-1.5, 1.5, 65)
        for g in (_fuzz(rng, 64), np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(65)):
            levels, kinks = _sweep_input(aniso, grid)
            for limit in (solver._LOCAL_LEVELS, 0):  # the local sweep, then the whole-array one
                monkeypatch.setattr(solver, "_LOCAL_LEVELS", limit)
                u = solver._chain_sweep(levels, kinks, g, weights, True)
                scaled = solver._chain_sweep(levels, np.ldexp(kinks, k), np.ldexp(g, k),
                                             np.ldexp(weights, -k), True)
                assert scaled.tobytes() == np.ldexp(u, k).tobytes()


@pytest.mark.parametrize("k", [-600, 600])
def test_staircase_sweeps_are_bitwise_scale_equivariant(monkeypatch, k):
    # centres and kinks times 2^k, weights unchanged: the staircase's values
    # are sums of weights and do not change, and every position is exactly
    # 2^k times, so the profile is too
    rng = np.random.default_rng(43)
    for aniso in SPARSE.values():
        grid = Grid(-1, 1, 64)
        weights = trapezoid_weights(grid) * 10.0 ** rng.uniform(-1.5, 1.5, 65)
        for g in (_fuzz(rng, 64), np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(65)):
            levels, kinks = _sweep_input(aniso, grid)
            for limit in (solver._LOCAL_LEVELS, 0):
                monkeypatch.setattr(solver, "_LOCAL_LEVELS", limit)
                u = solver._chain_sweep(levels, kinks, g, weights, False)
                scaled = solver._chain_sweep(levels, np.ldexp(kinks, k), np.ldexp(g, k), weights,
                                             False)
                assert scaled.tobytes() == np.ldexp(u, k).tobytes()


def test_a_centre_on_a_jump_lengthens_it(monkeypatch):
    # The square's kink is 0, so its jumps stay at the centres that made
    # them: each of the step's three values (-0.3, 0 at the middle node and
    # 0.3) makes one jump, which the later nodes with that centre lengthen,
    # so the staircase pushes one entry per value on each of its two heaps.
    pushed = []
    monkeypatch.setattr(solver, "heappush",
                        lambda heap, y: pushed.append(y) or heapq.heappush(heap, y))
    rng = np.random.default_rng(47)
    grid = Grid(-1, 1, 64)
    g = GSpec.step(0.3).sample(grid)
    weights = trapezoid_weights(grid) * 10.0 ** rng.uniform(-1.5, 1.5, 65)
    local, whole = _local_and_whole_sweeps(monkeypatch, SQUARE, grid, g, weights, False)
    assert len(pushed) == 6
    np.testing.assert_allclose(local, whole, rtol=0.0, atol=1e-12 * (0.6 + grid.length))
    # lp(1) moves its bands by -h and +h, so a centre lands on a jump of the
    # band above 0 when the datum rises by h per node
    g = GSpec.step(0.3).sample(grid) + grid.h * np.arange(65)
    local, whole = _local_and_whole_sweeps(monkeypatch, GAUGES["lp1"], grid, g, weights, False)
    np.testing.assert_allclose(local, whole, rtol=0.0, atol=1e-12 * (np.ptp(g) + grid.length))


def test_a_staircase_with_a_non_finite_input_is_nan():
    grid = Grid(-1, 1, 16)
    weights = trapezoid_weights(grid)
    for aniso in SPARSE.values():
        levels, kinks = _sweep_input(aniso, grid)
        for bad in (np.nan, np.inf, -np.inf):
            g = np.zeros(17)
            g[5] = bad
            assert np.isnan(solver._chain_sweep(levels, kinks, g, weights, False)).all()
            w = weights.copy()
            w[5] = bad
            assert np.isnan(solver._chain_sweep(levels, kinks, np.zeros(17), w, False)).all()


def test_sparse_envelopes_sweep_locally_at_both_exponents(monkeypatch):
    calls = []
    for name in ("_local_messages", "_staircase_messages", "_array_messages"):
        forward = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, name=name, forward=forward:
                            calls.append(name) or forward(*args))
    grid = Grid(-1, 1, 32)
    g = GSpec.step(0.3).sample(grid)
    generic = Anisotropy.generic(math.hypot)  # 2049 slope levels
    for aniso, p, forward in ((SQUARE, 2.0, "_local_messages"), (OCTAGON, 2.0, "_local_messages"),
                              (SQUARE, 1.0, "_staircase_messages"),
                              (OCTAGON, 1.0, "_staircase_messages"),
                              (generic, 1.0, "_array_messages"),
                              (generic, 2.0, "_array_messages")):
        calls.clear()
        assert solve(aniso, grid, g, p).method == "chain"
        assert calls == [forward]
    calls.clear()
    solve(GAUGES["lp1"], grid, g, 1.5)  # each proximal Newton step is a quadratic sweep
    assert len(calls) > 1 and set(calls) == {"_local_messages"}


# -- comparison principle ---------------------------------------------------

COMPARISON_GAUGES = {
    "euclidean": EUCLID,
    "ellipse": GAUGES["ellipse"],
    "lp3": GAUGES["lp3"],
    "square": SQUARE,
    "lp1": GAUGES["lp1"],
    "hexagon": Anisotropy.polygon(
        [[np.cos(t), np.sin(t)] for t in 0.3 + np.pi / 3 * np.arange(6)]),
}


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("gauge", COMPARISON_GAUGES)
def test_a_higher_datum_gives_a_higher_profile(gauge, p):
    # g1 <= g2 gives u1 <= u2 for the minimizers each method returns.  Above
    # p = 1 the minimizer is unique.  At p = 1 there can be many, and each
    # method returns one by a rule that keeps the order: the chain's
    # backward pass takes the first crossing of every level, so it returns
    # the least minimizer (unless rounding breaks an exact tie, which these
    # data do not meet), and Newton returns the limit of the unique
    # minimizers of its smoothed energies.
    aniso = COMPARISON_GAUGES[gauge]
    rng = np.random.default_rng([53, list(COMPARISON_GAUGES).index(gauge), int(2 * p)])
    for case in range(10):
        n = (8, 200, *rng.integers(9, 200, 8))[case]
        grid = Grid(-1, 1, n)
        g1 = (GSpec.step(0.3).sample(grid), _fuzz(rng, n),
              np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(n + 1))[case % 3]
        # raise a random half of the nodes, so that many stay equal
        g2 = g1 + rng.uniform(0.0, 0.5, n + 1) * (rng.random(n + 1) < 0.5)
        u1, u2 = (solve(aniso, grid, g, p).profile.values for g in (g1, g2))
        scale = max(np.ptp(g1), np.ptp(g2)) + grid.length
        assert np.max(u1 - u2) <= 1e-9 * scale


# -- value-only line search and polish ----------------------------------


@pytest.mark.parametrize("p", [1.0, 1.05, 1.5, 2.0, 2.5, 3.0, 8.0])
def test_fidelity_value_alone_is_the_first_output_bitwise(p):
    eps = 1e-3
    t = np.array([0.0, eps, -eps, 0.5, -2.0, 1e100, -1e100])
    with np.errstate(over="ignore"):  # the powers overflow at 1e100, alone or in full
        value = next(solver._smoothed_power(t, p, eps))
        full, (first, second) = solver._smoothed_power(t, p, eps)
        assert value.tobytes() == full.tobytes()
        assert first.shape == second.shape == t.shape


@pytest.mark.parametrize("p", [1.0, 1.05, 1.5, 3.0])
def test_smoothed_power_stays_finite_while_t_squared_does(p):
    # pyproject.toml turns an overflow's RuntimeWarning into a failure
    t = np.array([1e100, -1e100])
    value, (first, second) = solver._smoothed_power(t, p, 1e-3)
    np.testing.assert_allclose(value, np.abs(t) ** p, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(first, p * np.sign(t) * np.abs(t) ** (p - 1.0), rtol=1e-15, atol=0.0)
    assert np.isfinite(second).all() and np.all(second >= 0.0)


def _evaluation(terms, reads, eager):
    """``terms``, logging each output read; ``eager`` computes all of them before the value."""
    def evaluate(*args):
        outputs = terms(*args)
        if eager:
            outputs = iter(tuple(outputs))
        for output in ("value", "derivatives"):
            reads.append((terms.__name__, output))
            yield next(outputs)
    return evaluate


def _line_search_cases():
    rng = np.random.default_rng(61)
    grid = Grid(-1, 1, 48)
    noisy = np.sin(3 * grid.nodes()) + 0.3 * rng.standard_normal(49)
    return [(grid, GSpec.step(0.3).sample(grid)), (grid, _fuzz(rng, 48)), (grid, noisy)]


@pytest.mark.parametrize("method,gauges,ps", [
    ("newton", ["euclidean", "ellipse", "lp1.5", "lp3"], [1.0, 1.05, 1.5, 2.0, 3.0]),
    ("chain", ["square", "hexagon"], [1.05, 1.5, 3.0]),
], ids=["newton", "chain"])
def test_value_only_line_search_takes_the_full_evaluations_steps(monkeypatch, method, gauges, ps):
    # the line search reads energy values alone; computed with every derivative
    # before the value, as a full evaluation does, they give bitwise the same reports
    def reports(eager):
        reads = []
        with monkeypatch.context() as patch:
            patch.setattr(Anisotropy, "smoothed_dual",
                          _evaluation(Anisotropy.smoothed_dual, reads, eager))
            patch.setattr(solver, "_smoothed_power",
                          _evaluation(solver._smoothed_power, reads, eager))
            return reads, [solve(GAUGES[gauge], grid, g, p)
                           for gauge in gauges for p in ps for grid, g in _line_search_cases()]

    reads, fast = reports(eager=False)
    assert {rep.method for rep in fast} == {method}
    # the trials read the value of the energy's smoothed term without its derivatives
    term = "smoothed_dual" if method == "newton" else "_smoothed_power"
    assert reads.count((term, "derivatives")) < reads.count((term, "value"))
    _, full = reports(eager=True)
    for a, b in zip(fast, full):
        assert a.profile.values.tobytes() == b.profile.values.tobytes()
        assert dataclasses.replace(a, profile=None) == dataclasses.replace(b, profile=None)


def test_polish_scores_only_candidates_that_move_a_node(monkeypatch):
    # the solve lies inside the datum's range, so truncation moves nothing and
    # only the profile and the snapped profile are scored
    grid = Grid(-1, 1, 128)
    g = GSpec.step(0.5).sample(grid)
    calls = []
    monkeypatch.setattr(solver, "energy", lambda *args: calls.append(args) or energy(*args))
    rep = solve(EUCLID, grid, g, 1.0)
    u = rep.profile.values
    assert g.min() <= u.min() and u.max() <= g.max()
    assert len(calls) == 2
    assert rep.energy == energy(EUCLID, rep.profile, g, 1.0)
