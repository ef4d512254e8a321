"""Primal-dual solver and brute-force oracle tests."""

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
    prox_fidelity,
    solve,
)
from anisocurve.energy import energy_totals
from anisocurve.solver import _prox_fidelity_many
from anisocurve import reference as ref

EUCLID = Anisotropy.euclidean()


# -- prox ---------------------------------------------------------------


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


def test_config_rejects_unstable_steps():
    with pytest.raises(ValueError):
        SolverConfig(tau=1.0, sigma_step=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(over_relaxation=1.5)


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
    g = np.zeros(9)
    g[4] = np.nan
    with pytest.raises(SolverDivergenceError) as excinfo:
        solve(EUCLID, grid, g, 1.0)
    assert excinfo.value.iteration >= 1


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


def test_oracle_rejects_large_grids_and_few_levels():
    grid = Grid(-1, 1, 5)
    with pytest.raises(ValueError):
        brute_force_oracle(EUCLID, grid, np.zeros(6), 1.0)
    with pytest.raises(ValueError):
        brute_force_oracle(EUCLID, Grid(-1, 1, 2), np.zeros(3), 1.0, levels=5)


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
