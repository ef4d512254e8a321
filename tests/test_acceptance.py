"""Acceptance suite: ten criteria, one pass/fail line each.

Run with -s to see the per-criterion lines while the suite executes;
each criterion also carries its wall-clock budget.
"""

import functools
import math
import time

import numpy as np

from anisocurve import (
    Anisotropy,
    Grid,
    GSpec,
    Profile,
    RasterSet,
    SolverConfig,
    brute_force_oracle,
    cahn_hoffman,
    energy,
    lipschitz_report,
    raster_phi_perimeter,
    refinement_study,
    sigma_threshold,
    solve,
    tangent_ball_check,
    vertical_rearrangement,
)
from anisocurve import reference as ref
from anisocurve.energy import energy_totals

EUCLID = Anisotropy.euclidean()
SQUARE = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])


def _check(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  ({detail}; {elapsed:.1f} s, budget {budget:.0f} s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f} s"


@functools.lru_cache(maxsize=1)
def _criterion4_solution():
    grid = Grid(-1, 1, 2048)
    g = GSpec.step(0.05).sample(grid)
    return grid, g, solve(EUCLID, grid, g, 1.0)


def test_criterion_01_euclidean_constants():
    t0 = time.perf_counter()
    m = EUCLID.wulff_measures()
    errs = [
        abs(m.area - math.pi),
        abs(m.phi_perimeter - 2.0 * math.pi),
        abs(m.c_phi - math.sqrt(4.0 * math.pi)),
        abs(m.alpha0 - 2.0 * math.sqrt(math.pi) / (4.0 * math.pi + 1.0)),
    ]
    _check(1, max(errs) < 1e-6, f"max constant error {max(errs):.2e}", t0, 1.0)


def test_criterion_02_golden_energy():
    t0 = time.perf_counter()
    exact = ref.arc_pair_energy()
    errors = {}
    for n in (1024, 4096):
        grid = Grid(-1, 1, n)
        g = GSpec.step(2.0).sample(grid)
        errs = []
        for a, b in ((0.0, 0.0), (1.0, -1.0)):
            u = ref.sample_profile(grid, ref.arc_pair_profile, a, b)
            errs.append(abs(energy(EUCLID, u, g, 1.0).total - exact))
        errors[n] = max(errs)
    ok = errors[4096] < 5e-2 and errors[4096] <= 0.5 * errors[1024] + 1e-12
    _check(2, ok, f"err(4096) {errors[4096]:.2e}, err(1024) {errors[1024]:.2e}", t0, 1.0)


def test_criterion_03_sigma_identity():
    t0 = time.perf_counter()
    rep = sigma_threshold(EUCLID, 1.0, 2.0)
    ok = rep.sigma == 0.25 * min(rep.alpha0, 2.0)
    _check(3, ok, f"sigma {rep.sigma!r}", t0, 1.0)


def test_criterion_04_below_threshold_regularity():
    t0 = time.perf_counter()
    a = 0.05
    grid, g, rep = _criterion4_solution()
    exact = ref.sample_profile(grid, ref.c11_minimizer, a).values
    sup = float(np.max(np.abs(rep.profile.values - exact)))
    lip = lipschitz_report(rep.profile, g).lipschitz_estimate
    lip_err = abs(lip - ref.c11_max_slope(a))
    study = refinement_study(EUCLID, Grid(-1, 1, 512), GSpec.step(a), 1.0, levels=4)
    ok = sup < 2e-2 and lip_err < 5e-2 and study.classification == "lipschitz"
    _check(4, ok, f"sup {sup:.2e}, lip err {lip_err:.2e}, {study.classification}", t0, 30.0)


def test_criterion_05_above_threshold_jump():
    t0 = time.perf_counter()
    study = refinement_study(EUCLID, Grid(-1, 1, 512), GSpec.step(2.0), 1.0, levels=4)
    grid = Grid(-1, 1, 4096)
    g = GSpec.step(2.0).sample(grid)
    rep = solve(EUCLID, grid, g, 1.0, SolverConfig(max_iters=20_000))
    gap = abs(rep.energy.total - ref.arc_pair_energy())
    ok = study.classification == "jump_suspected" and gap < 5e-2
    _check(5, ok, f"{study.classification}, energy gap {gap:.2e}", t0, 30.0)


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    l1 = Anisotropy.lp(1.0)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 5))
        aniso = EUCLID if k % 2 == 0 else l1
        p = 1.0 if k % 4 < 2 else 2.0
        grid = Grid(-1, 1, n)
        g = rng.uniform(-1, 1, n + 1)
        o = brute_force_oracle(aniso, grid, g, p)
        eo = float(energy_totals(aniso, o.values[None, :], g, p, grid)[0])
        es = solve(aniso, grid, g, p).energy.total
        worst = max(worst, abs(es - eo) / (1.0 + eo))
    _check(6, worst <= 1e-3, f"worst relative gap {worst:.2e}", t0, 60.0)


def test_criterion_07_maximum_principle_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = Grid(-1, 1, 256)
    worst = 0.0
    for k in range(100):
        pieces = int(rng.integers(1, 9))
        edges = np.sort(rng.integers(1, 256, pieces - 1)) if pieces > 1 else []
        levels = rng.uniform(-1, 1, pieces)
        g = np.repeat(levels, np.diff(np.r_[0, edges, 257]).astype(int))
        p = (1.0, 1.5, 2.0)[k % 3]
        u = solve(EUCLID, grid, g, p).profile.values
        worst = max(worst, float(np.min(g) - np.min(u)), float(np.max(u) - np.max(g)))
    _check(7, worst <= 1e-6, f"worst bound excess {worst:.2e}", t0, 60.0)


def test_criterion_08_classifier_theorems():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    corner = np.array([-1.0, 1.0])
    all_feasible = True
    corner_admitted = True
    monotone_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 40))
        grid = Grid(-1, 1, n)
        du = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 1.0, n))
        res = cahn_hoffman(SQUARE, Profile(grid, np.concatenate([[0.0], np.cumsum(du)])))
        all_feasible &= res.feasible
        monotone_ok &= res.monotone in ("nondecreasing", "constant")
        if res.feasible:
            d_end = np.min(np.hypot(*(res.witness_arc.endpoints - corner).T))
            d_mid = float(np.hypot(*(res.witness_arc.midpoint - corner)))
            corner_admitted &= min(d_end, d_mid) < 1e-6
    grid = Grid(-1, 1, 64)
    curved = cahn_hoffman(EUCLID, Profile(grid, np.tanh(2.0 * grid.nodes())))
    ok = all_feasible and corner_admitted and monotone_ok and not curved.feasible
    _check(8, ok, f"feasible {all_feasible}, corner {corner_admitted}, "
                  f"monotone {monotone_ok}, curved infeasible {not curved.feasible}",
           t0, 10.0)


def test_criterion_09_rearrangement_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    anisos = [EUCLID, Anisotropy.lp(1.0), SQUARE, Anisotropy.ellipse(2.0, 0.5)]
    worst = -np.inf
    counts_ok = True
    for _ in range(200):
        nx = int(rng.integers(2, 16))
        ny = int(rng.integers(2, 16))
        cells = rng.random((nx, ny)) < rng.uniform(0.2, 0.8)
        F = RasterSet(0, nx, 0, ny, cells)
        G = vertical_rearrangement(F)
        counts_ok &= bool(np.array_equal(G.cells.sum(axis=1), cells.sum(axis=1)))
        for aniso in anisos:
            worst = max(worst, raster_phi_perimeter(G, aniso) - raster_phi_perimeter(F, aniso))
    ok = worst <= 1e-9 and counts_ok
    _check(9, ok, f"worst perimeter increase {worst:.2e}, counts preserved {counts_ok}",
           t0, 30.0)


def test_criterion_10_tangent_ball():
    t0 = time.perf_counter()
    _, _, rep = _criterion4_solution()
    ball = tangent_ball_check(EUCLID, rep.profile, 0.5)
    step_grid = Grid(-1, 1, 256)
    step = Profile(step_grid, np.where(step_grid.nodes() > 0, 1.0, 0.0))
    step_ball = tangent_ball_check(EUCLID, step, 0.5)
    ok = (ball.fraction_verified_above == 1.0 and ball.fraction_verified_below == 1.0
          and step_ball.fraction_verified_below < 1.0)
    _check(10, ok, f"fractions {ball.fraction_verified_above}/{ball.fraction_verified_below}, "
                   f"step below {step_ball.fraction_verified_below:.3f}", t0, 10.0)
