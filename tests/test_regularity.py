"""Regularity diagnostics: Lipschitz link, refinement study, tangent balls."""

import math
import tracemalloc

import loop_reference
import numpy as np
import pytest

from anisocurve import (
    Anisotropy,
    Grid,
    GSpec,
    Profile,
    SolverConfig,
    energy,
    lipschitz_report,
    refinement_study,
    solve,
    tangent_ball_check,
)
from anisocurve import reference as ref
from anisocurve.regularity import _graph_obstacles

EUCLID = Anisotropy.euclidean()


def test_lipschitz_flat_profile():
    grid = Grid(-1, 1, 16)
    rep = lipschitz_report(Profile(grid, np.zeros(17)), np.zeros(17))
    assert rep.lipschitz_estimate == 0.0
    assert rep.normal_deviation_min == pytest.approx(1.0)
    assert rep.max_principle_ok


def test_lipschitz_linear_slope_one():
    grid = Grid(-1, 1, 16)
    nodes = grid.nodes()
    rep = lipschitz_report(Profile(grid, nodes), nodes)
    assert rep.lipschitz_estimate == pytest.approx(1.0)
    assert rep.normal_deviation_min == pytest.approx(1.0 / math.sqrt(2.0))


def test_lipschitz_c11_sample_matches_arc_slope():
    a = 0.05
    grid = Grid(-1, 1, 2048)
    u = ref.sample_profile(grid, ref.c11_minimizer, a)
    g = GSpec.step(a).sample(grid)
    rep = lipschitz_report(u, g)
    assert rep.lipschitz_estimate == pytest.approx(ref.c11_max_slope(a), abs=5e-2)


def test_lipschitz_link_formula_random():
    rng = np.random.default_rng(4)
    grid = Grid(-1, 1, 64)
    for _ in range(20):
        u = Profile(grid, rng.uniform(-1, 1, 65))
        rep = lipschitz_report(u, np.zeros(65))
        lam = rep.normal_deviation_min
        assert rep.lipschitz_estimate == pytest.approx(
            math.sqrt(1.0 / lam**2 - 1.0), abs=1e-9
        )


def test_max_principle_margins():
    grid = Grid(-1, 1, 8)
    g = np.linspace(-0.5, 0.25, 9)
    inside = Profile(grid, np.zeros(9))
    assert lipschitz_report(inside, g).max_principle_ok
    outside = Profile(grid, np.full(9, 0.4))
    rep = lipschitz_report(outside, g)
    assert not rep.max_principle_ok
    assert rep.max_principle_margin_high < 0.0


# -- refinement study ---------------------------------------------------


def test_refinement_constant_datum_is_lipschitz():
    study = refinement_study(EUCLID, Grid(-1, 1, 16), GSpec.constant(0.3), 1.5)
    assert study.classification == "lipschitz"
    assert max(study.slope_maxima) < 1e-9


def test_refinement_needs_three_levels():
    with pytest.raises(ValueError):
        refinement_study(EUCLID, Grid(-1, 1, 16), GSpec.constant(0.0), 1.0, levels=2)


def test_refinement_below_threshold_lipschitz():
    study = refinement_study(EUCLID, Grid(-1, 1, 64), GSpec.step(0.05), 1.0,
                             cfg=SolverConfig(max_iters=8000))
    assert study.classification == "lipschitz"
    assert study.cells == [64, 128, 256]


def test_refinement_above_threshold_jump():
    study = refinement_study(EUCLID, Grid(-1, 1, 64), GSpec.step(2.0), 1.0,
                             cfg=SolverConfig(max_iters=8000))
    assert study.classification == "jump_suspected"


def test_refinement_runs_on_the_public_newton_solve():
    import anisocurve.regularity
    import anisocurve.solver

    assert anisocurve.regularity.solve is anisocurve.solver.solve


def test_refinement_statistics_explain_the_labels():
    below = refinement_study(EUCLID, Grid(-1, 1, 64), GSpec.step(0.05), 1.0)
    assert below.slope_exponent <= 0.25
    # the cost of an extra jump does not vanish below the threshold
    assert all(b > 0.75 * a for a, b in zip(below.jump_excess[:-1], below.jump_excess[1:]))
    above = refinement_study(EUCLID, Grid(-1, 1, 64), GSpec.step(2.0), 1.0)
    # above it the arc pairs make a jump admissible: the excess halves per level
    assert 0.25 < above.slope_exponent < 0.75
    assert all(0.0 < b <= 0.6 * a for a, b in zip(above.jump_excess[:-1], above.jump_excess[1:]))
    assert above.classification == "jump_suspected"
    # the excess is the exact energy of the minimizer with its steepest edge
    # enlarged by J = ptp(g) / 8, minus the minimizer's energy
    u = above.base_report.profile.values
    j = int(np.argmax(np.abs(np.diff(u))))
    shifted = u + np.where(np.arange(65) > j, 0.25, -0.25)
    g = GSpec.step(2.0).sample(Grid(-1, 1, 64))
    assert above.jump_excess[0] == pytest.approx(
        energy(EUCLID, Profile(Grid(-1, 1, 64), shifted), g, 1.0).total
        - above.base_report.energy.total, rel=1e-12)


def test_refinement_slope_exponent_flags_a_jump():
    # p = 1.5 keeps a jump of the height-2 step on one edge: L_k ~ 1/h
    study = refinement_study(EUCLID, Grid(-1, 1, 128), GSpec.step(2.0), 1.5)
    assert study.slope_exponent >= 0.75
    assert study.classification == "jump_suspected"


def test_refinement_unresolved_slope_is_inconclusive():
    # height 0.99 is below the jump transition at 1, but its steepest slope
    # (c11_max_slope, about 100) is not resolved at n <= 4096
    study = refinement_study(EUCLID, Grid(-1, 1, 512), GSpec.step(0.99), 1.0, levels=4)
    assert 0.25 < study.slope_exponent < 0.75
    assert study.jump_excess[-1] > 0.75 * study.jump_excess[-2]
    assert study.classification == "inconclusive"


# -- tangent ball -------------------------------------------------------


def test_tangent_ball_flat_profile():
    grid = Grid(-1, 1, 64)
    u = Profile(grid, np.zeros(65))
    rep = tangent_ball_check(EUCLID, u, 0.7)
    assert rep.fraction_verified_above == 1.0
    assert rep.fraction_verified_below == 1.0
    assert rep.radius_tested == 0.7


def test_tangent_ball_off_the_euclidean_gauge():
    grid = Grid(-1, 1, 64)
    flat = Profile(grid, np.zeros(65))
    square = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    for aniso in (square, Anisotropy.lp(3.0)):
        rep = tangent_ball_check(aniso, flat, 0.5)
        assert rep.fraction_verified_above == rep.fraction_verified_below == 1.0
    step = Profile(grid, np.where(grid.nodes() > 0, 1.0, 0.0))
    rep = tangent_ball_check(square, step, 0.5)
    assert rep.fraction_verified_above == rep.fraction_verified_below == 55 / 65


def test_tangent_ball_rejects_bad_radius():
    grid = Grid(-1, 1, 8)
    with pytest.raises(ValueError):
        tangent_ball_check(EUCLID, Profile(grid, np.zeros(9)), 0.0)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_tangent_ball_needs_a_finite_radius(r):
    with pytest.raises(ValueError):
        tangent_ball_check(EUCLID, Profile(Grid(-1, 1, 8), np.zeros(9)), r)


def test_tangent_ball_c11_sample():
    a = 0.05
    grid = Grid(-1, 1, 1024)
    u = ref.sample_profile(grid, ref.c11_minimizer, a)
    rep = tangent_ball_check(EUCLID, u, 0.5)
    assert rep.fraction_verified_above == 1.0
    assert rep.fraction_verified_below == 1.0


def test_tangent_ball_step_fails_below():
    grid = Grid(-1, 1, 256)
    u = Profile(grid, np.where(grid.nodes() > 0, 1.0, 0.0))
    rep = tangent_ball_check(EUCLID, u, 0.1)
    assert rep.fraction_verified_below < 1.0


def test_tangent_ball_solver_output_at_theory_radius():
    # Prop-level invariant: below sigma the solution admits balls of
    # radius 0.9 alpha0 / Lambda from both sides
    from anisocurve import sigma_threshold

    rep = sigma_threshold(EUCLID, 1.0, 2.0)
    grid = Grid(-1, 1, 512)
    g = GSpec.step(0.05).sample(grid)
    sol = solve(EUCLID, grid, g, 1.0)
    ball = tangent_ball_check(EUCLID, sol.profile, 0.9 * rep.alpha0 / rep.lam)
    assert ball.fraction_verified_above >= 0.99
    assert ball.fraction_verified_below >= 0.99


@pytest.mark.parametrize("raise_by, ok", [(0.0, True), (5e-7, False), (1e-16, True)],
                         ids=["inside", "50-times-the-datum", "rounding"])
def test_max_principle_flag_is_relative_to_the_datum(raise_by, ok):
    grid = Grid(-1, 1, 8)
    g = GSpec.step(1e-8).sample(grid)
    u = g.copy()
    u[-1] += raise_by
    for k in range(-300, 301):
        rep = lipschitz_report(Profile(grid, u * 2.0**k), g * 2.0**k)
        assert rep.max_principle_ok == ok, k


@pytest.mark.parametrize("raise_by, ok", [(0.0, True), (0.5, False)],
                         ids=["inside", "half-the-range"])
def test_max_principle_flag_does_not_loosen_at_an_offset(raise_by, ok):
    # g = 1e6 -+ 0.5: a tolerance relative to ||g||_inf would allow 1, the
    # datum's whole range
    grid = Grid(-1, 1, 8)
    g = 1e6 + GSpec.step(0.5).sample(grid)
    u = g.copy()
    u[-1] += raise_by
    for k in range(-300, 301):
        assert lipschitz_report(Profile(grid, u * 2.0**k), g * 2.0**k).max_principle_ok == ok, k


def test_zero_datum_allows_no_excursion():
    grid = Grid(-1, 1, 8)
    u = np.zeros(9)
    u[3] = -1e-300
    assert not lipschitz_report(Profile(grid, u), np.zeros(9)).max_principle_ok


# -- the block tangent-ball check against the per-centre loop ----------------

BALL_GAUGES = {
    "euclidean": EUCLID,
    "ellipse": Anisotropy.ellipse(2.0, 0.5),
    "lp3": Anisotropy.lp(3.0),
    "lp1": Anisotropy.lp(1.0),
    "square": Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
    "hexagon": Anisotropy.polygon([[math.cos(t), math.sin(t)]
                                   for t in 0.3 + math.pi / 3.0 * np.arange(6)]),
}


def _ball_profiles(rng):
    """Smooth graphs, steps whose jump edges are subdivided, and noise, on grids
    whose obstacle count does and does not divide the block budget."""
    for n in (1, 7, 64, 200):
        grid = Grid(-1, 1, n)
        s = grid.nodes()
        yield Profile(grid, 0.05 * np.tanh(5.0 * s))
        yield Profile(grid, np.where(s > 0.1, 0.8, 0.0) + 0.01 * rng.standard_normal(n + 1))
        yield Profile(grid, 0.3 * rng.standard_normal(n + 1))


@pytest.mark.parametrize("name", BALL_GAUGES)
def test_block_tangent_balls_match_the_per_centre_loop(name):
    aniso = BALL_GAUGES[name]
    fractions = set()
    for u in _ball_profiles(np.random.default_rng(28)):
        assert _graph_obstacles(u).tolist() == loop_reference.graph_obstacles(u).tolist()
        for r in (0.1, 0.5):
            rep = tangent_ball_check(aniso, u, r)
            assert rep == loop_reference.tangent_ball_check(aniso, u, r)
            fractions.update((rep.fraction_verified_above, rep.fraction_verified_below))
    assert 1.0 in fractions and len(fractions) > 2


def test_block_tangent_balls_memory_stays_bounded():
    # n = 4096: the whole (centres x obstacles) matrix of gauge values would take
    # 134 MB per side
    grid = Grid(-1, 1, 4096)
    u = Profile(grid, 0.05 * np.tanh(5.0 * grid.nodes()))
    tracemalloc.start()
    try:
        rep = tangent_ball_check(EUCLID, u, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.fraction_verified_above == rep.fraction_verified_below == 1.0
    assert peak < 4e6
