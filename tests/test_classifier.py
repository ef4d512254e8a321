"""Cahn-Hoffman calibration classifier tests."""

import math

import numpy as np
import pytest

from anisocurve import Anisotropy, Grid, Profile, cahn_hoffman, edge_normals

EUCLID = Anisotropy.euclidean()
SQUARE = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])


def _staircase(rng, n):
    """Random nondecreasing staircase with flat runs and up steps."""
    flat = rng.random(n) < 0.5
    du = np.where(flat, 0.0, rng.uniform(0.1, 1.0, n))
    return np.concatenate([[0.0], np.cumsum(du)])


# -- edge_normals -------------------------------------------------------


def test_edge_normals_flat():
    grid = Grid(-1, 1, 8)
    en = edge_normals(Profile(grid, np.zeros(9)))
    np.testing.assert_allclose(en.normals, np.tile([0.0, 1.0], (8, 1)))
    assert not en.jump_flags.any()
    assert len(en.limit_normals) == 0


def test_edge_normals_linear():
    grid = Grid(-1, 1, 8)
    en = edge_normals(Profile(grid, grid.nodes()))
    np.testing.assert_allclose(en.normals, np.tile([-1, 1] / np.sqrt(2), (8, 1)))


def test_edge_normals_jump_limit():
    grid = Grid(0, 1, 1_000_000)
    sub = Grid(0, 3e-6, 3)
    vals = np.array([0.0, 0.0, 1.0, 1.0])  # unit up-step on one tiny edge
    en = edge_normals(Profile(sub, vals))
    assert en.jump_flags.tolist() == [False, True, False]
    np.testing.assert_allclose(en.limit_normals, [[-1.0, 0.0]])
    steep = en.normals[1]
    assert steep[0] == pytest.approx(-1.0, abs=1e-5)
    del grid


# -- cahn_hoffman -------------------------------------------------------


def test_linear_profile_feasible_euclidean():
    grid = Grid(-1, 1, 32)
    res = cahn_hoffman(EUCLID, Profile(grid, 0.5 * grid.nodes()))
    assert res.feasible
    nu = np.array([-0.5, 1.0]) / math.hypot(0.5, 1.0)
    np.testing.assert_allclose(res.witness_arc.midpoint, nu, atol=1e-3)
    assert res.monotone == "nondecreasing"


def test_nonlinear_profile_infeasible_euclidean():
    grid = Grid(-0.5, 0.5, 64)
    nodes = grid.nodes()
    arc = np.sqrt(1.0 - nodes**2)  # unit-radius circular arc
    res = cahn_hoffman(EUCLID, Profile(grid, arc))
    assert not res.feasible
    assert res.infeasibility_witness is not None
    i, j = res.infeasibility_witness
    assert i != j


def test_square_staircases_feasible_with_corner():
    rng = np.random.default_rng(5)
    corner = np.array([-1.0, 1.0])
    for _ in range(50):
        n = int(rng.integers(4, 40))
        grid = Grid(-1, 1, n)
        u = Profile(grid, _staircase(rng, n))
        res = cahn_hoffman(SQUARE, u)
        assert res.feasible
        # the corner (-1, 1) must be admissible: it attains phi° on every
        # edge normal of a nondecreasing profile
        en = edge_normals(u)
        normals = np.vstack([en.normals, en.limit_normals]) if len(en.limit_normals) \
            else en.normals
        pair = normals @ corner
        duals = SQUARE.eval_dual_many(normals)
        assert np.all(pair >= duals - 1e-9)
        # and the witness arc reaches it
        d_end = np.min(np.hypot(*(res.witness_arc.endpoints - corner).T))
        d_mid = float(np.hypot(*(res.witness_arc.midpoint - corner)))
        assert min(d_end, d_mid) < 1e-6


def test_shift_invariance():
    rng = np.random.default_rng(6)
    grid = Grid(-1, 1, 24)
    u = _staircase(rng, 24)
    r1 = cahn_hoffman(SQUARE, Profile(grid, u))
    r2 = cahn_hoffman(SQUARE, Profile(grid, u + 3.7))
    assert r1.feasible == r2.feasible
    np.testing.assert_allclose(r1.witness_arc.midpoint, r2.witness_arc.midpoint, atol=1e-12)


def test_reflection_consistency():
    rng = np.random.default_rng(7)
    grid = Grid(-1, 1, 24)
    for aniso in (EUCLID, SQUARE):
        for _ in range(10):
            u = rng.uniform(-1, 1, 25)
            r1 = cahn_hoffman(aniso, Profile(grid, u))
            r2 = cahn_hoffman(aniso, Profile(grid, -u))
            assert r1.feasible == r2.feasible
            if r1.feasible:
                m1, m2 = r1.witness_arc.midpoint, r2.witness_arc.midpoint
                # mirrored across the vertical axis of the even gauge
                np.testing.assert_allclose(m2, [-m1[0], m1[1]], atol=1e-6)


def test_feasible_midpoint_reverification():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        grid = Grid(-1, 1, n)
        u = Profile(grid, _staircase(rng, n))
        res = cahn_hoffman(SQUARE, u)
        assert res.feasible
        N = res.witness_arc.midpoint
        en = edge_normals(u)
        for nu in en.normals:
            assert float(N @ nu) >= SQUARE.eval_dual(nu) - 1e-6


def test_feasible_implies_monotone_fuzz():
    rng = np.random.default_rng(9)
    for k in range(200):
        n = int(rng.integers(3, 20))
        grid = Grid(-1, 1, n)
        u = Profile(grid, rng.uniform(-1, 1, n + 1))
        aniso = (EUCLID, SQUARE, Anisotropy.lp(1.0))[k % 3]
        res = cahn_hoffman(aniso, u)
        if res.feasible:
            assert res.monotone in ("nondecreasing", "nonincreasing", "constant")


def test_witness_is_the_first_earlier_face_disjoint_from_the_failing_one():
    # slopes 1 and 2 both expose the square's corner (-1, 1), slope -1 the
    # corner (1, 1): the third face is disjoint from each of the first two
    grid = Grid(-1, 1, 3)
    u = Profile(grid, grid.h * np.array([0.0, 1.0, 3.0, 2.0]))
    res = cahn_hoffman(SQUARE, u)
    assert not res.feasible
    assert res.infeasibility_witness == (0, 2)


def test_decreasing_staircase_is_feasible_and_nonincreasing():
    u = Profile(Grid(-1, 1, 12), -_staircase(np.random.default_rng(4), 12))
    res = cahn_hoffman(SQUARE, u)
    assert res.feasible
    assert res.monotone == "nonincreasing"


def test_hypothesis_warning_for_non_partially_monotone():
    shear = np.array([[1.0, 0.6], [0.0, 1.0]])

    def gauge(x, y):
        q = shear @ [x, y]
        return math.hypot(q[0], q[1])

    aniso = Anisotropy.generic(gauge)
    grid = Grid(-1, 1, 8)
    res = cahn_hoffman(aniso, Profile(grid, np.zeros(9)))
    assert res.hypothesis_warning is not None


MONOTONE_PROFILES = {
    "tiny-quadratic": (1e-13 * np.linspace(0.0, 1.0, 9) ** 2, "nondecreasing"),
    "staircase": (-_staircase(np.random.default_rng(4), 8), "nonincreasing"),
    "constant": (np.full(9, 0.3), "constant"),
    "offset-rises": (1e3 + 1e-10 * np.arange(9), "nondecreasing"),
    "bump": (1e-20 * np.array([0.0, 1, 2, 3, 4, 3, 2, 1, 0]), "none"),
}


@pytest.mark.parametrize("name", MONOTONE_PROFILES)
def test_monotone_label_does_not_depend_on_the_profile_size(name):
    values, label = MONOTONE_PROFILES[name]
    grid = Grid(-1, 1, 8)
    for k in range(-300, 301):
        assert cahn_hoffman(SQUARE, Profile(grid, values * 2.0**k)).monotone == label, k
