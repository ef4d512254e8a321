"""Cahn-Hoffman calibration classifier tests."""

import math
import tracemalloc

import loop_reference
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


# -- the block intersection against the per-face loop --------------------

GAUGES = {
    "euclidean": EUCLID,
    "ellipse": Anisotropy.ellipse(2.0, 0.5),
    "lp3": Anisotropy.lp(3.0),
    "lp1": Anisotropy.lp(1.0),
    "square": SQUARE,
    "hexagon": Anisotropy.polygon([[math.cos(t), math.sin(t)]
                                   for t in 0.3 + math.pi / 3.0 * np.arange(6)]),
}


def _assert_same_result(res, expected):
    assert (res.feasible, res.infeasibility_witness, res.monotone, res.hypothesis_warning) == (
        expected.feasible, expected.infeasibility_witness, expected.monotone,
        expected.hypothesis_warning)
    if expected.witness_arc is None:
        assert res.witness_arc is None
        return
    arc, ref = res.witness_arc, expected.witness_arc
    assert (arc.s_lo, arc.s_hi, arc.total_length) == (ref.s_lo, ref.s_hi, ref.total_length)
    assert arc.endpoints.tolist() == ref.endpoints.tolist()
    assert arc.midpoint.tolist() == ref.midpoint.tolist()


def _classifier_profiles(rng):
    """Feasible and infeasible profiles: staircases up and down, lines with slope
    noise far below the face tolerance (up to a few hundred distinct normals with
    one common face), such lines with a late kink, jumps, and random values."""
    for n in (3, 17, 300, 3000):
        yield n, _staircase(rng, n)
        yield n, -_staircase(rng, n)
    for n in (40, 2500, 5000):
        line = np.concatenate([[0.0], np.cumsum(0.7 * (2.0 / n) * (1.0 + 1e-9 * rng.random(n)))])
        yield n, line
        kinked = line.copy()
        kinked[-int(rng.integers(1, n // 2)):] += 5.0 * (2.0 / n) * rng.random()
        yield n, kinked
    for n in (8, 64):
        yield n, np.where(np.arange(n + 1) > n // 2, 1.0, 0.0) + 1e-7 * rng.random(n + 1)
        yield n, rng.uniform(-1.0, 1.0, n + 1)
        yield n, np.cumsum(rng.integers(0, 3, n + 1)) * (2.0 / n)


@pytest.mark.parametrize("name", GAUGES)
def test_block_intersection_matches_the_per_face_loop(name):
    aniso = GAUGES[name]
    verdicts = set()
    for n, values in _classifier_profiles(np.random.default_rng(28)):
        u = Profile(Grid(-1, 1, n), values)
        res = cahn_hoffman(aniso, u)
        _assert_same_result(res, loop_reference.cahn_hoffman(aniso, u))
        verdicts.add((res.feasible, res.infeasibility_witness is None))
    assert {(True, True), (False, False)} <= verdicts


def test_block_intersection_without_a_witness():
    # three faces on a test polyline meet pairwise but not all together: the
    # points p, q and r of a small downward triangle whose sides are exposed by
    # the normals of a flat edge and of a fall and a rise of slope cot(0.1)
    aniso = Anisotropy.euclidean()
    tol = 2e-7
    pts = np.array([[-0.75 * tol, 1.0], [0.75 * tol, 1.0], [0.0, 1.0 - 2.0 * tol]])
    pts.flags.writeable = False
    seg = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
    aniso.__dict__["_face_polyline"] = (pts, np.concatenate([[0.0], np.cumsum(seg[:-1])]),
                                        float(seg.sum()),
                                        tol * float(np.hypot(pts[:, 0], pts[:, 1]).max()))
    grid = Grid(0, 3, 3)
    u = Profile(grid, np.array([0.0, 0.0, -1.0, 0.0]) / math.tan(0.1))
    res = cahn_hoffman(aniso, u)
    assert not res.feasible and res.infeasibility_witness is None
    _assert_same_result(res, loop_reference.cahn_hoffman(aniso, u))


def test_block_intersection_memory_stays_bounded():
    # 16,384 edges under the Euclidean gauge, whose faces live on an 8,192-point
    # polyline, where the whole (normals x polyline) matrix of dots would take up
    # to 1 GB: a staircase, whose second face empties the intersection, and a
    # line whose slope noise gives 614 distinct normals with one common face
    n = 16384
    rng = np.random.default_rng(3)
    line = np.cumsum(0.7 * (2.0 / n) * (1.0 + 1e-9 * rng.random(n)))
    EUCLID.face_mask(np.array([0.0, 1.0]))  # builds the cached polyline
    for values, feasible in ((_staircase(rng, n), False), (np.concatenate([[0.0], line]), True)):
        u = Profile(Grid(-1, 1, n), values)
        tracemalloc.start()
        try:
            res = cahn_hoffman(EUCLID, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.feasible == feasible
        assert peak < 4e6


def test_witness_search_reaches_a_later_block():
    # Euclidean faces are the one or two points of the 8,192-point polyline near
    # the normal's angle.  Ten distinct normals near the midpoint of points k and
    # k + 1 (face A), ten near that of k + 1 and k + 2 (face B), then one near that
    # of k - 1 and k (face C): C meets A but not A and B together, and the first
    # earlier face disjoint from C is the first B, past the first block
    step = 2.0 * math.pi / 8192
    k = 2048 + 100
    jitter = 1e-9 * np.arange(10)
    theta = np.concatenate([(k + 0.5) * step + jitter, (k + 1.5) * step + jitter,
                            [(k - 0.5) * step]])
    grid = Grid(0, 1, len(theta))
    u = Profile(grid, np.concatenate([[0.0], np.cumsum(-grid.h / np.tan(theta))]))
    res = cahn_hoffman(EUCLID, u)
    assert res.infeasibility_witness == (10, 20)
    _assert_same_result(res, loop_reference.cahn_hoffman(EUCLID, u))
