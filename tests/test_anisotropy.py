"""Gauge, dual gauge and Wulff-shape geometry tests."""

import dataclasses
import math

import loop_reference
import numpy as np
import pytest

from anisocurve import (Anisotropy, AnisotropyError, Grid, anisotropy_from_json,
                        sigma_threshold, solve)
from anisocurve.anisotropy import DEFAULT_FACE_SAMPLES

SQUARE = [[1, 1], [-1, 1], [-1, -1], [1, -1]]


def _random_directions(rng, m):
    theta = rng.uniform(0.0, 2.0 * math.pi, m)
    return np.column_stack([np.cos(theta), np.sin(theta)])


# -- eval / eval_dual ---------------------------------------------------


def test_eval_euclidean():
    e = Anisotropy.euclidean()
    assert e.eval(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_eval_dual_euclidean_self_dual():
    e = Anisotropy.euclidean()
    assert e.eval_dual(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_eval_dual_l1_is_linf():
    l1 = Anisotropy.lp(1.0)
    assert l1.eval_dual(np.array([1.0, -1.0])) == pytest.approx(1.0)


def test_eval_dual_square_vertex_max():
    sq = Anisotropy.polygon(SQUARE)
    assert sq.eval_dual(np.array([2.0, 1.0])) == pytest.approx(3.0)


def test_boundary_point_examples():
    e = Anisotropy.euclidean()
    np.testing.assert_allclose(e.boundary_point(np.array([2.0, 0.0])), [1.0, 0.0])
    l1 = Anisotropy.lp(1.0)
    np.testing.assert_allclose(l1.boundary_point(np.array([1.0, 1.0])), [0.5, 0.5])
    sq = Anisotropy.polygon(SQUARE)
    np.testing.assert_allclose(sq.boundary_point(np.array([3.0, 3.0])), [1.0, 1.0])


def test_boundary_point_rejects_zero():
    with pytest.raises((ValueError, AnisotropyError)):
        Anisotropy.euclidean().boundary_point(np.array([0.0, 0.0]))


# -- wulff_sample -------------------------------------------------------


def test_wulff_sample_euclidean_axis_points():
    pts = Anisotropy.euclidean().wulff_sample(16)
    # equispaced angles starting at 0 include all four axis points
    for target in ([1, 0], [0, 1], [-1, 0], [0, -1]):
        d = np.min(np.hypot(pts[:, 0] - target[0], pts[:, 1] - target[1]))
        assert d < 1e-12


def test_wulff_sample_polygon_contains_exact_vertices():
    pts = Anisotropy.polygon(SQUARE).wulff_sample(64)
    for v in SQUARE:
        d = np.min(np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1]))
        assert d < 1e-12


def test_wulff_sample_ellipse_axis_points():
    pts = Anisotropy.ellipse(2.0, 1.0).wulff_sample(16)
    for target in ([2, 0], [0, 1], [-2, 0], [0, -1]):
        d = np.min(np.hypot(pts[:, 0] - target[0], pts[:, 1] - target[1]))
        assert d < 1e-9


# -- wulff_measures -----------------------------------------------------


def test_measures_euclidean_golden():
    m = Anisotropy.euclidean().wulff_measures()
    assert m.area == pytest.approx(math.pi, abs=1e-6)
    assert m.phi_perimeter == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert m.c_phi == pytest.approx(math.sqrt(4.0 * math.pi), abs=1e-6)
    assert m.alpha0 == pytest.approx(2.0 * math.sqrt(math.pi) / (4.0 * math.pi + 1.0), abs=1e-6)


def test_measures_square_exact():
    m = Anisotropy.polygon(SQUARE).wulff_measures()
    assert m.area == pytest.approx(4.0, abs=1e-12)
    assert m.phi_perimeter == pytest.approx(8.0, abs=1e-12)
    assert m.alpha0 == pytest.approx(4.0 / 17.0, abs=1e-12)


def test_measures_diamond_exact():
    m = Anisotropy.lp(1.0).wulff_measures()
    assert m.area == pytest.approx(2.0, abs=1e-9)
    assert m.phi_perimeter == pytest.approx(4.0, abs=1e-9)
    assert m.alpha0 == pytest.approx(4.0 / (9.0 * math.sqrt(2.0)), abs=1e-9)


def _polyline_measures(aniso, m):
    """The shoelace area and the edge-normal quadrature of P_phi on an m-point
    boundary polyline, second-order estimates of |W| and P_phi(W)."""
    pts = aniso.wulff_sample(m)
    nxt = np.roll(pts, -1, axis=0)
    area = 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]))
    edges = nxt - pts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    return area, float(np.sum(aniso.eval_dual_many(normals) * lengths))


def test_measures_are_exact():
    for a, b in ((1.0, 1.0), (1.7, 0.8), (2.0, 0.5)):
        area = Anisotropy.ellipse(a, b).wulff_measures().area
        assert area == pytest.approx(math.pi * a * b, rel=1e-15, abs=0.0)
    for q in (1.5, 3.0, 10.0):
        area = Anisotropy.lp(q).wulff_measures().area
        closed_form = 4.0 * math.gamma(1.0 + 1.0 / q) ** 2 / math.gamma(1.0 + 2.0 / q)
        assert area == pytest.approx(closed_form, rel=1e-15, abs=0.0)
    # the divergence identity P_phi(W) = 2 |W| against the sampled quadrature
    for aniso in (Anisotropy.ellipse(1.7, 0.8), Anisotropy.lp(1.5), Anisotropy.lp(3.0),
                  Anisotropy.lp(10.0)):
        m = aniso.wulff_measures()
        assert m.phi_perimeter == 2.0 * m.area
        area, perimeter = _polyline_measures(aniso, 2**20)
        assert m.area == pytest.approx(area, rel=1e-10, abs=0.0)
        assert m.phi_perimeter == pytest.approx(perimeter, rel=1e-10, abs=0.0)
    # polygon areas are the shoelace sum over the vertices, bitwise
    hexagon = Anisotropy.polygon([[math.cos(t), math.sin(t)]
                                  for t in 0.2 + math.pi / 3.0 * np.arange(6)])
    for aniso in (Anisotropy.polygon(SQUARE), Anisotropy.lp(1.0), hexagon):
        v, w = aniso.vertices, np.roll(aniso.vertices, -1, axis=0)
        m = aniso.wulff_measures()
        assert m.area == 0.5 * float(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))
        assert m.phi_perimeter == 2.0 * m.area
    assert Anisotropy.euclidean().wulff_measures().area == math.pi


# -- symmetry flags -----------------------------------------------------


def test_flags_euclidean():
    f = Anisotropy.euclidean().symmetry_flags()
    assert f.partially_monotone and not f.vertical_facets and f.elliptic
    assert f.rolling_radius_estimate == pytest.approx(1.0, abs=1e-3)


def test_flags_square():
    f = Anisotropy.polygon(SQUARE).symmetry_flags()
    assert f.partially_monotone and f.vertical_facets and not f.elliptic


def test_flags_diamond():
    f = Anisotropy.lp(1.0).symmetry_flags()
    assert f.partially_monotone and not f.vertical_facets and not f.elliptic


# the square with an extra vertex on its left and right sides, off the x axis
COLLINEAR_SQUARE = [[1, -1], [1, 0.3], [1, 1], [-1, 1], [-1, -0.3], [-1, -1]]


@pytest.mark.parametrize("size", [1e-162, 1e-100, 1e-12, 1.0, 3.0, 1e12, 1e100, 9e149])
def test_polygon_flags_do_not_depend_on_its_size(size):
    sheared_octagon = _regular_polygon(8) @ np.array([[1.0, 0.0], [0.3, 1.0]])
    for vertices in (_regular_polygon(6, 0.3), sheared_octagon):
        assert not Anisotropy.polygon(size * vertices).symmetry_flags().partially_monotone
    diamond = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    for vertices, vertical in ((SQUARE, True), (diamond, False), (_regular_polygon(8), False),
                               (_regular_polygon(4096), False), (COLLINEAR_SQUARE, True)):
        flags = Anisotropy.polygon(size * np.array(vertices)).symmetry_flags()
        assert flags.partially_monotone and flags.vertical_facets == vertical


# -- exposed faces ------------------------------------------------------


def test_gauge_arrays_are_read_only():
    square = Anisotropy.polygon(SQUARE)
    top = np.array([0.0, 1.0])
    for aniso in (square, Anisotropy.ellipse(2.0, 0.5)):
        with pytest.raises(ValueError):
            aniso.exposed_face(top).midpoint[:] = 5.0
    with pytest.raises(ValueError):
        square.vertices[1] = 5.0
    for array in square.dual_envelope:
        with pytest.raises(ValueError):
            array[0] = 5.0
    assert np.array_equal(square.exposed_face(top).endpoints, [[1.0, 1.0], [-1.0, 1.0]])
    assert square.eval_dual(top) == 1.0


def test_polygon_keeps_its_own_copy_of_the_vertices():
    given = np.array(SQUARE, dtype=float)
    square = Anisotropy.polygon(given)
    v = _wide_range_vectors()
    dual, arc = square.eval_dual_many(v), square.exposed_face(np.array([0.0, 1.0]))
    given[0] = [7.0, 7.0]
    assert np.array_equal(square.vertices, SQUARE)
    assert square.to_json() == {"kind": "polygon", "vertices": SQUARE}
    assert np.array_equal(square.eval_dual_many(v), dual)
    again = square.exposed_face(np.array([0.0, 1.0]))
    assert (again.s_lo, again.s_hi) == (arc.s_lo, arc.s_hi)
    assert np.array_equal(again.endpoints, arc.endpoints)
    assert np.array_equal(again.midpoint, arc.midpoint)


def test_exposed_face_euclidean_degenerate():
    arc = Anisotropy.euclidean().exposed_face(np.array([0.0, 1.0]))
    np.testing.assert_allclose(arc.midpoint, [0.0, 1.0], atol=1e-6)
    assert arc.length < 1e-3


def test_exposed_face_square_top_edge():
    arc = Anisotropy.polygon(SQUARE).exposed_face(np.array([0.0, 1.0]))
    ends = arc.endpoints
    assert sorted(round(x, 9) for x in ends[:, 0]) == [-1.0, 1.0]
    np.testing.assert_allclose(ends[:, 1], [1.0, 1.0], atol=1e-9)
    assert arc.length == pytest.approx(2.0, abs=1e-9)


def test_exposed_face_square_corner():
    nu = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    arc = Anisotropy.polygon(SQUARE).exposed_face(nu)
    np.testing.assert_allclose(arc.midpoint, [-1.0, 1.0], atol=1e-9)


def test_exposed_face_contains_dual_argmax():
    rng = np.random.default_rng(4)
    for aniso in (Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.7),
                  Anisotropy.polygon(SQUARE)):
        for nu in _random_directions(rng, 16):
            arc = aniso.exposed_face(nu)
            val = float(nu @ arc.midpoint)
            assert val >= aniso.eval_dual(nu) - 1e-4


def test_normal_contact_point_lp_is_the_support_point():
    aniso = Anisotropy.lp(3.0)
    for nu in _random_directions(np.random.default_rng(7), 1000):
        p = aniso.normal_contact_point(nu)
        assert abs(aniso.eval(p) - 1.0) <= 1e-14
        assert abs(float(p @ nu) - aniso.eval_dual(nu)) <= 1e-14


@pytest.mark.parametrize("aniso", [
    Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.5), Anisotropy.ellipse(1e-200, 1e200),
    Anisotropy.lp(1.5), Anisotropy.lp(3.0),
], ids=["euclidean", "ellipse", "extreme-ellipse", "lp1.5", "lp3"])
def test_contact_point_is_the_gradient_of_the_dual_gauge(aniso):
    # grad phi°(nu) by central differences; the extreme ellipse's b^2 = 1e400 is not a float
    steps = 1e-6 * np.eye(2)
    for nu in _random_directions(np.random.default_rng(26), 64):
        point = aniso.normal_contact_point(nu)
        assert np.isfinite(point).all()
        grad = (aniso.eval_dual_many(nu + steps) - aniso.eval_dual_many(nu - steps)) / 2e-6
        assert np.abs(point - grad).max() <= 1e-8 * np.abs(point).max()


def test_normal_contact_point_square_face_wrapping_index_zero():
    square = Anisotropy.polygon(SQUARE)
    # the edge from vertex 3 to vertex 0 straddles the arc-length origin
    arc = square.exposed_face(np.array([1.0, 0.0]))
    assert arc.wraps and arc.length == 2.0
    assert arc.endpoints.tolist() == [[1.0, -1.0], [1.0, 1.0]]
    assert square.normal_contact_point([1.0, 0.0]).tolist() == [1.0, 0.0]
    assert square.normal_contact_point([0.0, 1.0]).tolist() == [0.0, 1.0]
    diagonal = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert square.normal_contact_point(diagonal).tolist() == [1.0, 1.0]


BLOCK_GAUGES = {
    "euclidean": Anisotropy.euclidean(),
    "ellipse": Anisotropy.ellipse(2.0, 0.5),
    "lp3": Anisotropy.lp(3.0),
    "lp1.0001": Anisotropy.lp(1.0001),
    "lp1": Anisotropy.lp(1.0),
    "square": Anisotropy.polygon(SQUARE),
    "hexagon": Anisotropy.polygon([[math.cos(t), math.sin(t)]
                                   for t in 0.3 + math.pi / 3.0 * np.arange(6)]),
    "generic": Anisotropy.generic(lambda x, y: (abs(x) ** 3 + abs(y) ** 3) ** (1.0 / 3.0)),
}


@pytest.mark.parametrize("name", BLOCK_GAUGES)
def test_a_block_of_normals_gives_the_faces_and_points_of_each_normal(name):
    # random directions, unnormalized, plus the axes and the diagonals, whose
    # faces on a polygon are whole edges, one of them through parameter 0
    aniso = BLOCK_GAUGES[name]
    rng = np.random.default_rng(28)
    nus = np.vstack([_random_directions(rng, 300) * rng.uniform(0.5, 2.0, (300, 1)),
                     [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]])
    masks = aniso.face_mask(nus)
    points = aniso.normal_contact_point(nus)
    assert masks.shape == (len(nus), len(aniso._face_polyline[0])) and points.shape == nus.shape
    for nu, mask, point in zip(nus, masks, points):
        assert mask.tolist() == loop_reference.face_mask(aniso, nu).tolist()
        assert aniso.face_mask(nu).tolist() == mask.tolist()
        assert aniso.normal_contact_point(nu).tolist() == point.tolist()
        # the per-normal form raised a numpy scalar to the power -1/q, where an
        # array's power may use another kernel
        np.testing.assert_allclose(point, loop_reference.normal_contact_point(aniso, nu),
                                   rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("bad", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]],
                         ids=["zero", "nan", "inf"])
def test_contact_point_needs_finite_nonzero_normals(bad):
    # a zero normal once gave an IndexError on a polygon and NaN on a smooth gauge
    for aniso in (Anisotropy.euclidean(), Anisotropy.polygon(SQUARE)):
        for nus in (bad, [[1.0, 0.0], bad]):
            with pytest.raises(AnisotropyError, match="finite nonzero"):
                aniso.normal_contact_point(nus)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 2), ()])
def test_normals_of_the_wrong_shape_are_rejected(shape):
    for method in (Anisotropy.euclidean().face_mask, Anisotropy.polygon(SQUARE).face_mask,
                   Anisotropy.euclidean().normal_contact_point,
                   Anisotropy.polygon(SQUARE).normal_contact_point):
        with pytest.raises(AnisotropyError):
            method(np.ones(shape))


def _unit_normals(m):
    theta = np.linspace(0.0, 2.0 * math.pi, m)
    return np.column_stack([np.cos(theta), np.sin(theta)])


@pytest.mark.parametrize("aniso", [
    Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.5), Anisotropy.lp(3.0), Anisotropy.lp(1.5),
], ids=["euclidean", "ellipse", "lp3", "lp1.5"])
def test_smooth_face_is_the_top_band_of_its_polyline(aniso):
    # the face is the band of sampled points within the tolerance of the sampled
    # maximum of <x, nu>; it contains every sampled point within the tolerance of
    # the exact maximum phi°(nu), which lies at or above the sampled one
    pts = aniso.wulff_sample(DEFAULT_FACE_SAMPLES)
    tol = 2e-7 * float(np.hypot(pts[:, 0], pts[:, 1]).max())
    for nu in _unit_normals(4001):
        dots = pts @ nu
        mask = aniso.face_mask(nu)
        np.testing.assert_array_equal(mask, dots >= dots.max() - tol)
        assert mask[dots >= aniso.eval_dual(nu) - tol].all()


@pytest.mark.parametrize("aniso", [
    Anisotropy.polygon(SQUARE), Anisotropy.lp(1.0),
    Anisotropy.polygon([[math.cos(t), math.sin(t)] for t in 0.3 + math.pi / 3.0 * np.arange(6)]),
    Anisotropy.generic(lambda x, y: (abs(x) ** 3 + abs(y) ** 3) ** (1.0 / 3.0)),
], ids=["square", "lp1", "hexagon", "generic"])
def test_polygon_face_is_the_vertices_near_the_dual_gauge(aniso):
    # on a polygon the largest <v_k, nu> over the vertices is phi°(nu) to rounding
    verts = aniso.vertices
    tol = 2e-7 * float(np.hypot(verts[:, 0], verts[:, 1]).max())
    for nu in _unit_normals(721):
        mask = aniso.face_mask(nu)
        np.testing.assert_array_equal(mask, verts @ nu >= aniso.eval_dual(nu) - tol)
        ends = aniso.exposed_face(nu).endpoints.tolist()
        assert all(end in verts[mask].tolist() for end in ends)


@pytest.mark.parametrize("run", [
    [10, 11, 0, 1, 2],  # wraps through parameter 0
    [8, 9, 10, 11],  # ends at the last point
    [5],
    [5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3],  # all points but one
    list(range(1, 12)),  # all but the first
], ids=["wrapping", "ending-at-last", "single", "all-but-one", "all-but-first"])
def test_arc_from_mask_reads_the_run_in_polyline_order(run):
    dodecagon = Anisotropy.polygon([[math.cos(t), math.sin(t)]
                                    for t in math.pi / 6.0 * np.arange(12)])
    verts = dodecagon.vertices
    sides = np.hypot(*(np.roll(verts, -1, axis=0) - verts).T)
    params = np.concatenate([[0.0], np.cumsum(sides[:-1])])
    mask = np.zeros(12, dtype=bool)
    mask[run] = True
    arc = dodecagon._arc_from_mask(mask)
    lo, hi = run[0], run[-1]
    assert (arc.s_lo, arc.s_hi, arc.total_length) == (params[lo], params[hi], sides.sum())
    assert arc.endpoints.tolist() == [verts[lo].tolist(), verts[hi].tolist()]
    assert arc.midpoint.tolist() == verts[run[len(run) // 2]].tolist()
    assert arc.wraps == (lo > hi)
    assert arc.length == pytest.approx(sides[[(lo + k) % 12 for k in range(len(run) - 1)]].sum())


# -- projection ---------------------------------------------------------


def test_project_euclidean_radial():
    p = Anisotropy.euclidean().project_wulff_many(np.array([[3.0, 4.0]]))[0]
    np.testing.assert_allclose(p, [0.6, 0.8], atol=1e-12)


def test_project_identity_inside():
    for aniso in (Anisotropy.euclidean(), Anisotropy.lp(3.0),
                  Anisotropy.polygon(SQUARE), Anisotropy.ellipse(2.0, 0.5)):
        x = np.array([[0.1, -0.2]])
        np.testing.assert_allclose(aniso.project_wulff_many(x), x, atol=1e-9)


def test_project_square_edge():
    p = Anisotropy.polygon(SQUARE).project_wulff_many(np.array([[2.0, 0.5]]))[0]
    np.testing.assert_allclose(p, [1.0, 0.5], atol=1e-12)


@pytest.mark.parametrize("aniso", [
    Anisotropy.euclidean(),
    Anisotropy.ellipse(1.5, 0.6),
    Anisotropy.lp(1.5),
    Anisotropy.polygon(SQUARE),
])
def test_project_idempotent_nonexpansive_feasible(aniso):
    rng = np.random.default_rng(9)
    x = rng.uniform(-3.0, 3.0, (64, 2))
    y = rng.uniform(-3.0, 3.0, (64, 2))
    px, py = aniso.project_wulff_many(x), aniso.project_wulff_many(y)
    assert np.max(aniso.eval_many(px)) <= 1.0 + 1e-9
    np.testing.assert_allclose(aniso.project_wulff_many(px), px, atol=1e-9)
    dist_in = np.hypot(*(x - y).T)
    dist_out = np.hypot(*(px - py).T)
    assert np.all(dist_out <= dist_in + 1e-9)


# -- projection kernels against the kernels they replaced ---------------
#
# The references below are the fixed-pass kernels that project_wulff_many
# used before its tolerance-driven Newton kernels: 120 bisection passes on
# the ellipse multiplier and 100 golden-section passes over the lp boundary
# angle.


def _reference_project_ellipse(a, b, x):
    d2 = np.array([a * a, b * b])

    def constraint(mu):
        z1 = d2[0] * x[:, 0] / (d2[0] + mu)
        z2 = d2[1] * x[:, 1] / (d2[1] + mu)
        return (z1 / a) ** 2 + (z2 / b) ** 2 - 1.0

    lo = np.zeros(len(x))
    hi = np.full(len(x), max(a, b) * (1.0 + np.hypot(x[:, 0], x[:, 1]).max()))
    while np.any(constraint(hi) > 0):
        hi *= 2.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        pos = constraint(mid) > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    mu = 0.5 * (lo + hi)
    return np.column_stack([d2[0] * x[:, 0] / (d2[0] + mu), d2[1] * x[:, 1] / (d2[1] + mu)])


def _reference_project_lp(q, x):
    e = 2.0 / q
    ax = np.abs(x)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def dist2(t):
        return (np.cos(t) ** e - ax[:, 0]) ** 2 + (np.sin(t) ** e - ax[:, 1]) ** 2

    a = np.zeros(len(x))
    b = np.full(len(x), 0.5 * math.pi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = dist2(c), dist2(d)
    for _ in range(100):
        take = fc < fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = dist2(c), dist2(d)
    t = 0.5 * (a + b)
    return np.sign(x) * np.column_stack([np.cos(t) ** e, np.sin(t) ** e])


PROJECTION_SCALES = (1.0 + 1e-12, 1.001, 1.1, 2.0, 5.0, 1e6)


def _outside_points(aniso, scales=PROJECTION_SCALES):
    """Boundary points on the axes, the diagonals, near the axes and in
    random directions, scaled out by each factor; returns (scale, x) rows."""
    rng = np.random.default_rng(12)
    theta = np.concatenate([
        0.25 * math.pi * np.arange(8),
        [1e-9, 1e-3, 0.5 * math.pi - 1e-3, math.pi + 1e-9],
        rng.uniform(0.0, 2.0 * math.pi, 48),
    ])
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    dirs[np.abs(dirs) < 1e-15] = 0.0  # exactly on the axes
    boundary = dirs / aniso.eval_many(dirs)[:, None]
    scale = np.repeat(scales, len(boundary))
    return scale, np.tile(boundary, (len(scales), 1)) * scale[:, None]


def _assert_nearest_point(x, z, normal):
    """z is the nearest point of a smooth convex shape {phi <= 1} with
    phi(z) = 1 checked separately: x - z points along the outward normal."""
    n = normal / np.hypot(normal[:, 0], normal[:, 1])[:, None]
    v = x - z
    scale = np.maximum(1.0, np.hypot(x[:, 0], x[:, 1]))
    tangential = np.abs(v[:, 0] * n[:, 1] - v[:, 1] * n[:, 0])
    assert np.max(tangential / scale) <= 1e-12
    assert np.min(np.einsum("ij,ij->i", v, n) / scale) >= -1e-12


@pytest.mark.parametrize("a, b", [(2.0, 0.5), (0.6, 1.5), (1.3, 1.3)])
def test_project_ellipse_is_nearest_point_and_matches_bisection(a, b):
    aniso = Anisotropy.ellipse(a, b)
    _, x = _outside_points(aniso)
    z = aniso.project_wulff_many(x)
    np.testing.assert_allclose(aniso.eval_many(z), 1.0, rtol=0.0, atol=1e-12)
    _assert_nearest_point(x, z, z / np.array([a * a, b * b]))
    np.testing.assert_allclose(z, _reference_project_ellipse(a, b, x), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("q", [1.1, 1.5, 3.0, 4.0, 10.0])
def test_project_lp_is_nearest_point_and_matches_golden_section(q):
    aniso = Anisotropy.lp(q)
    scale, x = _outside_points(aniso)
    z = aniso.project_wulff_many(x)
    np.testing.assert_allclose(aniso.eval_many(z), 1.0, rtol=0.0, atol=1e-12)
    _assert_nearest_point(x, z, np.sign(z) * np.abs(z) ** (q - 1.0))
    ref = _reference_project_lp(q, x)
    # never farther from x than the golden-section point
    dist, ref_dist = np.hypot(*(x - z).T), np.hypot(*(x - ref).T)
    assert np.all(dist <= ref_dist + 1e-12 * np.maximum(1.0, np.hypot(*x.T)))
    # The golden section fixes its angle only to about sqrt(eps) relative
    # to the squared distance, and its angle parametrization stretches
    # near the axes: against a 50-digit solution it is off by up to 9e-4
    # at scale 1e6, and by 1e-4 next to the axes for q = 10.  Positions are
    # compared where the reference is itself good to 1e-8: on the axes, and
    # elsewhere within scale 1.1 with both coordinates of z at least 0.1.
    on_axis = np.min(np.abs(x), axis=1) == 0.0
    resolved = on_axis | ((scale <= 1.1) & (np.min(np.abs(z), axis=1) >= 0.1))
    np.testing.assert_allclose(z[resolved], ref[resolved], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("aniso", [Anisotropy.euclidean(), Anisotropy.lp(2.0)])
def test_project_euclidean_is_bitwise_radial_scaling(aniso):
    rng = np.random.default_rng(13)
    x = rng.uniform(-2.0, 2.0, (512, 2))
    r = np.hypot(x[:, 0], x[:, 1])
    expected = np.where((r <= 1.0)[:, None], x, x / r[:, None])
    assert np.array_equal(aniso.project_wulff_many(x), expected)


# -- duality and Cauchy-Schwarz ----------------------------------------


@pytest.mark.parametrize("aniso", [
    Anisotropy.euclidean(),
    Anisotropy.ellipse(2.0, 0.8),
    Anisotropy.lp(1.5),
    Anisotropy.lp(4.0),
])
def test_double_dual_recovers_gauge(aniso):
    rng = np.random.default_rng(1)
    dirs = _random_directions(rng, 256)
    # phi(x) = max over dual unit vectors y of <x, y>; sample the dual ball
    # boundary through eval_dual on many directions
    probe = _random_directions(rng, 2048)
    dual_vals = aniso.eval_dual_many(probe)
    dual_boundary = probe / dual_vals[:, None]
    recovered = np.max(dirs @ dual_boundary.T, axis=1)
    direct = aniso.eval_many(dirs)
    np.testing.assert_allclose(recovered, direct, atol=1e-3)


def test_cauchy_schwarz_gauge_pairing():
    rng = np.random.default_rng(2)
    for aniso in (Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.8),
                  Anisotropy.lp(1.0), Anisotropy.polygon(SQUARE)):
        x = rng.uniform(-2.0, 2.0, (1024, 2))
        y = rng.uniform(-2.0, 2.0, (1024, 2))
        lhs = np.einsum("ij,ij->i", x, y)
        rhs = aniso.eval_many(x) * aniso.eval_dual_many(y)
        assert np.all(lhs <= rhs + 1e-9)


# -- JSON ---------------------------------------------------------------


def test_json_round_trip():
    for aniso in (Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.5),
                  Anisotropy.lp(3.0), Anisotropy.polygon(SQUARE)):
        clone = anisotropy_from_json(aniso.to_json())
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.0, 2.0, (64, 2))
        np.testing.assert_allclose(clone.eval_many(x), aniso.eval_many(x), atol=1e-12)


def test_json_rejects_asymmetric_polygon():
    with pytest.raises(AnisotropyError):
        anisotropy_from_json({"kind": "polygon",
                              "vertices": [[2, 1], [-1, 1], [-1, -1], [1, -1]]})
    # phi°(e1) = 1e-12 but phi°(-e1) = 2e-12: the symmetry tolerance is relative
    with pytest.raises(AnisotropyError, match="centrally symmetric"):
        Anisotropy.polygon(np.array([[1, 0], [0, 1], [-2, 0], [0, -1]]) * 1e-12)


def test_json_rejects_clockwise_polygon():
    with pytest.raises(AnisotropyError):
        anisotropy_from_json({"kind": "polygon",
                              "vertices": [[1, 1], [1, -1], [-1, -1], [-1, 1]]})
    # a counterclockwise diamond passes at a size where its cross products underflow
    tiny = Anisotropy.polygon(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]) * 1e-162)
    assert tiny.eval_dual(np.array([3.0, 0.0])) == 3e-162


def test_json_rejects_unknown_kind():
    with pytest.raises((AnisotropyError, KeyError, ValueError)):
        anisotropy_from_json({"kind": "hexagonish"})


@pytest.mark.parametrize("call", [
    lambda: Anisotropy.euclidean().eval([1.0, 2.0, 3.0]),
    lambda: Anisotropy("hexagon"),
    lambda: Anisotropy.generic(3.0),
    lambda: Anisotropy.euclidean().exposed_face([1.0, 1.0]),
], ids=["eval-3-vector", "unknown-kind", "generic-not-callable", "face-not-unit"])
def test_malformed_arguments_raise_anisotropy_error(call):
    with pytest.raises(AnisotropyError):
        call()


# -- smoothed dual gauge (the Newton solver's edge term) ----------------


@pytest.mark.parametrize("aniso,vertices", [
    (Anisotropy.euclidean(), 0),
    (Anisotropy.ellipse(2.0, 0.5), 0),
    (Anisotropy.lp(2.0), 0),
    (Anisotropy.lp(1.5), 0),
    (Anisotropy.lp(3.0), 0),
    (Anisotropy.lp(1.0), 4),
    (Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]]), 4),
    (Anisotropy.polygon([[math.cos(t), math.sin(t)] for t in 0.2 + math.pi / 3 * np.arange(6)]), 6),
])
def test_smoothed_dual_bounds_derivatives_and_dual_field(aniso, vertices):
    h = 0.01
    r = np.concatenate([np.linspace(-0.1, 0.1, 41), [0.0, 1e-7, -3e-3, 2.5]])
    exact = aniso.eval_dual_many(np.column_stack([r, np.full(len(r), h)]))
    for eps in (1e-2, 1e-5, 1e-13):
        f, (f1, f2, fh) = aniso.smoothed_dual(r, h, eps)
        # an upper bound of phi°, above it by at most eps h (1 + log K)
        excess = f - exact
        assert np.all(excess >= -1e-15)
        assert np.all(excess <= eps * h * (1.0 + math.log(max(vertices, 1))) + 1e-15)
        assert np.all(f2 >= 0.0)
        # (d/dr, d/dh) is a point of the Wulff shape
        assert np.max(aniso.eval_many(np.column_stack([f1, fh]))) <= 1.0 + 1e-12
    # derivatives against central differences at a moderate width
    eps, step = 1e-2, 1e-7
    f, (f1, f2, fh) = aniso.smoothed_dual(r, h, eps)
    fp, (f1p, _, _) = aniso.smoothed_dual(r + step, h, eps)
    fm, (f1m, _, _) = aniso.smoothed_dual(r - step, h, eps)
    np.testing.assert_allclose(f1, (fp - fm) / (2 * step), rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(f2, (f1p - f1m) / (2 * step), rtol=1e-4, atol=1e-3)
    # the width is relative to h, so phi°_eps is one-homogeneous in (r, h)
    np.testing.assert_allclose(next(aniso.smoothed_dual(3.0 * r, 3.0 * h, eps)), 3.0 * f,
                               rtol=1e-13)


@pytest.mark.parametrize("aniso", [
    Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
    Anisotropy.polygon([[math.cos(t), math.sin(t)] for t in 0.3 + math.pi / 3 * np.arange(6)]),
    Anisotropy.generic(math.hypot),
], ids=["square", "hexagon", "generic-hypot"])
def test_polygon_smoothed_dual_holds_at_ties_and_at_every_scale(aniso):
    # slopes r / h on the envelope's hand-over points (ties of two lines), beside
    # them, at 0 and far out, where r / (eps h) reaches 5e310, beyond the floats
    slopes, _, handover = aniso.dual_envelope
    m = len(slopes)
    near = np.concatenate([handover, handover - 1e-3, handover + 1e-3, [0.0]])
    for scale in (1.0, 1e150, 1e300):
        for h in (1e-3, 1.0):
            r = h * np.concatenate([near, [-5.0 * scale, 5.0 * scale]])
            exact = aniso.eval_dual_many(np.column_stack([r, np.full(len(r), h)]))
            rounding = 2.0 * np.spacing(exact)
            for eps in (1e-2, 1e-10):
                # in slices, as a 4096-vertex gauge keeps (n, m) arrays
                values, derivatives = zip(*(tuple(aniso.smoothed_dual(r[k:k + 256], h, eps))
                                            for k in range(0, len(r), 256)))
                f = np.concatenate(values)
                f1, f2, fh = (np.concatenate(column) for column in zip(*derivatives))
                assert all(np.isfinite(out).all() for out in (f, f1, f2, fh))
                excess = f - exact
                assert np.all(excess >= -rounding)
                assert np.all(excess <= eps * h * math.log(m) + rounding)
                assert np.max(aniso.eval_many(np.column_stack([f1, fh]))) <= 1.0 + 1e-12


@pytest.mark.parametrize("aniso", [
    Anisotropy.euclidean(),
    Anisotropy.ellipse(2.0, 0.5),
    Anisotropy.lp(1.005),
    Anisotropy.lp(1.5),
    Anisotropy.lp(3.0),
    Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
    Anisotropy.polygon([[math.cos(t), math.sin(t)] for t in 0.2 + math.pi / 3 * np.arange(6)]),
], ids=["euclidean", "ellipse", "lp1.005", "lp1.5", "lp3", "square", "hexagon"])
def test_smoothed_dual_value_is_the_first_output_bitwise(aniso):
    # the value a line search reads alone is the full evaluation's, to the bit
    h = 0.01
    r = np.array([0.0, 1e-300, -1e-300, h, -h, 1e150, -1e150])
    r = np.concatenate([r, h * np.random.default_rng(3).standard_normal(64)])
    for eps in (1e-2, 1e-10):
        value = next(aniso.smoothed_dual(r, h, eps))
        assert np.isfinite(value).all()
        full, _ = aniso.smoothed_dual(r, h, eps)
        assert value.tobytes() == full.tobytes()


@pytest.mark.parametrize("aniso", [Anisotropy.euclidean(), Anisotropy.ellipse(2.0, 0.5)],
                         ids=["euclidean", "ellipse"])
def test_quadratic_form_derivatives_stay_finite_at_huge_slopes(aniso):
    # pyproject.toml turns an overflow's RuntimeWarning into a failure: the
    # curvature a^2 b^2 h^2 / s^3 is formed from ratios, never from s^3
    r, h = np.array([1e150, -1e150]), 0.01
    value, (d1, d2, dh) = aniso.smoothed_dual(r, h, 1e-10)
    slope = aniso.eval_dual([1.0, 0.0])  # the limit of |d/dr|
    np.testing.assert_allclose(value, slope * np.abs(r), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(d1, slope * np.sign(r), rtol=1e-15, atol=0.0)
    assert np.isfinite(d2).all() and np.all(d2 >= 0.0) and np.isfinite(dh).all()


# -- one representation per gauge ---------------------------------------


def _regular_polygon(k, phase=0.0):
    t = phase + 2.0 * math.pi * np.arange(k) / k
    return np.column_stack([np.cos(t), np.sin(t)])


def _wide_range_vectors():
    rng = np.random.default_rng(21)
    mags = 10.0 ** rng.uniform(-8.0, 8.0, (4096, 2))
    return rng.choice([-1.0, 1.0], (4096, 2)) * mags


def test_lp1_is_the_diamond_and_lp2_is_euclidean_bitwise():
    v = _wide_range_vectors()
    x, y = v[:, 0], v[:, 1]
    l1, l2 = Anisotropy.lp(1.0), Anisotropy.lp(2.0)
    assert (l1.kind, l2.kind) == ("polygon", "euclidean")
    assert np.array_equal(l1.eval_many(v), np.abs(x) + np.abs(y))
    assert np.array_equal(l1.eval_dual_many(v), np.maximum(np.abs(x), np.abs(y)))
    assert np.array_equal(l2.eval_many(v), np.hypot(x, y))
    assert np.array_equal(l2.eval_dual_many(v), np.hypot(x, y))
    assert l1.to_json() == {"kind": "polygon",
                            "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}
    assert l2.to_json() == {"kind": "euclidean"}
    assert l1.wulff_measures().area == 2.0


def test_lp_accepts_every_finite_exponent_above_one():
    # _lp_norm divides out the larger magnitude, so no power underflows at any
    # finite q; pyproject.toml turns any numpy RuntimeWarning into a failure
    grid = Grid(-1.0, 1.0, 64)
    g = np.where(grid.nodes() > 0, 0.3, -0.3)
    for q in (2150.0, 1e4, 1e6, 1e300):
        aniso = Anisotropy.lp(q)
        assert np.isfinite(aniso.wulff_sample(4096)).all()
        assert 3.99999 < aniso.wulff_measures().area <= 4.0  # the square's area, as q -> inf
        assert sigma_threshold(aniso, 1.5, 2.0).sigma == pytest.approx(0.0727143, rel=1e-5)
        for p in (1.0, 1.5, 2.0):
            assert solve(aniso, grid, g, p).converged
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(AnisotropyError, match="lp exponent must be finite with q >= 1"):
            Anisotropy.lp(bad)


@pytest.mark.parametrize("aniso", [Anisotropy.euclidean(), Anisotropy.ellipse(1.0, 1.0)],
                         ids=["euclidean", "unit-ellipse"])
def test_the_euclidean_gauge_is_the_unit_ellipse_bitwise(aniso):
    rng = np.random.default_rng(8)
    extreme = [[1e-300, 1e-300], [1e300, 1e300], [1e-300, 1e300], [0.0, 0.0], [-0.0, 1e300]]
    v = np.vstack([_wide_range_vectors(), rng.standard_normal((512, 2)), extreme])
    x, y = v[:, 0], v[:, 1]
    assert np.array_equal(aniso.eval_many(v), np.hypot(x, y))
    assert np.array_equal(aniso.eval_dual_many(v), np.hypot(x, y))
    r, h = np.append(x[:4096], 0.0), 0.01
    s = np.hypot(r, h)
    value, (d1, d2, dh) = aniso.smoothed_dual(r, h, 1e-3)
    for got, closed_form in zip((value, d1, d2, dh), (s, r / s, (h / s) * (h / s) / s, h / s)):
        assert np.array_equal(got, closed_form)
    assert dataclasses.astuple(aniso.symmetry_flags()) == (True, False, True, 1.0)


@pytest.mark.parametrize("vertices", [
    np.array(SQUARE, dtype=float),
    _regular_polygon(6, 0.2),
    _regular_polygon(4096),
], ids=["square", "hexagon", "4096-gon"])
def test_polygon_kernels_match_the_matmul_reference(vertices):
    # the matmul kernels the polygon gauge used before its row-pair loop
    nxt = np.roll(vertices, -1, axis=0)
    edges = nxt - vertices
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals /= np.hypot(edges[:, 0], edges[:, 1])[:, None]
    coeff = normals / np.einsum("ij,ij->i", vertices, normals)[:, None]
    v = _wide_range_vectors().reshape(-1, 4, 2)
    aniso = Anisotropy.polygon(vertices)
    np.testing.assert_allclose(aniso.eval_many(v), np.maximum(v @ coeff.T, 0.0).max(axis=-1),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(aniso.eval_dual_many(v), (v @ vertices.T).max(axis=-1),
                               rtol=1e-15, atol=0.0)


def test_generic_circle_is_a_lipschitz_gauge_like_the_euclidean_one():
    from anisocurve import sigma_threshold

    circle = Anisotropy.generic(math.hypot)
    assert circle.kind == "polygon"
    flags = circle.symmetry_flags()
    assert flags.partially_monotone and not flags.vertical_facets
    report = sigma_threshold(circle, 1.0, 2.0)
    assert report.regularity_class == "lipschitz"
    assert abs(report.sigma - sigma_threshold(Anisotropy.euclidean(), 1.0, 2.0).sigma) <= 1e-6
    clone = anisotropy_from_json(circle.to_json())
    x = _wide_range_vectors()
    assert np.array_equal(clone.eval_dual_many(x), circle.eval_dual_many(x))


def test_generic_polygon_and_its_flags_build_in_little_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        Anisotropy.generic(math.hypot).symmetry_flags()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_polygon_rejects_a_moved_vertex_and_an_odd_count():
    vertices = _regular_polygon(4096)
    vertices[17] *= 1.0 + 1e-6
    with pytest.raises(AnisotropyError):
        Anisotropy.polygon(vertices)
    with pytest.raises(AnisotropyError):
        Anisotropy.polygon([[1, 0], [1, 1], [-1, 1], [-1, -1], [1, -1]])


def test_polygon_rejects_a_star_and_generic_rejects_a_quasi_norm():
    with pytest.raises(AnisotropyError, match="convex"):
        Anisotropy.polygon([[1, 0], [0.2, 0.2], [0, 1], [-1, 0], [-0.2, -0.2], [0, -1]])
    with pytest.raises(AnisotropyError, match="convex"):
        Anisotropy.generic(lambda x, y: (math.sqrt(abs(x)) + math.sqrt(abs(y))) ** 2)
    # a decagram turns left at every vertex but winds around the origin three times
    with pytest.raises(AnisotropyError, match="convex"):
        Anisotropy.polygon(_regular_polygon(10)[3 * np.arange(10) % 10])
    # collinear samples of a flat facet are convex: a generic square builds
    square = Anisotropy.generic(lambda x, y: max(abs(x), abs(y)))
    assert square.eval_dual(np.array([2.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_generic_rejects_non_finite_or_non_positive_values():
    for value in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(AnisotropyError):
            Anisotropy.generic(lambda x, y, value=value: value)


def _vectors_with_zeros():
    rng = np.random.default_rng(13)
    v = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1))
    v[:100, 1] = 0.0
    v[100:200, 0] = 0.0
    v[200:203] = [[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0]]
    return v


@pytest.mark.parametrize("aniso", [
    Anisotropy.polygon(SQUARE),
    Anisotropy.polygon(_regular_polygon(6, 0.2)),
    Anisotropy.generic(lambda x, y: (abs(x) ** 3 + 0.5 * abs(y) ** 3) ** (1.0 / 3.0)),
], ids=["square", "hexagon", "generic"])
def test_polygon_kernels_are_the_maximum_over_all_vertices(aniso):
    # phi° is the largest pairing with a vertex, phi the largest with a polar vertex
    vertices = aniso.vertices
    edges = np.roll(vertices, -1, axis=0) - vertices
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / np.hypot(*edges.T)[:, None]
    polar = normals / np.einsum("ij,ij->i", vertices, normals)[:, None]
    v = _vectors_with_zeros()
    x, y = v[:, :1], v[:, 1:]
    dual = (x * vertices[:, 0] + y * vertices[:, 1]).max(axis=1)
    gauge = (x * polar[:, 0] + y * polar[:, 1]).max(axis=1)
    if len(vertices) == 4:
        assert np.array_equal(aniso.eval_dual_many(v), dual)
        assert np.array_equal(aniso.eval_many(v), gauge)
    np.testing.assert_allclose(aniso.eval_dual_many(v), dual, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(aniso.eval_many(v), gauge, rtol=1e-15, atol=0.0)


def test_lp_near_one_stays_finite_on_unit_vectors():
    # q' = q / (q - 1) = 10001, so an unscaled |x|^q' underflows to 0
    q = 1.0001
    qd = q / (q - 1.0)
    aniso = Anisotropy.lp(q)
    diagonal = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    assert aniso.eval_dual_many(diagonal)[0] == pytest.approx(
        2.0 ** (1.0 / qd) / math.sqrt(2.0), rel=1e-15, abs=0.0)
    point = aniso.normal_contact_point([1.0, 1.0])
    assert np.isfinite(point).all()
    assert aniso.eval(point) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    nus = _random_directions(np.random.default_rng(4), 500)
    points = np.array([aniso.normal_contact_point(nu) for nu in nus])
    np.testing.assert_allclose(aniso.eval_many(points), 1.0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(np.einsum("ij,ij->i", points, nus), aniso.eval_dual_many(nus),
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_lp_kernels_match_the_unscaled_power_sums(q):
    qd = q / (q - 1.0)
    v = np.abs(_vectors_with_zeros()[203:])
    x, y = v[:, 0], v[:, 1]
    aniso = Anisotropy.lp(q)
    np.testing.assert_allclose(aniso.eval_many(v), (x**q + y**q) ** (1.0 / q),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(aniso.eval_dual_many(v), (x**qd + y**qd) ** (1.0 / qd),
                               rtol=1e-15, atol=0.0)
    r, h = np.linspace(-3.0, 3.0, 101), 0.05
    for eps in (1e-2, 1e-10):
        t = r * r + (eps * h) ** 2
        big = t ** (0.5 * qd) + h**qd
        f = big ** (1.0 / qd)
        value, (d1, _, dh) = aniso.smoothed_dual(r, h, eps)
        for got, unscaled in zip((value, d1, dh),
                                 (f, f * r * t ** (0.5 * qd - 1.0) / big,
                                  f * h ** (qd - 1.0) / big)):
            np.testing.assert_allclose(got, unscaled, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("scale", [1e-160, 1e140])
def test_polygon_kernels_hold_at_extreme_scales(scale):
    # the polar vertices of a tiny polygon are huge, and products of their
    # coordinates overflow unless the envelope rescales them
    octagon = np.array([[1, .4], [.4, 1], [-.4, 1], [-1, .4], [-1, -.4], [-.4, -1], [.4, -1],
                        [1, -.4]]) * scale
    aniso = Anisotropy.polygon(octagon)
    edges = np.roll(octagon, -1, axis=0) - octagon
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / np.hypot(*edges.T)[:, None]
    polar = normals / np.einsum("ij,ij->i", octagon, normals)[:, None]
    v = _vectors_with_zeros()
    np.testing.assert_allclose(aniso.eval_dual_many(v), (v @ octagon.T).max(axis=1),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(aniso.eval_many(v), (v @ polar.T).max(axis=1), rtol=1e-15, atol=0.0)
