"""Planar gauges (anisotropies), dual norms and Wulff-shape geometry.

An anisotropy is a positively one-homogeneous, even, convex function
phi on R^2.  Its unit ball {phi <= 1} is the Wulff shape; the dual
gauge phi°(xi) = max{<xi, eta> : phi(eta) = 1} is the support function
of the Wulff shape.  Everything downstream (energies, solvers,
classifiers) consumes the interface of the :class:`Anisotropy` object
defined here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Anisotropy",
    "AnisotropyError",
    "GeometryError",
    "WulffMeasures",
    "SymmetryFlags",
    "BoundaryArc",
    "anisotropy_from_json",
]

DEFAULT_MEASURE_SAMPLES = 65536
DEFAULT_FACE_SAMPLES = 8192
DEFAULT_PROJECTION_SAMPLES = 4096

_CURVATURE_RADIUS_MIN = 1e-6
_CURVATURE_RADIUS_MAX = 1e6

# Newton passes in the projection kernels stop once every step is below
# _NEWTON_STEP_TOL (relative for the ellipse multiplier, absolute for the lp
# parameter in [0, 1]); convergence is quadratic, so the point left after
# such a step is exact to rounding.  _NEWTON_MAX_PASSES only bounds the loop
# on non-finite input.
_NEWTON_STEP_TOL = 1e-10
_NEWTON_MAX_PASSES = 100


class AnisotropyError(ValueError):
    """Invalid anisotropy description or evaluator."""


class GeometryError(RuntimeError):
    """Degenerate boundary geometry (zero area, bad polyline)."""


@dataclass(frozen=True)
class WulffMeasures:
    """Area and phi-perimeter of the Wulff shape plus derived constants."""

    area: float
    phi_perimeter: float
    c_phi: float
    alpha0: float
    sample_count: int


@dataclass(frozen=True)
class SymmetryFlags:
    partially_monotone: bool
    vertical_facets: bool
    elliptic: bool
    rolling_radius_estimate: float


@dataclass(frozen=True)
class BoundaryArc:
    """A connected arc on the Wulff boundary, in arc-length parameter.

    ``s_lo <= s_hi`` unless the arc wraps through parameter 0, in which
    case ``s_lo > s_hi`` and the arc is [s_lo, total) + [0, s_hi].
    """

    s_lo: float
    s_hi: float
    total_length: float
    endpoints: np.ndarray  # shape (2, 2)
    midpoint: np.ndarray  # shape (2,), a representative admissible point

    @property
    def wraps(self) -> bool:
        return self.s_lo > self.s_hi

    @property
    def length(self) -> float:
        if self.wraps:
            return (self.total_length - self.s_lo) + self.s_hi
        return self.s_hi - self.s_lo


def _as_vec(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise AnisotropyError(f"expected a 2-vector, got shape {v.shape}")
    return v


def _circumradii(points: np.ndarray) -> np.ndarray:
    """Circumradius of each consecutive boundary-point triple (cyclic)."""
    p0 = points
    p1 = np.roll(points, -1, axis=0)
    p2 = np.roll(points, -2, axis=0)
    a = np.hypot(*(p1 - p0).T)
    b = np.hypot(*(p2 - p1).T)
    c = np.hypot(*(p2 - p0).T)
    cross = (p1 - p0)[:, 0] * (p2 - p0)[:, 1] - (p1 - p0)[:, 1] * (p2 - p0)[:, 0]
    area2 = np.abs(cross)
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = a * b * c / (2.0 * area2)
    radii[area2 == 0.0] = np.inf
    return radii


class Anisotropy:
    """A gauge on R^2 with cached Wulff-shape geometry.

    Construct through the factory classmethods (:meth:`euclidean`,
    :meth:`ellipse`, :meth:`lp`, :meth:`polygon`, :meth:`generic`) or
    from a JSON descriptor via :func:`anisotropy_from_json`.  Instances
    are immutable; lazily built caches are written once and are safe
    for concurrent reads afterwards.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._params = params
        self._face_cache: Optional[tuple] = None  # (points, params, total_len)
        self._measure_cache: dict[int, WulffMeasures] = {}
        self._flags: Optional[SymmetryFlags] = None
        self._projection_polygon: Optional["Anisotropy"] = None
        if kind == "ellipse":
            a, b = params["a"], params["b"]
            if not (a > 0 and b > 0):
                raise AnisotropyError("ellipse semi-axes must be positive")
        elif kind == "lp":
            if params["q"] < 1:
                raise AnisotropyError("lp exponent must satisfy q >= 1")
        elif kind == "polygon":
            self._init_polygon(params["vertices"])
        elif kind == "generic":
            if not callable(params["evaluator"]):
                raise AnisotropyError("generic anisotropy needs a callable evaluator")
        elif kind != "euclidean":
            raise AnisotropyError(f"unknown anisotropy kind {kind!r}")

    # -- construction ------------------------------------------------

    @classmethod
    def euclidean(cls) -> "Anisotropy":
        return cls("euclidean")

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Anisotropy":
        return cls("ellipse", a=float(a), b=float(b))

    @classmethod
    def lp(cls, q: float) -> "Anisotropy":
        return cls("lp", q=float(q))

    @classmethod
    def polygon(cls, vertices) -> "Anisotropy":
        return cls("polygon", vertices=np.asarray(vertices, dtype=float))

    @classmethod
    def generic(cls, evaluator: Callable[[float, float], float]) -> "Anisotropy":
        return cls("generic", evaluator=evaluator)

    def _init_polygon(self, vertices: np.ndarray) -> None:
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2 or len(vertices) < 4:
            raise AnisotropyError("polygon needs at least 4 vertices in R^2")
        nxt = np.roll(vertices, -1, axis=0)
        cross = vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]
        if np.sum(cross) <= 0:
            raise AnisotropyError("polygon vertices must be counterclockwise")
        if np.any(cross <= 0):
            raise AnisotropyError("polygon must be convex with the origin inside")
        # central symmetry: every vertex must have its antipode in the set
        dists = np.hypot(
            vertices[:, None, 0] + vertices[None, :, 0],
            vertices[:, None, 1] + vertices[None, :, 1],
        )
        if np.any(dists.min(axis=1) > 1e-9):
            raise AnisotropyError("polygon must be centrally symmetric (within 1e-9)")
        edges = nxt - vertices
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths == 0):
            raise AnisotropyError("polygon has a repeated vertex")
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        support = np.einsum("ij,ij->i", vertices, normals)
        if np.any(support <= 0):
            raise AnisotropyError("origin must be strictly inside the polygon")
        self._params["vertices"] = vertices
        self._poly_normals = normals
        self._poly_coeff = normals / support[:, None]
        self._poly_segments = (*vertices.T, *edges.T)  # start x, y; edge x, y
        self._poly_edge_len2 = np.einsum("ij,ij->i", edges, edges)

    # -- gauge evaluation --------------------------------------------

    def eval_many(self, v: np.ndarray) -> np.ndarray:
        """phi on an (n, 2) array of vectors."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        if self.kind == "euclidean":
            return np.hypot(x, y)
        if self.kind == "ellipse":
            return np.hypot(x / self._params["a"], y / self._params["b"])
        if self.kind == "lp":
            q = self._params["q"]
            if q == 1.0:
                return np.abs(x) + np.abs(y)
            if q == 2.0:
                return np.hypot(x, y)
            return (np.abs(x) ** q + np.abs(y) ** q) ** (1.0 / q)
        if self.kind == "polygon":
            return np.maximum(v @ self._poly_coeff.T, 0.0).max(axis=-1)
        # generic
        flat = v.reshape(-1, 2)
        ev = self._params["evaluator"]
        out = np.array([float(ev(px, py)) for px, py in flat])
        if np.any(~np.isfinite(out)) or np.any(out < 0):
            raise AnisotropyError("generic evaluator returned a negative or non-finite value")
        return out.reshape(v.shape[:-1])

    def eval(self, v) -> float:
        """phi(v); zero iff v = 0."""
        return float(self.eval_many(_as_vec(v)[None, :])[0])

    def eval_dual_many(self, v: np.ndarray) -> np.ndarray:
        """phi°, the support function of the Wulff shape, on (n, 2) vectors."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        if self.kind == "euclidean":
            return np.hypot(x, y)
        if self.kind == "ellipse":
            return np.hypot(x * self._params["a"], y * self._params["b"])
        if self.kind == "lp":
            q = self._params["q"]
            if q == 1.0:
                return np.maximum(np.abs(x), np.abs(y))
            if q == 2.0:
                return np.hypot(x, y)
            qd = q / (q - 1.0)
            return (np.abs(x) ** qd + np.abs(y) ** qd) ** (1.0 / qd)
        if self.kind == "polygon":
            return (v @ self._params["vertices"].T).max(axis=-1)
        # generic: coarse max over the boundary polyline + golden refinement
        pts, _, _ = self._face_polyline()
        flat = v.reshape(-1, 2)
        dots = flat @ pts.T
        best = dots.argmax(axis=1)
        out = np.empty(len(flat))
        step = 2.0 * math.pi / len(pts)
        for i, k in enumerate(best):
            theta0 = math.atan2(pts[k, 1], pts[k, 0])
            out[i] = self._refine_support(flat[i], theta0, step)
        return out.reshape(v.shape[:-1])

    def _refine_support(self, xi: np.ndarray, theta0: float, halfwidth: float) -> float:
        """Golden-section maximization of <xi, boundary(theta)> near theta0."""
        invphi = (math.sqrt(5.0) - 1.0) / 2.0

        def val(theta: float) -> float:
            d = np.array([math.cos(theta), math.sin(theta)])
            return float(xi @ d) / self.eval(d)

        a, b = theta0 - halfwidth, theta0 + halfwidth
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = val(c), val(d)
        for _ in range(80):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = val(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = val(d)
        return max(fc, fd)

    def eval_dual(self, v) -> float:
        return float(self.eval_dual_many(_as_vec(v)[None, :])[0])

    def boundary_point(self, d) -> np.ndarray:
        """The point d / phi(d) on the Wulff boundary."""
        d = _as_vec(d)
        g = self.eval(d)
        if g == 0.0:
            raise AnisotropyError("boundary_point requires a nonzero direction")
        return d / g

    def diameter(self) -> float:
        """Euclidean diameter of the Wulff shape (from the face polyline)."""
        pts, _, _ = self._face_polyline()
        return 2.0 * float(np.hypot(pts[:, 0], pts[:, 1]).max())

    # -- boundary sampling -------------------------------------------

    def wulff_sample(self, m: int) -> np.ndarray:
        """Counterclockwise polyline of >= m points on the Wulff boundary.

        For polygons the exact vertices are merged into the angular
        sample so corners are represented exactly.
        """
        if m < 16:
            raise AnisotropyError("wulff_sample requires m >= 16")
        theta = 2.0 * math.pi * np.arange(m) / m
        if self.kind == "polygon":
            verts = self._params["vertices"]
            vangles = np.mod(np.arctan2(verts[:, 1], verts[:, 0]), 2.0 * math.pi)
            theta = np.union1d(np.round(theta, 15), np.round(vangles, 15))
            # drop sample angles that collide with a vertex angle
            keep = np.ones(len(theta), dtype=bool)
            keep[np.nonzero(np.diff(theta) < 1e-12)[0]] = False
            theta = theta[keep]
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        return dirs / self.eval_many(dirs)[:, None]

    def _face_polyline(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Cached boundary polyline with cumulative arc-length parameters."""
        if self._face_cache is None:
            if self.kind == "polygon":
                pts = self._params["vertices"]
            else:
                pts = self.wulff_sample(DEFAULT_FACE_SAMPLES)
            seg = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
            params = np.concatenate([[0.0], np.cumsum(seg[:-1])])
            self._face_cache = (pts, params, float(seg.sum()))
        return self._face_cache

    # -- measures and flags ------------------------------------------

    def wulff_measures(self, m: Optional[int] = None) -> WulffMeasures:
        """|W|, P_phi(W), c_phi and alpha0 from the boundary polyline.

        Polygons are computed exactly from their vertices; other kinds
        use an m-point polyline (m >= 256, default 65536).
        """
        if self.kind == "polygon":
            pts = self._params["vertices"]
            key = len(pts)
        else:
            m = DEFAULT_MEASURE_SAMPLES if m is None else int(m)
            if m < 256:
                raise AnisotropyError("wulff_measures requires m >= 256 for non-polygon kinds")
            key = m
            if key in self._measure_cache:
                return self._measure_cache[key]
            pts = self.wulff_sample(m)
        if key in self._measure_cache:
            return self._measure_cache[key]
        nxt = np.roll(pts, -1, axis=0)
        cross = pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]
        area = 0.5 * float(np.sum(cross))
        if area <= 0 or np.any(cross < -1e-12):
            raise GeometryError("degenerate Wulff boundary polyline")
        edges = nxt - pts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        perimeter = float(np.sum(self.eval_dual_many(normals) * lengths))
        c_phi = perimeter / math.sqrt(area)
        alpha0 = perimeter / ((2.0 * perimeter + 1.0) * math.sqrt(area))
        measures = WulffMeasures(area, perimeter, c_phi, alpha0, len(pts))
        self._measure_cache[key] = measures
        return measures

    def symmetry_flags(self) -> SymmetryFlags:
        if self._flags is None:
            self._flags = self._compute_flags()
        return self._flags

    def _compute_flags(self) -> SymmetryFlags:
        if self.kind == "euclidean":
            return SymmetryFlags(True, False, True, 1.0)
        if self.kind == "ellipse":
            a, b = self._params["a"], self._params["b"]
            rbar = min(a * a / b, b * b / a)
            return SymmetryFlags(True, False, True, rbar)
        if self.kind == "lp":
            q = self._params["q"]
            if q == 2.0:
                return SymmetryFlags(True, False, True, 1.0)
            return SymmetryFlags(True, False, False, 0.0)
        if self.kind == "polygon":
            verts = self._params["vertices"]
            pm = self._vertex_set_axis_symmetric(verts)
            vf = bool(np.any(np.abs(self._poly_normals[:, 1]) <= 1e-12))
            return SymmetryFlags(pm, vf, False, 0.0)
        return self._generic_flags()

    @staticmethod
    def _vertex_set_axis_symmetric(verts: np.ndarray) -> bool:
        for sx, sy in ((-1.0, 1.0), (1.0, -1.0)):
            mirrored = verts * np.array([sx, sy])
            d = np.hypot(
                verts[:, None, 0] - mirrored[None, :, 0],
                verts[:, None, 1] - mirrored[None, :, 1],
            )
            if np.any(d.min(axis=1) > 1e-9):
                return False
        return True

    def _generic_flags(self) -> SymmetryFlags:
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((1024, 2))
        vals = self.eval_many(samples)
        folded = self.eval_many(np.abs(samples))
        scale = float(np.max(vals)) + 1.0
        pm = bool(np.max(np.abs(vals - folded)) <= 1e-9 * scale)
        # vertical facet: boundary points at normals tilted +-1e-4 rad off e1
        # must essentially coincide, else +-e1 supports a whole segment
        p_plus = self._support_argmax(np.array([math.cos(1e-4), math.sin(1e-4)]))
        p_minus = self._support_argmax(np.array([math.cos(1e-4), -math.sin(1e-4)]))
        vf = bool(np.hypot(*(p_plus - p_minus)) > 1e-6)
        radii = _circumradii(self._face_polyline()[0])
        rmin, rmax = float(np.min(radii)), float(np.max(radii))
        elliptic = bool(
            np.isfinite(rmax)
            and rmin >= _CURVATURE_RADIUS_MIN
            and rmax <= _CURVATURE_RADIUS_MAX
        )
        return SymmetryFlags(pm, vf, elliptic, rmin if elliptic else 0.0)

    def _support_argmax(self, nu: np.ndarray) -> np.ndarray:
        """Boundary point maximizing <., nu> (polyline argmax + refinement)."""
        pts, _, _ = self._face_polyline()
        k = int(np.argmax(pts @ nu))
        theta0 = math.atan2(pts[k, 1], pts[k, 0])
        step = 2.0 * math.pi / len(pts)
        invphi = (math.sqrt(5.0) - 1.0) / 2.0

        def point(theta: float) -> np.ndarray:
            d = np.array([math.cos(theta), math.sin(theta)])
            return d / self.eval(d)

        a, b = theta0 - step, theta0 + step
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = float(point(c) @ nu), float(point(d) @ nu)
        for _ in range(80):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = float(point(c) @ nu)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = float(point(d) @ nu)
        return point(0.5 * (a + b))

    # -- exposed faces ------------------------------------------------

    def default_face_tolerance(self) -> float:
        if self.kind == "generic":
            return 1e-4
        return 1e-7 * self.diameter()

    def face_mask(self, nu: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
        """Boolean mask of face-polyline points within tol of the support value."""
        tol = self.default_face_tolerance() if tol is None else float(tol)
        pts, _, _ = self._face_polyline()
        dots = pts @ np.asarray(nu, dtype=float)
        target = self.eval_dual(nu)
        mask = dots >= target - tol
        if not mask.any():  # the polyline argmax always represents the face
            mask[int(np.argmax(dots))] = True
        return mask

    def exposed_face(self, nu, tol: Optional[float] = None) -> BoundaryArc:
        """The boundary arc {N : <N, nu> >= phi°(nu) - tol} (exposed face).

        Exact for polygons (a vertex or a whole edge); a short arc
        around the maximizer for strictly convex shapes.
        """
        nu = _as_vec(nu)
        n = np.hypot(nu[0], nu[1])
        if abs(n - 1.0) > 1e-12:
            raise AnisotropyError("exposed_face expects a unit normal")
        mask = self.face_mask(nu, tol)
        return self._arc_from_mask(mask)

    def _arc_from_mask(self, mask: np.ndarray) -> BoundaryArc:
        pts, params, total = self._face_polyline()
        idx = np.nonzero(mask)[0]
        if len(idx) == len(mask):
            raise GeometryError("face mask covers the whole boundary")
        # contiguous circular run: rotate so the run does not straddle 0
        if mask[0] and mask[-1]:
            start = int(np.nonzero(~mask)[0][-1]) + 1
            lo, hi = idx[idx >= start][0], idx[idx < start][-1]
        else:
            lo, hi = int(idx[0]), int(idx[-1])
        s_lo, s_hi = float(params[lo]), float(params[hi])
        if lo <= hi:
            mid = pts[idx[len(idx) // 2]]
        else:
            run = np.concatenate([np.arange(lo, len(mask)), np.arange(0, hi + 1)])
            mid = pts[run[len(run) // 2]]
        return BoundaryArc(
            s_lo=s_lo,
            s_hi=s_hi,
            total_length=total,
            endpoints=np.array([pts[lo], pts[hi]]),
            midpoint=np.asarray(mid, dtype=float),
        )

    def normal_contact_point(self, nu, tol: Optional[float] = None) -> np.ndarray:
        """Boundary point with outward normal nu (face midpoint for facets)."""
        nu = _as_vec(nu)
        nu = nu / np.hypot(nu[0], nu[1])
        if self.kind == "euclidean":
            return nu
        if self.kind == "ellipse":
            a, b = self._params["a"], self._params["b"]
            p = np.array([a * a * nu[0], b * b * nu[1]])
            return p / self.eval_dual(nu)
        if self.kind == "lp" and self._params["q"] > 1.0:
            q = self._params["q"]
            qd = q / (q - 1.0)
            denom = (abs(nu[0]) ** qd + abs(nu[1]) ** qd) ** (1.0 / qd)
            w = nu / denom
            return np.sign(w) * np.abs(w) ** (qd - 1.0)
        arc = self._polygonal_geometry().exposed_face(nu, tol)
        return 0.5 * (arc.endpoints[0] + arc.endpoints[1])

    def _polygonal_geometry(self) -> "Anisotropy":
        """Polygonal stand-in used for face/projection work on facet kinds."""
        if self.kind == "polygon":
            return self
        if self._projection_polygon is None:
            if self.kind == "lp" and self._params["q"] == 1.0:
                verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
            else:
                verts = self.wulff_sample(DEFAULT_PROJECTION_SAMPLES)
            self._projection_polygon = Anisotropy.polygon(verts)
        return self._projection_polygon

    # -- Euclidean projection onto the Wulff shape --------------------

    def project_wulff_many(self, x: np.ndarray) -> np.ndarray:
        """Euclidean nearest point of the Wulff shape, rows of x independently.

        Rows inside the shape are returned unchanged.  Outside rows:

        - euclidean and lp(2): ``x / |x|``, one pass, exact to rounding;
        - ellipse: Newton's method on the secular equation of the
          multiplier mu, written as 1/phi(z(mu)) = 1, from a lower bound of
          the root; the left side is concave and increasing, so the
          iterates climb to the root without overshoot.  Exact to rounding,
          usually in 2-6 passes (the first step is exact for a circle);
        - lp(q), q not 1 or 2: Newton's method on a graph parametrization
          of the boundary arc between the larger axis and the diagonal,
          falling back to bisection whenever a step leaves the bracket.
          The point is on the boundary to rounding and stationary to
          rounding once the last step is below 1e-10, usually in 3-5
          passes;
        - polygon and lp(1): exact nearest point over all edges;
        - generic: exact nearest point of a 4096-vertex inscribed polygon,
          so accurate only to that sampling.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean" or (self.kind == "lp" and self._params["q"] == 2.0):
            return x / np.maximum(np.hypot(x[..., 0], x[..., 1]), 1.0)[..., None]
        inside = self.eval_many(x) <= 1.0
        out = np.array(x, copy=True)
        todo = ~inside
        if not todo.any():
            return out
        xo = x[todo]
        if self.kind == "ellipse":
            proj = self._project_ellipse(xo)
        elif self.kind == "lp" and self._params["q"] != 1.0:
            proj = self._project_lp(xo)
        else:  # polygon, lp(1), generic
            proj = self._polygonal_geometry()._project_polygon(xo)
        out[todo] = proj
        return out

    def project_wulff(self, x) -> np.ndarray:
        return self.project_wulff_many(_as_vec(x)[None, :])[0]

    def _project_ellipse(self, x: np.ndarray) -> np.ndarray:
        # z_i = d_i^2 x_i / (d_i^2 + mu) with (d_1, d_2) = (a, b) and mu > 0
        # the root of rho(mu) = phi(z) = 1, where rho^2 = S = sum_i w_i and
        # w_i = (d_i x_i / (d_i^2 + mu))^2.  1/rho is concave and increasing
        # in mu (as in the trust-region secular equation), so Newton's method
        # on 1/rho = 1, started below the root, climbs to it without
        # overshoot; its first step is exact when a = b.  Each term alone
        # gives the lower bound |d_i x_i| - d_i^2 of the root.
        a, b = self._params["a"], self._params["b"]
        a2, b2 = a * a, b * b
        ax, by = a * x[:, 0], b * x[:, 1]
        mu = np.maximum(np.maximum(np.abs(ax) - a2, np.abs(by) - b2), 0.0)
        for _ in range(_NEWTON_MAX_PASSES):
            sa, sb = a2 + mu, b2 + mu
            wa, wb = (ax / sa) ** 2, (by / sb) ** 2
            s = wa + wb
            mu_new = np.maximum(mu + (np.sqrt(s) - 1.0) * s / (wa / sa + wb / sb), mu)
            step = mu_new - mu
            mu = mu_new
            if (step <= _NEWTON_STEP_TOL * (mu + min(a2, b2))).all():
                break
        d2 = np.array([a2, b2])
        return d2 * x / (d2 + mu[:, None])

    def _project_lp(self, x: np.ndarray) -> np.ndarray:
        # Fold x into the octant 0 <= Y <= X (signs and the diagonal swap are
        # restored at the end).  The nearest point Z lies on the boundary arc
        # from (1, 0) to the diagonal, parametrized by u in [0, 1] through
        # r = Z2 / Z1 = u^k and the boundary slope sigma = r^(q-1) = u^e with
        # k = max(1, 1/(q-1)) and e = max(q-1, 1): u is the coordinate ratio
        # for q > 2 and the slope for q < 2, so no power has a negative
        # exponent.  Z1 = (1 + r^q)^(-1/q), Z2 = r Z1, and
        # g(u) = (Z2 - Y) + (X - Z1) sigma is the derivative of the squared
        # distance up to a positive factor, with g(0) = -Y <= 0 <= X - Y = g(1).
        q = self._params["q"]
        k, e = max(1.0, 1.0 / (q - 1.0)), max(q - 1.0, 1.0)
        ax = np.abs(x)
        swap = ax[:, 1] > ax[:, 0]
        big, small = ax.max(axis=1), ax.min(axis=1)
        u = (small / big) ** (1.0 / k)  # the radial projection
        lo = np.zeros(len(x))
        hi = np.ones(len(x))
        for _ in range(_NEWTON_MAX_PASSES):
            uk, ue = u ** (k - 1.0), u ** (e - 1.0)
            r, sigma = uk * u, ue * u
            rq = r**q
            z1 = (1.0 + rq) ** (-1.0 / q)
            g = r * z1 - small + (big - z1) * sigma
            slope = k * uk * (z1 / (1.0 + rq)) * (1.0 + sigma * sigma) + e * ue * (big - z1)
            below = g < 0.0
            lo = np.where(below, u, lo)
            hi = np.where(below, hi, u)
            newton = slope > 0.0
            u_new = u - g / np.where(newton, slope, 1.0)
            newton &= (u_new >= lo) & (u_new <= hi)
            u_new = np.where(newton, u_new, 0.5 * (lo + hi))
            step = np.abs(u_new - u)
            u = u_new
            if (step <= _NEWTON_STEP_TOL).all():
                break
        r = u**k
        z1 = (1.0 + r**q) ** (-1.0 / q)
        z2 = r * z1
        z = np.column_stack([np.where(swap, z2, z1), np.where(swap, z1, z2)])
        return np.sign(x) * z

    def _project_polygon(self, x: np.ndarray) -> np.ndarray:
        # nearest point on each edge (rows x edges, one array per coordinate),
        # then the nearest of those; ties go to the lowest edge index
        vx, vy, ex, ey = self._poly_segments
        px, py = x[:, :1], x[:, 1:]
        t = ((px - vx) * ex + (py - vy) * ey) / self._poly_edge_len2
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        cx, cy = vx + t * ex, vy + t * ey
        best = ((cx - px) ** 2 + (cy - py) ** 2).argmin(axis=1)
        rows = np.arange(len(x))
        out = np.empty_like(x)
        out[:, 0] = cx[rows, best]
        out[:, 1] = cy[rows, best]
        return out

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "euclidean":
            return {"kind": "euclidean"}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "a": self._params["a"], "b": self._params["b"]}
        if self.kind == "lp":
            return {"kind": "lp", "q": self._params["q"]}
        if self.kind == "polygon":
            return {"kind": "polygon", "vertices": self._params["vertices"].tolist()}
        raise AnisotropyError("generic anisotropies have no JSON descriptor")

    def __repr__(self) -> str:
        if self.kind in ("euclidean", "generic"):
            return f"Anisotropy({self.kind})"
        if self.kind == "polygon":
            return f"Anisotropy(polygon, {len(self._params['vertices'])} vertices)"
        args = ", ".join(f"{k}={v}" for k, v in self._params.items())
        return f"Anisotropy({self.kind}, {args})"


def anisotropy_from_json(descriptor) -> Anisotropy:
    """Build an anisotropy from its JSON descriptor (dict or JSON string)."""
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise AnisotropyError("anisotropy descriptor must be an object with a 'kind'")
    kind = descriptor["kind"]
    if kind == "euclidean":
        return Anisotropy.euclidean()
    if kind == "ellipse":
        return Anisotropy.ellipse(descriptor["a"], descriptor["b"])
    if kind == "lp":
        return Anisotropy.lp(descriptor["q"])
    if kind == "polygon":
        return Anisotropy.polygon(descriptor["vertices"])
    raise AnisotropyError(f"unknown anisotropy kind {kind!r}")
