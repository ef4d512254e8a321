"""Planar gauges (anisotropies), dual norms and Wulff-shape geometry.

An anisotropy is a positively one-homogeneous, even, convex function
phi on R^2.  Its unit ball {phi <= 1} is the Wulff shape; the dual
gauge phi°(xi) = max{<xi, eta> : phi(eta) = 1} is the support function
of the Wulff shape.  Everything downstream (energies, solvers,
classifiers) consumes the interface of the :class:`Anisotropy` object
defined here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral, Real
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

DEFAULT_FACE_SAMPLES = 8192
GENERIC_SAMPLES = 4096
FACE_BLOCK_PAIRS = 2**16  # normal-point pairs per block of face masks

_DIAMOND = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]

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


def _as_normals(nu) -> np.ndarray:
    """nu as one normal, shape (2,), or a stack of them, shape (k, 2)."""
    nu = np.asarray(nu, dtype=float)
    if nu.ndim not in (1, 2) or nu.shape[-1] != 2:
        raise AnisotropyError(f"expected a 2-vector or a (k, 2) array, got shape {nu.shape}")
    return nu


def finite_number(value, name: str) -> float:
    """value as a float if it is a finite JSON number (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def positive_number(value, name: str) -> float:
    """value as a float if it is a finite JSON number above 0 (not a bool), else ValueError."""
    if finite_number(value, name) <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def positive_integer(value, name: str) -> int:
    """value if it is an integer >= 1 (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_keys(descriptor: dict, required, name: str, optional=()) -> None:
    """ValueError naming the JSON object ``name`` and its first missing required
    key, or every key it has that is neither required nor optional."""
    for key in required:
        if key not in descriptor:
            raise ValueError(f"{name}: missing key {key!r}")
    unknown = sorted(set(descriptor) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{name}: unknown key(s) {', '.join(map(repr, unknown))}")


def _upper_envelope(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lines r -> a r + b (rows (a, b)) on top of their upper envelope, by slope.

    A stack over the lines sorted by slope, then height, drops every line
    nowhere strictly on top; its comparisons run on the lines times a power
    of two, which is exact and keeps their products finite.  Returns the
    kept slopes s_k, heights c_k and hand-over points (c_k - c_{k+1}) / (s_{k+1} - s_k).
    """
    exponent = math.frexp(float(np.abs(lines).max()))[1]
    slopes, heights = [], []
    for sx, sy in sorted(np.ldexp(lines, -exponent).tolist()):
        if slopes and sx == slopes[-1]:
            del slopes[-1], heights[-1]
        while len(slopes) >= 2 and ((heights[-2] - sy) * (slopes[-1] - slopes[-2])
                                    <= (heights[-2] - heights[-1]) * (sx - slopes[-2])):
            del slopes[-1], heights[-1]
        slopes.append(sx)
        heights.append(sy)
    s, c = np.ldexp(slopes, exponent), np.ldexp(heights, exponent)
    envelope = s, c, (c[:-1] - c[1:]) / (s[1:] - s[:-1])
    for array in envelope:
        array.flags.writeable = False
    return envelope


def _support(envelope: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_k <v_k, (x, y)> over a centrally symmetric point set, from the
    ``_upper_envelope`` of its lines r -> v_x r + v_y: y times the envelope at
    r = x / y, whose line a bisection over the hand-over points finds.
    (x, y) and (-x, -y) share r and, by the symmetry, the absolute value of
    that line's pairing; y = 0 takes the first line for x < 0, the last for
    x > 0.  O(log m) per point for m lines.
    """
    slopes, heights, handover = envelope
    with np.errstate(all="ignore"):  # x / 0 bisects as +-inf, 0 / 0 (nan) as the last line
        r = x / y
    k = handover.searchsorted(r)
    return np.abs(slopes[k] * x + heights[k] * y)


def _lp_norm(x: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """(|x|^q + |y|^q)^(1/q) as M (1 + (m / M)^q)^(1/q), with m <= M the two
    magnitudes, so that no power underflows (at the huge q' of q near 1) or overflows;
    ``np.hypot`` at q = 2."""
    if q == 2.0:
        return np.hypot(x, y)
    ax, ay = np.abs(x), np.abs(y)
    big, small = np.maximum(ax, ay), np.minimum(ax, ay)
    ratio = np.divide(small, big, out=np.ones_like(big), where=small < big)
    return big * (1.0 + ratio**q) ** (1.0 / q)


class Anisotropy:
    """A gauge on R^2 with Wulff-shape geometry.

    Construct through the factory classmethods (:meth:`euclidean`,
    :meth:`ellipse`, :meth:`lp`, :meth:`polygon`, :meth:`generic`) or
    from a JSON descriptor via :func:`anisotropy_from_json`.  Each gauge
    has one kind: ``lp`` holds 1 < q != 2 only, as lp(1) is the diamond
    polygon and lp(2) the Euclidean gauge, and a generic gauge is its
    inscribed polygon.  Instances are immutable, with read-only arrays; the
    one lazily built cache, the boundary polyline that every exposed face is
    read from (a ``functools.cached_property``), is written once and safe for
    concurrent reads afterwards.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._params = params
        # a smooth gauge is phi(x, y) = |(x / a, y / b)|_q, stored as (a, b, q): Euclidean
        # (1, 1, 2), ellipse (a, b, 2) and lp (1, 1, q); a polygon has no triple
        self._abq: Optional[tuple[float, float, float]] = None
        # a polygon's envelopes of the lines of its vertices (phi°) and polar vertices (phi)
        self.dual_envelope: Optional[tuple] = None
        self._gauge_envelope: Optional[tuple] = None
        if kind in ("euclidean", "ellipse", "lp"):
            a, b, q = self._abq = params.get("a", 1.0), params.get("b", 1.0), params.get("q", 2.0)
            if not all(0.0 < d < math.inf and 1.0 / d < math.inf for d in (a, b)):
                raise AnisotropyError("ellipse semi-axes and their reciprocals must be finite "
                                      "and positive")
            if not 1.0 < q < math.inf:
                raise AnisotropyError(f"lp exponent must be finite with q >= 1, got {q}")
        elif kind == "polygon":
            self._init_polygon(params["vertices"])
        else:
            raise AnisotropyError(f"unknown anisotropy kind {kind!r}")
        # phi°(r, h) is twice differentiable in r with bounded curvature (h > 0)
        self.smooth_dual = bool(self._abq) and self._abq[2] <= 2.0

    # -- construction ------------------------------------------------

    @classmethod
    def euclidean(cls) -> "Anisotropy":
        return cls("euclidean")

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Anisotropy":
        return cls("ellipse", a=float(a), b=float(b))

    @classmethod
    def lp(cls, q: float) -> "Anisotropy":
        """The gauge (|x|^q + |y|^q)^(1/q) for a finite q >= 1.

        lp(1) is returned as the diamond polygon and lp(2) as the Euclidean
        gauge, so the ``lp`` kind holds 1 < q != 2 only.
        """
        q = float(q)
        if q == 1.0:
            return cls.polygon(_DIAMOND)
        if q == 2.0:
            return cls.euclidean()
        return cls("lp", q=q)

    @classmethod
    def polygon(cls, vertices) -> "Anisotropy":
        return cls("polygon", vertices=vertices)

    @classmethod
    def generic(cls, evaluator: Callable[[float, float], float]) -> "Anisotropy":
        """The polygon inscribed in the unit ball of an even convex gauge phi(x, y).

        phi is evaluated once, at GENERIC_SAMPLES equally spaced directions d,
        and must be finite and positive there; the vertices d / phi(d) must
        then pass the checks of :meth:`polygon`, which a gauge that is not
        convex or not even fails.
        """
        if not callable(evaluator):
            raise AnisotropyError("generic anisotropy needs a callable evaluator")
        theta = 2.0 * math.pi * np.arange(GENERIC_SAMPLES) / GENERIC_SAMPLES
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        values = np.array([float(evaluator(x, y)) for x, y in dirs.tolist()])
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise AnisotropyError("generic evaluator must return finite positive values")
        return cls.polygon(dirs / values[:, None])

    def _init_polygon(self, vertices) -> None:
        vertices = np.array(vertices, dtype=float)  # the gauge's own read-only copy
        vertices.flags.writeable = False
        if vertices.ndim != 2 or vertices.shape[1] != 2 or len(vertices) < 4:
            raise AnisotropyError("polygon needs at least 4 vertices in R^2")
        if not (np.abs(vertices) < 1e150).all():  # keeps the products below finite
            raise AnisotropyError("polygon vertex coordinates must be finite and below 1e150 "
                                  "in magnitude")
        # the checks run on the vertices times the power of two that puts the largest
        # coordinate in [1, 2): exact, so no product underflows and tolerances are relative
        shift = 1 - math.frexp(float(np.abs(vertices).max()))[1]
        unit = np.ldexp(vertices, shift)
        nxt = np.roll(unit, -1, axis=0)
        cross = unit[:, 0] * nxt[:, 1] - unit[:, 1] * nxt[:, 0]
        if np.sum(cross) <= 0:
            raise AnisotropyError("polygon vertices must be counterclockwise")
        # every vertex pair turns counterclockwise about the origin, once around
        turned = np.arctan2(cross, np.einsum("ij,ij->i", unit, nxt)).sum()
        if np.any(cross <= 0) or turned > 3.0 * math.pi:
            raise AnisotropyError("polygon must be convex with the origin inside")
        edges = nxt - unit
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        # consecutive edges turn left; the tolerance admits collinear samples
        nxt_edges, nxt_lengths = np.roll(edges, -1, axis=0), np.roll(lengths, -1)
        turn = edges[:, 0] * nxt_edges[:, 1] - edges[:, 1] * nxt_edges[:, 0]
        if np.any(turn < -1e-12 * lengths * nxt_lengths):
            raise AnisotropyError("polygon must be convex")
        # central symmetry: in counterclockwise order vertex i + K/2 is -vertex i
        half = len(vertices) // 2
        if len(vertices) % 2 or np.any(np.hypot(*(unit[:half] + unit[half:]).T) > 1e-9):
            raise AnisotropyError("polygon must be centrally symmetric (within 1e-9)")
        # the scaled copy serves every array below, scaled back by the same power of two
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        support = np.ldexp(np.einsum("ij,ij->i", unit, normals), -shift)
        self._params["vertices"] = vertices
        self._poly_area = 0.5 * math.ldexp(float(np.sum(cross)), -2 * shift)
        self._vertical_facets = bool(np.any(np.abs(normals[:, 1]) <= 1e-12))
        # phi° is the support function of the vertices, phi that of the polar vertices
        self.dual_envelope = _upper_envelope(vertices)
        self._gauge_envelope = _upper_envelope(normals / support[:, None])
        self._poly_segments = (*vertices.T, *np.ldexp(edges, -shift).T)  # start x, y; edge x, y
        self._poly_edge_len2 = np.ldexp(np.einsum("ij,ij->i", edges, edges), -2 * shift)

    @property
    def vertices(self) -> np.ndarray:
        """The vertices of a polygon gauge's Wulff shape, counterclockwise."""
        return self._params["vertices"]

    # -- gauge evaluation --------------------------------------------

    def eval_many(self, v: np.ndarray) -> np.ndarray:
        """phi on an (n, 2) array of vectors."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        if self._abq:
            a, b, q = self._abq
            return _lp_norm(x / a, y / b, q)
        return _support(self._gauge_envelope, x, y)

    def eval(self, v) -> float:
        """phi(v); zero iff v = 0."""
        return float(self.eval_many(_as_vec(v)[None, :])[0])

    def eval_dual_many(self, v: np.ndarray) -> np.ndarray:
        """phi°, the support function of the Wulff shape, on (n, 2) vectors."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        if self._abq:
            a, b, q = self._abq
            return _lp_norm(a * x, b * y, q / (q - 1.0))
        return _support(self.dual_envelope, x, y)

    def eval_dual(self, v) -> float:
        return float(self.eval_dual_many(_as_vec(v)[None, :])[0])

    def smoothed_dual(self, r, h: float, eps: float):
        """Yield phi°_eps(r, h), then its derivatives (d/dr, d^2/dr^2, d/dh), elementwise in r.

        ``h > 0`` is a scalar and ``eps`` a smoothing width relative to h, so
        phi°_eps stays one-homogeneous in (r, h).  Three formulas:

        - q = 2, the ellipse (a, b) and the Euclidean gauge a = b = 1: the
          quadratic form s = hypot(a r, b h), its derivatives formed from the
          ratios a r / s and b h / s, so that no semi-axis or h is squared
          alone; it is smooth already and ignores eps;
        - lp(q), whose semi-axes are 1: (|r|^q' + h^q')^(1/q') with
          q' = q / (q - 1) and |r|^q' replaced by (r^2 + (eps h)^2)^(q'/2),
          which bounds the curvature at r = 0 for q > 2; it adds at most eps h;
        - polygon: a log-sum-exp of the m lines r s_j + h c_j of
          ``dual_envelope`` at temperature eps h, taken about the line on
          top, which the bisection of phi° finds; it adds at most eps h log m.

        Each is an upper bound of phi° that is exact as eps -> 0, and the
        gradient (d/dr, d/dh) lies in the Wulff shape.  ``smooth_dual`` is
        true where phi° needs no smoothing: q <= 2, whose |r|^q' has q' >= 2.
        ``next(aniso.smoothed_dual(...))`` reads the value alone and does none
        of the derivatives' work.
        """
        r = np.asarray(r, dtype=float)
        if self._abq and self._abq[2] == 2.0:
            a, b, _ = self._abq
            ar = a * r
            s = np.hypot(ar, b * h)
            c = b * h / s
            yield s
            yield a * (ar / s), (a * c) ** 2 / s, b * c
        elif self._abq:
            qd = self._abq[2] / (self._abq[2] - 1.0)
            # the lp(q') norm of (a, h), a = sqrt(r^2 + delta^2), in units of max(a, h)
            a = np.hypot(r, eps * h)
            m = np.maximum(a, h)
            ra, rh = a / m, h / m
            pa, ph = ra ** (qd - 1.0), rh ** (qd - 1.0)
            s = pa * ra + ph * rh  # (a^q' + h^q') / m^q', in [1, 2]
            root = s ** (1.0 / qd)
            yield m * root
            ga, gh = pa * root / s, ph * root / s  # the gradient (a, h)^(q'-1) / f^(q'-1)
            f2 = ga / a * ((qd - 1.0) * gh * rh / root * (r / a) ** 2 + (eps * h / a) ** 2)
            yield ga * r / a, f2, gh
        else:
            slopes, heights, _ = self.dual_envelope
            temp = eps * h
            top = _support(self.dual_envelope, r, h)  # phi°, the value of the line on top
            with np.errstate(over="ignore"):  # a line far below weighs exp(-inf) = 0
                below = np.multiply.outer(r, slopes) + h * heights - top[..., None]
                weights = np.exp(np.minimum(below / temp, 0.0))
            total = weights.sum(axis=-1)
            yield top + temp * np.log(total)
            weights /= total[..., None]
            f1 = weights @ slopes
            f2 = (weights * (slopes - f1[..., None]) ** 2).sum(axis=-1) / temp
            yield f1, f2, weights @ heights

    def boundary_point(self, d) -> np.ndarray:
        """The point d / phi(d) on the Wulff boundary."""
        d = _as_vec(d)
        g = self.eval(d)
        if g == 0.0:
            raise AnisotropyError("boundary_point requires a nonzero direction")
        return d / g

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

    @functools.cached_property
    def _face_polyline(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The boundary polyline that faces live on (a polygon's vertices, else
        DEFAULT_FACE_SAMPLES points), its cumulative arc-length parameters, its
        length, and the face tolerance 2e-7 times its largest |point|."""
        pts = (self._params["vertices"] if self.kind == "polygon"
               else self.wulff_sample(DEFAULT_FACE_SAMPLES))
        pts.flags.writeable = False  # faces hand out views of these points
        seg = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T)
        tol = 2e-7 * float(np.hypot(pts[:, 0], pts[:, 1]).max())
        return pts, np.concatenate([[0.0], np.cumsum(seg[:-1])]), float(seg.sum()), tol

    # -- measures and flags ------------------------------------------

    def wulff_measures(self) -> WulffMeasures:
        """|W|, P_phi(W), c_phi and alpha0 of the Wulff shape, in closed form.

        |W| is a b times pi at q = 2 and times 4 Gamma(1 + 1/q)^2 / Gamma(1 + 2/q)
        otherwise, and the shoelace sum over the vertices for a polygon.  On
        the boundary phi°(nu) = <x, nu>, so the divergence theorem gives
        P_phi(W) = 2 |W| for every gauge; then c_phi = 2 sqrt|W| and
        alpha0 = 2 sqrt|W| / (4 |W| + 1).
        """
        if self._abq:
            a, b, q = self._abq
            area = (math.pi if q == 2.0 else 4.0 * math.gamma(1.0 + 1.0 / q) ** 2
                    / math.gamma(1.0 + 2.0 / q)) * a * b
        else:
            area = self._poly_area
        if not 0.0 < area < math.inf:
            raise GeometryError(f"Wulff shape area {area!r} is not a positive finite number")
        root = math.sqrt(area)
        return WulffMeasures(area, 2.0 * area, 2.0 * root, 2.0 * root / (4.0 * area + 1.0))

    def symmetry_flags(self) -> SymmetryFlags:
        """The regularity hypotheses the gauge meets.  A polygon is partially
        monotone iff its vertices mirrored in the y axis (the x-axis mirror is their
        negation) lie in W, phi <= 1 + 1e-9: a reflection that maps a convex body
        into itself maps it onto itself, and phi is 1 at a vertex of any size."""
        if self._abq:
            a, b, q = self._abq
            radius = min(a * a / b, b * b / a) if q == 2.0 else 0.0
            return SymmetryFlags(True, False, q == 2.0, radius)
        pm = bool(np.all(self.eval_many(self.vertices * [-1.0, 1.0]) <= 1.0 + 1e-9))
        return SymmetryFlags(pm, self._vertical_facets, False, 0.0)

    # -- exposed faces ------------------------------------------------

    def face_mask(self, nu: np.ndarray) -> np.ndarray:
        """The exposed face of nu on the boundary polyline: the points within
        the tolerance (2e-7 times the largest |point|) of the polyline's own
        largest <x, nu>.  It evaluates no phi° and is never empty; on a polygon,
        whose polyline is its vertices, that largest value is phi°(nu) up to rounding.

        nu is one normal, shape (2,), or k normals, shape (k, 2), with one mask
        per row; each row is the mask of its normal alone, bit for bit.
        """
        pts, _, _, tol = self._face_polyline
        # one matrix-vector product per normal: a (k, 2) x (2, m) product may
        # round differently
        dots = np.matmul(pts, _as_normals(nu)[..., None])[..., 0]
        return dots >= dots.max(axis=-1, keepdims=True) - tol

    def exposed_face(self, nu) -> BoundaryArc:
        """The boundary arc of :meth:`face_mask` (the exposed face of unit nu).

        Exact for polygons (a vertex or a whole edge); on a smooth gauge the
        sampled points within the tolerance of the sampled maximum of <x, nu>.
        """
        nu = _as_vec(nu)
        if abs(np.hypot(nu[0], nu[1]) - 1.0) > 1e-12:
            raise AnisotropyError("exposed_face expects a unit normal")
        return self._arc_from_mask(self.face_mask(nu))

    def _arc_from_mask(self, mask: np.ndarray) -> BoundaryArc:
        """The arc of a contiguous face mask: its points in the polyline's order,
        rolled to start after the last excluded point, so that one path serves
        runs that wrap through parameter 0 and runs that do not."""
        pts, params, total, _ = self._face_polyline
        excluded = np.flatnonzero(~mask)
        if not len(excluded):
            raise GeometryError("face mask covers the whole boundary")
        order = np.roll(np.arange(len(mask)), -1 - int(excluded[-1]))
        run = order[mask[order]]
        lo, hi = run[0], run[-1]
        return BoundaryArc(s_lo=float(params[lo]), s_hi=float(params[hi]), total_length=total,
                           endpoints=pts[[lo, hi]], midpoint=pts[run[len(run) // 2]])

    def normal_contact_point(self, nu) -> np.ndarray:
        """Boundary point with outward normal nu (face midpoint for facets).

        nu is one normal, shape (2,), or k normals, shape (k, 2), with one point
        per row.  A polygon's faces are read FACE_BLOCK_PAIRS normal-vertex
        pairs at a time.
        """
        nu = _as_normals(nu)
        with np.errstate(invalid="ignore"):
            nu = nu / np.hypot(nu[..., 0], nu[..., 1])[..., None]
        if not np.isfinite(nu).all():
            raise AnisotropyError("normal_contact_point needs finite nonzero normals")
        if self._abq:
            axes, q = np.array(self._abq[:2]), self._abq[2]
            qd = q / (q - 1.0)
            # grad phi°(nu) is (a, b) times the lp(q') gradient at z = (a nu_1, b nu_2), taken
            # in units of max|z_i| so that no power of q' underflows and no axis is squared
            z = np.abs(axes * nu)
            ratio = z / z.max(axis=-1, keepdims=True)
            return (axes * np.sign(nu) * ratio ** (qd - 1.0)
                    * np.sum(ratio**qd, axis=-1, keepdims=True) ** (-1.0 / q))
        pts = self._face_polyline[0]
        rows = nu.reshape(-1, 2)
        step = max(1, FACE_BLOCK_PAIRS // len(pts))
        points = []
        for start in range(0, len(rows), step):
            # a face is one run of points, which starts after an excluded point
            # and ends before one, also where it wraps through the first point
            mask = self.face_mask(rows[start:start + step])
            first = (mask & ~np.roll(mask, 1, axis=1)).argmax(axis=1)
            last = (mask & ~np.roll(mask, -1, axis=1)).argmax(axis=1)
            points.append(0.5 * (pts[first] + pts[last]))
        return np.concatenate(points).reshape(nu.shape)

    # -- Euclidean projection onto the Wulff shape --------------------

    def project_wulff_many(self, x: np.ndarray) -> np.ndarray:
        """Euclidean nearest point of the Wulff shape, rows of x independently.

        Rows inside the shape are returned unchanged.  Outside rows:

        - euclidean: ``x / |x|``, one pass, exact to rounding;
        - ellipse: Newton's method on the secular equation of the
          multiplier mu, written as 1/phi(z(mu)) = 1, from a lower bound of
          the root; the left side is concave and increasing, so the
          iterates climb to the root without overshoot.  Exact to rounding,
          usually in 2-6 passes (the first step is exact for a circle);
        - lp(q): Newton's method on a graph parametrization
          of the boundary arc between the larger axis and the diagonal,
          falling back to bisection whenever a step leaves the bracket.
          The point is on the boundary to rounding and stationary to
          rounding once the last step is below 1e-10, usually in 3-5
          passes;
        - polygon: exact nearest point over all edges.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            return x / np.maximum(np.hypot(x[..., 0], x[..., 1]), 1.0)[..., None]
        inside = self.eval_many(x) <= 1.0
        out = np.array(x, copy=True)
        todo = ~inside
        if not todo.any():
            return out
        xo = x[todo]
        if self.kind == "ellipse":
            proj = self._project_ellipse(xo)
        elif self.kind == "lp":
            proj = self._project_lp(xo)
        else:
            proj = self._project_polygon(xo)
        out[todo] = proj
        return out

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
        if self.kind == "polygon":
            return {"kind": "polygon", "vertices": self._params["vertices"].tolist()}
        return {"kind": self.kind, **self._params}

    def __repr__(self) -> str:
        if self.kind == "polygon":
            return f"Anisotropy(polygon, {len(self._params['vertices'])} vertices)"
        args = "".join(f", {k}={v}" for k, v in self._params.items())
        return f"Anisotropy({self.kind}{args})"


# the fields of each anisotropy kind's JSON descriptor besides "kind"
_JSON_FIELDS = {"euclidean": (), "ellipse": ("a", "b"), "lp": ("q",), "polygon": ("vertices",)}


def anisotropy_from_json(descriptor) -> Anisotropy:
    """Build an anisotropy from its parsed JSON descriptor."""
    if not isinstance(descriptor, dict):
        raise AnisotropyError("anisotropy descriptor must be a JSON object")
    if "kind" not in descriptor:
        raise AnisotropyError("anisotropy: missing key 'kind'")
    kind = descriptor["kind"]
    fields = _JSON_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise AnisotropyError(f"unknown anisotropy kind {kind!r}")
    check_keys(descriptor, ("kind", *fields), f"{kind} anisotropy")
    if kind == "euclidean":
        return Anisotropy.euclidean()
    if kind == "ellipse":
        return Anisotropy.ellipse(*(finite_number(descriptor[k], f"ellipse {k}") for k in "ab"))
    if kind == "lp":
        return Anisotropy.lp(finite_number(descriptor["q"], "lp q"))
    if kind == "polygon":
        vertices = descriptor["vertices"]
        if not isinstance(vertices, list):
            raise AnisotropyError("polygon vertices must be a list of [x, y] pairs")
        for k, v in enumerate(vertices):
            if not isinstance(v, list) or len(v) != 2:
                raise AnisotropyError(f"polygon vertex {k} must be an [x, y] pair")
        return Anisotropy.polygon(
            [[finite_number(c, "polygon vertex coordinate") for c in v] for v in vertices])
