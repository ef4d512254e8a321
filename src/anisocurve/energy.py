"""Discrete interval, profiles, datum sampling and the graph-area energy.

The energy of a nodal profile u on a uniform grid is

    total = sum_edges phi°(-(u_{i+1} - u_i), h)  +  sum_nodes w_j |u_j - g_j|^p

with trapezoid fidelity weights.  The one-homogeneous per-edge pair
(-du, h) charges gradients and steep (jump-like) transitions by the
same formula, so a unit jump concentrated on one edge costs phi°(e1)
in the fine-grid limit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy, check_keys, finite_number, positive_integer

__all__ = [
    "Grid",
    "Profile",
    "GSpec",
    "EnergyBreakdown",
    "energy",
    "energy_totals",
    "truncate",
    "trapezoid_weights",
    "read_profile_csv",
    "write_profile_csv",
    "write_two_column_csv",
]


class IngestionError(ValueError):
    """Input file does not cover the requested interval or is malformed."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of (x_min, x_max) into n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        positive_integer(self.n_cells, "grid n_cells")
        if not 0.0 < (self.x_max - self.x_min) / self.n_cells < math.inf:
            raise ValueError(f"grid on [{self.x_min}, {self.x_max}] with n_cells = "
                             f"{self.n_cells} needs a finite positive cell width")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    def refine(self) -> "Grid":
        """The grid with every cell halved."""
        return Grid(self.x_min, self.x_max, self.n_cells * 2)


@dataclass(frozen=True)
class Profile:
    """Nodal values of a BV profile on a grid (n_cells + 1 values)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"profile needs {self.grid.n_cells + 1} nodal values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", values)

    def edge_differences(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class EnergyBreakdown:
    area: float
    fidelity: float

    @property
    def total(self) -> float:
        return self.area + self.fidelity


# the fields of each datum kind's JSON descriptor besides "kind"
_JSON_FIELDS = {"constant": ("c",), "step": ("a",), "csv": ("path", "interp")}


@dataclass(frozen=True)
class GSpec:
    """Datum g: constant c, a two-level step of height a, or a CSV table.

    ``step(a)`` is +a on the right half of the interval and -a on the
    left half, read off the node index; the middle node of an even grid
    receives the average of the one-sided limits, 0.
    """

    kind: str
    c: float = 0.0
    a: float = 0.0
    path: Optional[str] = None
    interp: str = "linear"
    _table: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("c", "a"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"datum {self.kind} needs a finite {name}, got {value}")

    @classmethod
    def constant(cls, c: float) -> "GSpec":
        return cls(kind="constant", c=float(c))

    @classmethod
    def step(cls, a: float) -> "GSpec":
        return cls(kind="step", a=float(a))

    @classmethod
    def csv(cls, path, interp: str = "linear") -> "GSpec":
        if interp not in ("linear", "piecewise-constant"):
            raise IngestionError(f"unknown interpolation {interp!r}")
        s, g = _read_two_column_csv(path, "g")
        if np.any(np.diff(s) <= 0):
            raise IngestionError("csv abscissae must be strictly increasing")
        return cls(kind="csv", path=str(path), interp=interp, _table=(s, g))

    @classmethod
    def from_json(cls, descriptor: dict) -> "GSpec":
        if "kind" not in descriptor:
            raise IngestionError("datum: missing key 'kind'")
        kind = descriptor["kind"]
        fields = _JSON_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise IngestionError(f"unknown g kind {kind!r}")
        # every field is required but the csv interpolation
        check_keys(descriptor, ("kind", *fields[:1]), f"{kind} datum", optional=fields[1:])
        if kind == "constant":
            return cls.constant(finite_number(descriptor["c"], "datum constant c"))
        if kind == "step":
            return cls.step(finite_number(descriptor["a"], "datum step a"))
        if not isinstance(descriptor["path"], str):
            raise IngestionError("datum csv path must be a string")
        return cls.csv(descriptor["path"], descriptor.get("interp", "linear"))

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        if self.kind == "step":
            return {"kind": "step", "a": self.a}
        return {"kind": "csv", "path": self.path, "interp": self.interp}

    def sample(self, grid: Grid) -> np.ndarray:
        n = grid.n_cells
        if self.kind == "constant":
            return np.full(n + 1, self.c)
        if self.kind == "step":  # -a where 2k < n, +a where 2k > n; + 0.0 turns -0.0 into 0.0
            return self.a * np.sign(2 * np.arange(n + 1) - n) + 0.0
        s, gv = self._table
        slack = min(1e-12 * max(abs(grid.x_min), abs(grid.x_max)), 1e-2 * grid.h)
        if s[0] > grid.x_min + slack or s[-1] < grid.x_max - slack:
            raise IngestionError(
                f"csv covers [{s[0]}, {s[-1]}], needs [{grid.x_min}, {grid.x_max}]"
            )
        if self.interp == "linear":
            return np.interp(grid.nodes(), s, gv)
        idx = np.clip(np.searchsorted(s, grid.nodes(), side="right") - 1, 0, len(s) - 1)
        return gv[idx]


def check_fidelity_exponent(p: float) -> None:
    """Raise ValueError unless p is a finite number >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"fidelity exponent must be a finite number p >= 1, got {p}")


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_cells + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def _energy_parts(aniso: Anisotropy, values: np.ndarray, g: np.ndarray, p: float, grid: Grid):
    """Area and fidelity of nodal-value rows, summed along the last axis."""
    check_fidelity_exponent(p)
    du = np.diff(values, axis=-1)
    area = aniso.eval_dual_many(np.stack([-du, np.full_like(du, grid.h)], axis=-1))
    fidelity = trapezoid_weights(grid) * np.abs(values - g) ** p
    return area.sum(axis=-1), fidelity.sum(axis=-1)


def energy(aniso: Anisotropy, u: Profile, g: np.ndarray, p: float) -> EnergyBreakdown:
    """Area/fidelity decomposition of the discrete functional."""
    g = np.asarray(g, dtype=float)
    if g.shape != u.values.shape:
        raise ValueError("datum samples must match the profile nodes")
    area, fidelity = _energy_parts(aniso, u.values, g, p, u.grid)
    return EnergyBreakdown(area=float(area), fidelity=float(fidelity))


def energy_totals(
    aniso: Anisotropy, candidates: np.ndarray, g: np.ndarray, p: float, grid: Grid
) -> np.ndarray:
    """Total energy of many nodal-value rows at once (oracle work-horse)."""
    area, fidelity = _energy_parts(aniso, np.asarray(candidates, dtype=float), g, p, grid)
    return area + fidelity


def truncate(u: Profile, lo: float, hi: float) -> Profile:
    """Nodal clamp of u to [lo, hi] (the maximum-principle engine)."""
    if lo > hi:
        raise ValueError("truncate requires lo <= hi")
    return Profile(u.grid, np.clip(u.values, lo, hi))


# -- two-column CSV round-trip (17 significant digits, "\n" endings) ----


# rows formatted at once by the CSV and SVG writers: bounds the formatter's
# temporaries and the text held at once
_CSV_BLOCK_ROWS = 4096


def write_two_column_csv(path, header: str, first: np.ndarray, second: np.ndarray) -> None:
    """A header line, then one "a,b" row per pair, each number as "%.17g": at
    most 17 significant digits, trailing zeros dropped, read back exactly."""
    rows = np.column_stack([first, second])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            fh.write(_format_rows(rows[start:start + _CSV_BLOCK_ROWS], "%.17g", ",", "\n"))


def write_profile_csv(u: Profile, path) -> None:
    write_two_column_csv(path, "s,u", u.grid.nodes(), u.values)


def read_profile_csv(path) -> Profile:
    s, values = _read_two_column_csv(path, "u")
    if len(s) < 2:
        raise IngestionError("profile csv needs at least two nodes")
    if not math.isfinite(float(values.max()) - float(values.min())):
        raise IngestionError("profile csv values must span a finite range")
    grid = Grid(float(s[0]), float(s[-1]), len(s) - 1)
    tol = min(1e-9 * max(abs(s[0]), abs(s[-1])), 1e-2 * grid.h)
    if np.any(np.abs(s - grid.nodes()) > tol):
        raise IngestionError("profile csv must live on a uniform grid")
    return Profile(grid, values)


def _read_two_column_csv(path, value_name: str) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != 2 or rows[0][0].strip() != "s":
        raise IngestionError(f"expected a 's,{value_name}' header in {path}")
    for k, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise IngestionError(f"{path}: row {k} has {len(row)} fields, expected 2")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    except ValueError as exc:
        raise IngestionError(f"non-numeric data in {path}: {exc}") from None
    if len(data) == 0:
        raise IngestionError(f"{path} has no data rows")
    if not np.isfinite(data).all():
        raise IngestionError(f"non-finite data in {path}")
    return data[:, 0], data[:, 1]


# Exact vectorized "%.17g" and "%.3f".  |x| rounds to D * 10**-s with
# D = round-half-even(|x| * 10**s), computed exactly from Dekker's error-free
# product; D's integer part and its s-digit fraction are written 4 digits at
# a time from a table, and a 0 byte marks an absent character.
_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
_FIRST_AT = np.array([float(f"1e{k}") for k in range(-4, 18)])  # least x with exponent k
_CHARS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))  # 0000 .. 9999
_SEEN = np.logical_or.accumulate(_CHARS > ord("0"), axis=1)  # from the first nonzero digit on
_KEPT = [np.ones_like(_SEEN), _SEEN, _SEEN | (np.arange(4) == 3),  # all, no leading zeros, but 0
         np.logical_or.accumulate(_CHARS[:, ::-1] > ord("0"), axis=1)[:, ::-1]]  # no trailing zeros
_QUADS = np.ascontiguousarray(np.stack(_KEPT) * _CHARS).view(np.uint32).ravel()
_LEAD, _LEAD0, _TRIM = 10000, 20000, 30000  # offsets of the variants in _QUADS
# row s keeps the last s of 24 characters
_LAST = (np.uint8(255) * (np.arange(24) >= 24 - np.arange(21)[:, None])).view(np.uint32)


def _split(a):
    """Dekker's split: a == hi + lo exactly, each half with at most 26 bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _round_scaled(a: np.ndarray, s) -> np.ndarray:
    """round-half-even(a * 10**s) as exact int64, for a >= 0, 0 <= s <= 20 and
    a * 10**s below 2**52 or in [2**53, 2**62)."""
    a_hi, a_lo = _split(a)
    c_hi, c_lo = np.take(_POW10_HI, s), np.take(_POW10_LO, s)
    p = a * np.take(_POW10, s)
    e = ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo  # a * 10**s == p + e
    # below 2**52 |e| < 1/4, so only a half-way p is moved by e; from 2**53 on
    # p is even, so rint breaks a half-way e to even
    q = np.rint(p)
    d = q.astype(np.int64) + np.rint(e).astype(np.int64)
    d += (p - q == 0.5) & (e > 0)
    d -= (p - q == -0.5) & (e < 0)
    return d


def _put_quads(out: np.ndarray, v: np.ndarray, lead: bool, trim: bool) -> None:
    """Write v's last digits into out's uint32 columns, 4 characters to one, with
    leading zeros but a last 0 dropped (lead) or trailing zeros dropped (trim)."""
    below = True  # every group right of this one is 0
    for j in range(out.shape[1]):
        above = v // 10000
        q = v - above * 10000
        variant = (above == 0) * (_LEAD0 if j == 0 else _LEAD) if lead else below * _TRIM * trim
        out[:, -1 - j] = np.take(_QUADS, q + variant)
        below = below & (q == 0)
        v = above


def _format_rows(rows: np.ndarray, spec: str, sep: str, end: str) -> bytes:
    """Bytes of (spec + sep + spec + end) % row for each row of an (n, 2) array,
    spec "%.17g" or "%.3f".  Runs of rows with a number out of the exact range
    go through %: non-finite numbers, for %g those written with an exponent
    (nonzero below 1e-4 or from 1e17 on), and for %f those from 1e12 on."""
    g, x, fmt = spec == "%.17g", np.ravel(rows), spec + sep + spec + end
    a = np.abs(np.where(np.isnan(x), np.inf, x))
    ok = (a < 1e17) & ((a >= 1e-4) | (a == 0.0)) if g else a < 1e12
    guard = ~(ok[0::2] & ok[1::2])
    if guard.all():  # e.g. a profile of magnitude below 1e-4
        return (fmt * len(rows) % tuple(x.tolist())).encode()
    a = np.where(ok, a, 0.0)
    # |x| rounds to i + f * 10**-s, f < 10**s: s = 16 - E for %g, E the exponent
    s = 21 - np.maximum(np.searchsorted(_FIRST_AT, a, side="right"), 1) if g else 3
    d = _round_scaled(a, s)
    unit = np.take(_POW10_INT, np.minimum(s, 17))  # d < 10**17
    i = d // unit
    f = d - i * unit
    del a, d, unit
    # per number: the integer part, its first character left for the sign;
    # the fraction, the character before its s digits left for the point; sep or end
    int_end = -(-(len(str(int(i.max()))) + 1) // 4)
    frac_end = int_end - (-(int(np.max(s)) + 1) // 4)
    words = np.empty((len(rows), 2, frac_end + 1), np.uint32)
    words[:, :, -1] = np.frombuffer((sep.ljust(4, "\0") + end.ljust(4, "\0")).encode(), np.uint32)
    words = words.reshape(len(x), -1)
    _put_quads(words[:, :int_end], i, True, False)
    _put_quads(words[:, int_end:frac_end], f, False, g)
    words[:, int_end:frac_end] &= np.take(_LAST[:, int_end - frac_end:], s, axis=0)
    chars = words.view(np.uint8)
    chars[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    chars[:, 4 * int_end] = np.where((f != 0) | (not g), ord("."), 0)
    del s, i, f  # a block's arrays are freed before its text is copied
    text, pieces, start = words.reshape(len(rows), -1), [], 0
    for lo, hi in np.flatnonzero(np.diff(guard, prepend=False, append=False)).reshape(-1, 2):
        pieces += [text[start:lo].tobytes().translate(None, b"\0"),
                   (fmt * (hi - lo) % tuple(rows[lo:hi].ravel().tolist())).encode()]
        start = hi
    pieces.append(text[start:].tobytes().translate(None, b"\0"))
    return b"".join(pieces)
