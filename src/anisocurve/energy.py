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

from .anisotropy import Anisotropy

__all__ = [
    "Grid",
    "Profile",
    "GSpec",
    "EnergyBreakdown",
    "sample_g",
    "energy",
    "energy_totals",
    "truncate",
    "trapezoid_weights",
    "read_profile_csv",
    "write_profile_csv",
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
        if not self.x_min < self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if self.n_cells < 1:
            raise ValueError("grid requires n_cells >= 1")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    def refine(self, factor: int = 2) -> "Grid":
        return Grid(self.x_min, self.x_max, self.n_cells * factor)


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


@dataclass(frozen=True)
class GSpec:
    """Datum g: constant c, a two-level step of height a, or a CSV table.

    ``step(a)`` is +a on the right half of the interval and -a on the
    left half; a node landing exactly on the discontinuity receives the
    average of the one-sided limits.
    """

    kind: str
    c: float = 0.0
    a: float = 0.0
    path: Optional[str] = None
    interp: str = "linear"
    _table: Optional[tuple] = field(default=None, repr=False, compare=False)

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
        kind = descriptor.get("kind")
        if kind == "constant":
            return cls.constant(descriptor["c"])
        if kind == "step":
            return cls.step(descriptor["a"])
        if kind == "csv":
            return cls.csv(descriptor["path"], descriptor.get("interp", "linear"))
        raise IngestionError(f"unknown g kind {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        if self.kind == "step":
            return {"kind": "step", "a": self.a}
        return {"kind": "csv", "path": self.path, "interp": self.interp}

    def sample(self, grid: Grid) -> np.ndarray:
        nodes = grid.nodes()
        if self.kind == "constant":
            return np.full(len(nodes), self.c)
        if self.kind == "step":
            mid = 0.5 * (grid.x_min + grid.x_max)
            g = np.where(nodes > mid, self.a, -self.a)
            g[np.abs(nodes - mid) <= 1e-15 * max(1.0, abs(mid))] = 0.0
            return g
        s, gv = self._table
        if s[0] > grid.x_min + 1e-12 or s[-1] < grid.x_max - 1e-12:
            raise IngestionError(
                f"csv covers [{s[0]}, {s[-1]}], needs [{grid.x_min}, {grid.x_max}]"
            )
        if self.interp == "linear":
            return np.interp(nodes, s, gv)
        idx = np.clip(np.searchsorted(s, nodes, side="right") - 1, 0, len(s) - 1)
        return gv[idx]


def sample_g(gspec: GSpec, grid: Grid) -> np.ndarray:
    """Nodal samples of the datum g on the grid."""
    return gspec.sample(grid)


def check_fidelity_exponent(p: float) -> None:
    """Raise ValueError unless p is a finite number >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"fidelity exponent must be a finite number p >= 1, got {p}")


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_cells + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def energy(aniso: Anisotropy, u: Profile, g: np.ndarray, p: float) -> EnergyBreakdown:
    """Area/fidelity decomposition of the discrete functional."""
    check_fidelity_exponent(p)
    g = np.asarray(g, dtype=float)
    if g.shape != u.values.shape:
        raise ValueError("datum samples must match the profile nodes")
    h = u.grid.h
    du = u.edge_differences()
    pairs = np.column_stack([-du, np.full(len(du), h)])
    area = float(np.sum(aniso.eval_dual_many(pairs)))
    w = trapezoid_weights(u.grid)
    fidelity = float(np.sum(w * np.abs(u.values - g) ** p))
    return EnergyBreakdown(area=area, fidelity=fidelity)


def energy_totals(
    aniso: Anisotropy, candidates: np.ndarray, g: np.ndarray, p: float, grid: Grid
) -> np.ndarray:
    """Total energy of many nodal-value rows at once (oracle work-horse)."""
    check_fidelity_exponent(p)
    candidates = np.asarray(candidates, dtype=float)
    h = grid.h
    du = np.diff(candidates, axis=1)
    pairs = np.stack([-du, np.full_like(du, h)], axis=-1)
    area = aniso.eval_dual_many(pairs).sum(axis=1)
    w = trapezoid_weights(grid)
    fidelity = (w[None, :] * np.abs(candidates - g[None, :]) ** p).sum(axis=1)
    return area + fidelity


def truncate(u: Profile, lo: float, hi: float) -> Profile:
    """Nodal clamp of u to [lo, hi] (the maximum-principle engine)."""
    if lo > hi:
        raise ValueError("truncate requires lo <= hi")
    return Profile(u.grid, np.clip(u.values, lo, hi))


# -- profile CSV round-trip ("s,u", 17 significant digits) -------------


def write_profile_csv(u: Profile, path) -> None:
    nodes = u.grid.nodes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "u"])
        for s, v in zip(nodes, u.values):
            writer.writerow([f"{s:.17g}", f"{v:.17g}"])


def read_profile_csv(path) -> Profile:
    s, values = _read_two_column_csv(path, "u")
    if len(s) < 2:
        raise IngestionError("profile csv needs at least two nodes")
    h = np.diff(s)
    if np.any(np.abs(h - h[0]) > 1e-9 * max(abs(s[0]), abs(s[-1]), 1.0)):
        raise IngestionError("profile csv must live on a uniform grid")
    grid = Grid(float(s[0]), float(s[-1]), len(s) - 1)
    return Profile(grid, values)


def _read_two_column_csv(path, value_name: str) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != 2 or rows[0][0].strip() != "s":
        raise IngestionError(f"expected a 's,{value_name}' header in {path}")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    except ValueError as exc:
        raise IngestionError(f"non-numeric data in {path}: {exc}") from None
    if len(data) == 0:
        raise IngestionError(f"{path} has no data rows")
    return data[:, 0], data[:, 1]
