"""Cell-exact planar raster sets, vertical rearrangement, phi-perimeter.

Raster sets are unions of closed grid cells (polyominoes), so the
rearrangement inequality and the column-measure preservation hold
exactly, with no quadrature tolerance: stacking each column to the
bottom preserves the per-column cell count and cannot increase the
phi-perimeter of a partially monotone gauge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anisotropy import Anisotropy, check_keys, finite_number, positive_integer

__all__ = [
    "RasterSet",
    "vertical_rearrangement",
    "column_heights",
    "raster_phi_perimeter",
    "read_raster",
    "write_raster",
]


@dataclass(frozen=True)
class RasterSet:
    """Boolean cell matrix over an axis-aligned box; cells[i, j] is the
    cell in column i (x direction), row j (y direction, bottom up)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=bool)
        if cells.ndim != 2 or 0 in cells.shape:
            raise ValueError("cells must be a non-empty 2-d boolean matrix")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate raster box")
        object.__setattr__(self, "cells", cells)

    @property
    def nx(self) -> int:
        return self.cells.shape[0]

    @property
    def ny(self) -> int:
        return self.cells.shape[1]

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny


def column_heights(raster: RasterSet) -> np.ndarray:
    """y_min + dy * (cells per column): the rearranged column tops."""
    return raster.y_min + raster.dy * raster.cells.sum(axis=1)


def vertical_rearrangement(raster: RasterSet) -> RasterSet:
    """Stack every column to the bottom of the box (measure preserving)."""
    counts = raster.cells.sum(axis=1)
    rows = np.arange(raster.ny)
    stacked = rows[None, :] < counts[:, None]
    return RasterSet(raster.x_min, raster.x_max, raster.y_min, raster.y_max, stacked)


def raster_phi_perimeter(raster: RasterSet, aniso: Anisotropy) -> float:
    """Sum of phi°(outward axis normal) * length over exposed cell edges.

    Exact for polyomino sets; box-boundary edges of in-cells count as
    exposed (the set is measured in the whole plane).
    """
    cells = raster.cells
    padded = np.pad(cells, 1, constant_values=False)
    # exposed vertical edges have outward normal +-e1 and length dy
    right = cells & ~padded[2:, 1:-1]
    left = cells & ~padded[:-2, 1:-1]
    up = cells & ~padded[1:-1, 2:]
    down = cells & ~padded[1:-1, :-2]
    phi_e1 = aniso.eval_dual(np.array([1.0, 0.0]))
    phi_e2 = aniso.eval_dual(np.array([0.0, 1.0]))
    vertical = (int(right.sum()) + int(left.sum())) * raster.dy * phi_e1
    horizontal = (int(up.sum()) + int(down.sum())) * raster.dx * phi_e2
    return vertical + horizontal


# -- I/O: one-line JSON header + PBM-style 0/1 rows --------------------


def write_raster(raster: RasterSet, path) -> None:
    header = {
        "box": [raster.x_min, raster.x_max, raster.y_min, raster.y_max],
        "nx": raster.nx,
        "ny": raster.ny,
    }
    # rows from the top of the box down, like an image: each cell's digit
    # followed by a space, the last one by the row's newline
    text = np.full((raster.ny, 2 * raster.nx), ord(" "), dtype=np.uint8)
    text[:, 0::2] = raster.cells.T[::-1] + np.uint8(ord("0"))
    text[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(text.tobytes())


_CELLS = frozenset("01")


def read_raster(path) -> RasterSet:
    """Read a raster file; ValueError on any malformed header field or cell."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header must be a JSON object")
    check_keys(header, ("box", "nx", "ny"), f"{path}: raster header")
    nx, ny = (positive_integer(header[key], f"raster {key}") for key in ("nx", "ny"))
    box = header["box"]
    if not isinstance(box, list) or len(box) != 4:
        raise ValueError(f"{path}: box must be a list of four numbers")
    # RasterSet rejects a box with min >= max
    x_min, x_max, y_min, y_max = (finite_number(v, "raster box bound") for v in box)
    if len(lines) - 1 != ny:
        raise ValueError(f"{path}: expected {ny} grid rows, found {len(lines) - 1}")
    # one pass over the whole body: it holds only the digits 0 and 1 and blanks,
    # no two digits touch, and nx digits precede the first row break, 2 nx the
    # second, and so on; then each digit is a cell.  In UTF-8 the bytes of a
    # character past ASCII are all above 127, so the bytes below 128 are the
    # ASCII characters and those above spell the others.
    body = "\n".join(lines[1:])
    text = np.frombuffer(body.encode(), dtype=np.uint8)
    digit = (text == ord("0")) | (text == ord("1"))
    wide = text >= 128
    blank = ((text >= 9) & (text <= 13)) | ((text >= 28) & (text <= 32))  # ASCII whitespace
    cells = np.flatnonzero(digit)
    breaks = np.flatnonzero(text == ord("\n"))
    fits = ((digit | blank | wide).all()
            and (not wide.any() or text[wide].tobytes().decode().isspace())
            and not (digit[1:] & digit[:-1]).any()
            and len(cells) == nx * ny
            and (cells.searchsorted(breaks) == nx * np.arange(1, ny)).all())
    if not fits:
        _reject_rows(path, lines[1:], nx)
    # file row k, counted from the top, is grid row ny - 1 - k
    grid = text[cells].reshape(ny, nx)
    return RasterSet(x_min, x_max, y_min, y_max, (grid == ord("1"))[::-1].T)


def _reject_rows(path: Path, rows: list, nx: int) -> None:
    """ValueError naming the first row with a cell count other than nx or a
    cell other than 0 or 1, and that cell."""
    for k, line in enumerate(rows):
        row = line.split()
        if len(row) != nx:
            raise ValueError(f"{path}: row {k} has {len(row)} entries, expected {nx}")
        if not _CELLS.issuperset(row):
            bad = next(tok for tok in row if tok not in _CELLS)
            raise ValueError(f"{path}: row {k} has cell {bad!r}, expected 0 or 1")
    raise AssertionError("the whole-body check rejected rows that each pass")
