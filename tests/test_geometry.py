"""Raster sets, vertical rearrangement, and the discrete phi-perimeter."""

import json
import re

import loop_reference
import numpy as np
import pytest

from anisocurve import (
    Anisotropy,
    RasterSet,
    column_heights,
    raster_phi_perimeter,
    read_raster,
    vertical_rearrangement,
    write_raster,
)

EUCLID = Anisotropy.euclidean()
SQUARE = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
ANISOS = [EUCLID, Anisotropy.lp(1.0), SQUARE, Anisotropy.ellipse(2.0, 0.5)]


def _subgraph(counts, ny, box=(-1.0, 1.0, 0.0, 1.0)):
    counts = np.asarray(counts)
    cells = np.arange(ny)[None, :] < counts[:, None]
    return RasterSet(*box, cells)


def test_rasterset_validation():
    with pytest.raises(ValueError):
        RasterSet(0, 1, 0, 1, np.zeros(4, dtype=bool))
    for empty in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="non-empty"):
            RasterSet(0, 1, 0, 1, np.zeros(empty, dtype=bool))
    with pytest.raises(ValueError):
        RasterSet(1, 1, 0, 1, np.zeros((2, 2), dtype=bool))


def test_rearrangement_fixes_subgraphs():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 9, 12)
    F = _subgraph(counts, 8)
    np.testing.assert_array_equal(vertical_rearrangement(F).cells, F.cells)


def test_rearrangement_disk_column_sums():
    R = 1.0
    n = 200
    xs = np.linspace(-1.5, 1.5, n + 1)
    ys = np.linspace(-1.5, 1.5, n + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    cells = cx[:, None] ** 2 + cy[None, :] ** 2 <= R**2
    F = RasterSet(-1.5, 1.5, -1.5, 1.5, cells)
    v = column_heights(vertical_rearrangement(F))
    chord = 2.0 * np.sqrt(np.maximum(R**2 - cx**2, 0.0))
    # within one cell height per column, measured from the box bottom
    assert np.max(np.abs(v - (-1.5 + chord))) <= F.dy + 1e-12


def test_rearrangement_bars_add():
    cells = np.zeros((4, 10), dtype=bool)
    cells[:, 1:3] = True  # bar of height 2 cells
    cells[:, 6:9] = True  # bar of height 3 cells
    F = RasterSet(0, 4, 0, 10, cells)
    v = column_heights(vertical_rearrangement(F))
    np.testing.assert_allclose(v, 5.0)


def test_rearrangement_idempotent_and_measure_preserving():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cells = rng.random((10, 10)) < 0.4
        F = RasterSet(0, 1, 0, 1, cells)
        G = vertical_rearrangement(F)
        np.testing.assert_array_equal(G.cells.sum(axis=1), F.cells.sum(axis=1))
        np.testing.assert_array_equal(vertical_rearrangement(G).cells, G.cells)


def test_perimeter_single_cell():
    one = RasterSet(0, 1, 0, 1, np.ones((1, 1), dtype=bool))
    assert raster_phi_perimeter(one, EUCLID) == pytest.approx(4.0)
    assert raster_phi_perimeter(one, SQUARE) == pytest.approx(4.0)


def test_perimeter_domino():
    dom = RasterSet(0, 2, 0, 1, np.ones((2, 1), dtype=bool))
    assert raster_phi_perimeter(dom, EUCLID) == pytest.approx(6.0)


def test_perimeter_scales_with_cell_size():
    one = RasterSet(0, 3, 0, 0.5, np.ones((1, 1), dtype=bool))
    assert raster_phi_perimeter(one, EUCLID) == pytest.approx(2 * 3.0 + 2 * 0.5)


def test_rearrangement_inequality_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(200):
        nx = int(rng.integers(2, 16))
        ny = int(rng.integers(2, 16))
        cells = rng.random((nx, ny)) < rng.uniform(0.2, 0.8)
        F = RasterSet(0, nx, 0, ny, cells)
        G = vertical_rearrangement(F)
        for aniso in ANISOS:
            assert raster_phi_perimeter(G, aniso) <= raster_phi_perimeter(F, aniso) + 1e-9
        np.testing.assert_array_equal(G.cells.sum(axis=1), cells.sum(axis=1))


def test_raster_io_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    cells = rng.random((7, 5)) < 0.5
    F = RasterSet(-2.0, 1.0, 0.5, 3.5, cells)
    path = tmp_path / "set.raster"
    write_raster(F, path)
    G = read_raster(path)
    np.testing.assert_array_equal(G.cells, F.cells)
    assert (G.x_min, G.x_max, G.y_min, G.y_max) == (-2.0, 1.0, 0.5, 3.5)


@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (5, 7)])
def test_raster_file_matches_per_row_formatting(tmp_path, shape):
    cells = np.random.default_rng(shape[0]).random(shape) < 0.5
    cells[0, 0] = True
    path = tmp_path / "set.raster"
    write_raster(RasterSet(-2.0, 1.0, 0.5, 3.5, cells), path)
    header = json.dumps({"box": [-2.0, 1.0, 0.5, 3.5], "nx": shape[0], "ny": shape[1]})
    rows = [" ".join("1" if c else "0" for c in row) for row in cells.T[::-1].tolist()]
    assert path.read_bytes() == "\n".join([header, *rows, ""]).encode()
    np.testing.assert_array_equal(read_raster(path).cells, cells)


# separators within a row, and those that str.splitlines also reads as row breaks
ROW_BLANKS = [" ", "\t", "\x1f", "\xa0", "\u3000"]
LINE_BLANKS = ["\n", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


def _raster_text(rng, nx, ny):
    """A raster file with random separators: mostly well formed, sometimes with a
    bad token, a missing or extra cell, two cells fused, a separator that is no
    blank, a blank line or a line break inside a row, and blanks around the body."""
    def blanks(choices, most):
        return "".join(rng.choice(choices, size=int(rng.integers(1, most + 1))))

    rows = []
    for _ in range(ny):
        cells = [str(c) for c in rng.integers(0, 2, nx)]
        seps = [blanks(ROW_BLANKS, 3) for _ in cells]
        flaw, j = rng.random(), int(rng.integers(nx))
        if flaw < 0.02:
            cells[j] = str(rng.choice(["2", "x", "01", "10", "11", "0.", "\u0661"]))
        elif flaw < 0.03:
            del cells[j]
        elif flaw < 0.04:
            cells.insert(j, str(rng.integers(0, 2)))
            seps.insert(j, " ")
        elif flaw < 0.05:
            seps[j] = ""
        elif flaw < 0.06:
            seps[j] = str(rng.choice(["x", ",", "\xe9", "\u0661", "\u200b"]))
        row = "".join(cell + sep for cell, sep in zip(cells, seps))
        if rng.random() < 0.01:
            cut = int(rng.integers(len(row) + 1))
            row = row[:cut] + str(rng.choice(LINE_BLANKS)) + row[cut:]
        rows.append(blanks(ROW_BLANKS, 2) * (rng.random() < 0.3) + row)
    breaks = [blanks(LINE_BLANKS, 1) + "\n" * (rng.random() < 0.01) for _ in rows]
    header = json.dumps({"box": [0, 1, 0, 1], "nx": nx, "ny": ny})
    return (blanks(ROW_BLANKS + LINE_BLANKS, 2) * (rng.random() < 0.3) + header
            + "".join(b + row for b, row in zip(breaks, rows)) + blanks(LINE_BLANKS, 3))


def test_raster_read_matches_the_per_row_reader(tmp_path):
    rng = np.random.default_rng(28)
    path = tmp_path / "set.raster"
    outcomes = set()
    for _ in range(250):
        nx, ny = (int(k) for k in rng.integers(1, 24, 2))
        path.write_bytes(_raster_text(rng, nx, ny).encode())
        try:
            expected = loop_reference.read_raster(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_raster(path)
            assert str(info.value) == str(exc)
            outcomes.add(str(exc).split(":")[1].split()[0])
            continue
        np.testing.assert_array_equal(read_raster(path).cells, expected.cells)
        outcomes.add("read")
    assert outcomes == {"read", "row", "expected"}


def test_raster_read_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.raster"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_raster(empty)
    short = tmp_path / "short.raster"
    short.write_text('{"box": [0, 1, 0, 1], "nx": 2, "ny": 2}\n1 0\n')
    with pytest.raises(ValueError):
        read_raster(short)
    ragged = tmp_path / "ragged.raster"
    ragged.write_text('{"box": [0, 1, 0, 1], "nx": 2, "ny": 1}\n1 0 1\n')
    with pytest.raises(ValueError):
        read_raster(ragged)
    for token in ("10", "01"):
        fused = tmp_path / f"fused{token}.raster"
        fused.write_text('{"box": [0, 1, 0, 1], "nx": 2, "ny": 2}\n1 0\n' f"{token} 1\n")
        message = f"{fused}: row 1 has cell '{token}', expected 0 or 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_raster(fused)
    # any run of blanks separates the cells of a row
    spaced = tmp_path / "spaced.raster"
    spaced.write_text('{"box": [0, 1, 0, 1], "nx": 3, "ny": 2}\n1\t0  0\n 0 \t1\t1 \n')
    np.testing.assert_array_equal(read_raster(spaced).cells, [[0, 1], [1, 0], [1, 0]])
