"""Discrete energy, datum sampling, truncation and profile I/O tests."""

import math
import warnings

import numpy as np
import pytest

from anisocurve import (
    Anisotropy,
    Grid,
    GSpec,
    Profile,
    energy,
    read_profile_csv,
    truncate,
    write_profile_csv,
)
from anisocurve.energy import (_FIRST_AT, IngestionError, _format_rows, energy_totals,
                               write_two_column_csv)
from anisocurve import reference as ref

EUCLID = Anisotropy.euclidean()


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)


def test_grid_rejects_non_finite_bounds_and_non_integer_cells():
    for bounds in ((-1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            Grid(*bounds, 4)
    for n in (2.7, 4.0, True, "4", None):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, n)
    assert Grid(0.0, 1.0, np.int64(4)).n_cells == 4


def test_grid_rejects_a_cell_width_that_leaves_the_floats():
    # the length 2e308 overflows to inf; 5e-324 / 2 rounds to a width of 0
    for bounds, n in (((-1e308, 1e308), 4), ((0.0, 5e-324), 2)):
        with pytest.raises(ValueError, match="cell width"):
            Grid(*bounds, n)


def test_datum_rejects_a_non_finite_height():
    with pytest.raises(ValueError):
        GSpec.step(math.nan)


def test_profile_validation():
    grid = Grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Profile(grid, np.zeros(2))
    with pytest.raises(ValueError):
        Profile(grid, np.array([0.0, np.nan, 0.0]))


# -- GSpec.sample -------------------------------------------------------


def test_sample_constant():
    g = GSpec.constant(0.5).sample(Grid(-1, 1, 8))
    np.testing.assert_allclose(g, 0.5)


def test_sample_step_averages_at_discontinuity():
    g = GSpec.step(2.0).sample(Grid(-1, 1, 4))
    np.testing.assert_allclose(g, [-2.0, -2.0, 0.0, 2.0, 2.0])


def test_sample_csv_linear(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("s,g\n-1,0\n1,1\n")
    g = GSpec.csv(path).sample(Grid(-1, 1, 2))
    np.testing.assert_allclose(g, [0.0, 0.5, 1.0])


def test_sample_csv_piecewise_constant(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("s,g\n-1,3\n0,7\n1,7\n")
    g = GSpec.csv(path, interp="piecewise-constant").sample(Grid(-1, 1, 4))
    np.testing.assert_allclose(g, [3.0, 3.0, 7.0, 7.0, 7.0])


def test_sample_csv_must_cover_interval(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("s,g\n-0.5,0\n0.5,1\n")
    with pytest.raises(IngestionError):
        GSpec.csv(path).sample(Grid(-1, 1, 2))


def test_csv_rejects_nonincreasing_abscissae(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("s,g\n0,0\n0,1\n")
    with pytest.raises(IngestionError):
        GSpec.csv(path)


# -- energy -------------------------------------------------------------


def test_flat_profile_energy_is_interval_length():
    grid = Grid(-1, 1, 17)
    u = Profile(grid, np.zeros(18))
    e = energy(EUCLID, u, np.zeros(18), 1.0)
    assert e.area == pytest.approx(2.0, abs=1e-12)
    assert e.fidelity == 0.0
    assert e.total == e.area + e.fidelity


@pytest.mark.parametrize("shifts", [(0.0, 0.0), (1.0, -1.0)])
def test_golden_arc_pair_energy(shifts):
    a, b = shifts
    grid = Grid(-1, 1, 4096)
    g = GSpec.step(2.0).sample(grid)
    u = ref.sample_profile(grid, ref.arc_pair_profile, a, b)
    total = energy(EUCLID, u, g, 1.0).total
    assert total == pytest.approx(4.0 + math.pi / 2.0, abs=5e-2)


def test_golden_energy_error_halves_under_refinement():
    target = 4.0 + math.pi / 2.0
    errs = {}
    for n in (1024, 4096):
        grid = Grid(-1, 1, n)
        g = GSpec.step(2.0).sample(grid)
        u = ref.sample_profile(grid, ref.arc_pair_profile, 0.0, 0.0)
        errs[n] = abs(energy(EUCLID, u, g, 1.0).total - target)
    assert errs[1024] >= 2.0 * errs[4096]


def test_energy_rejects_p_below_one():
    grid = Grid(0, 1, 2)
    u = Profile(grid, np.zeros(3))
    with pytest.raises(ValueError):
        energy(EUCLID, u, np.zeros(3), 0.5)


def test_energy_rejects_a_datum_of_the_wrong_shape():
    u = Profile(Grid(0, 1, 2), np.zeros(3))
    with pytest.raises(ValueError, match="datum samples must match the profile nodes"):
        energy(EUCLID, u, np.zeros(4), 1.0)


@pytest.mark.parametrize("a", [0.0, 1.0, -0.5, math.nan])
def test_c11_minimizer_needs_a_step_height_in_the_unit_interval(a):
    with pytest.raises(ValueError, match="0 < a < 1"):
        ref.c11_minimizer(np.zeros(3), a)


@pytest.mark.parametrize("aniso", [EUCLID, Anisotropy.ellipse(2.0, 0.5), Anisotropy.lp(3.0),
                                   Anisotropy.lp(1.0)])
def test_energy_and_energy_totals_agree_bitwise(aniso):
    rng = np.random.default_rng(5)
    grid = Grid(-1, 1, 37)
    g = rng.uniform(-1, 1, 38)
    rows = rng.uniform(-1, 1, (6, 38))
    for p in (1.0, 1.5, 2.0):
        totals = energy_totals(aniso, rows, g, p, grid)
        for row, total in zip(rows, totals):
            assert energy(aniso, Profile(grid, row), g, p).total == total


def test_energy_convexity():
    rng = np.random.default_rng(12)
    grid = Grid(-1, 1, 32)
    g = rng.uniform(-1, 1, 33)
    for p in (1.0, 1.5, 2.0):
        for _ in range(20):
            u = rng.uniform(-1, 1, 33)
            v = rng.uniform(-1, 1, 33)
            lam = float(rng.random())
            eu = energy(EUCLID, Profile(grid, u), g, p).total
            ev = energy(EUCLID, Profile(grid, v), g, p).total
            mix = energy(EUCLID, Profile(grid, lam * u + (1 - lam) * v), g, p).total
            assert mix <= lam * eu + (1 - lam) * ev + 1e-9


def test_truncate_examples():
    grid = Grid(0, 1, 2)
    u = Profile(grid, np.array([-3.0, 0.0, 3.0]))
    np.testing.assert_allclose(truncate(u, -1.0, 1.0).values, [-1.0, 0.0, 1.0])
    inside = Profile(grid, np.array([0.1, 0.2, 0.3]))
    np.testing.assert_allclose(truncate(inside, -1.0, 1.0).values, inside.values)
    with pytest.raises(ValueError):
        truncate(u, 1.0, -1.0)


def test_truncation_never_increases_energy():
    rng = np.random.default_rng(7)
    grid = Grid(-1, 1, 48)
    for aniso in (EUCLID, Anisotropy.lp(1.0),
                  Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])):
        for p in (1.0, 2.0):
            g = rng.uniform(-0.8, 0.6, 49)
            lo = -float(np.max(np.maximum(-g, 0.0)))
            hi = float(np.max(np.maximum(g, 0.0)))
            for _ in range(10):
                u = Profile(grid, rng.uniform(-2.0, 2.0, 49))
                before = energy(aniso, u, g, p).total
                after = energy(aniso, truncate(u, lo, hi), g, p).total
                assert after <= before + 1e-12


def test_mesh_consistency_smooth_profile():
    diffs = []
    prev = None
    for n in (128, 256, 512):
        grid = Grid(-1, 1, n)
        u = Profile(grid, np.sin(2.0 * grid.nodes()))
        g = np.zeros(n + 1)
        total = energy(EUCLID, u, g, 2.0).total
        if prev is not None:
            diffs.append(abs(total - prev))
        prev = total
    assert diffs[1] <= 0.75 * diffs[0]


def test_jump_consistency_unit_step():
    # area -> phi°(0,1)*|I| + phi°(e1)*1 as the grid refines
    target = 2.0 + 1.0
    errs = []
    for n in (64, 128, 256):
        grid = Grid(-1, 1, n)
        vals = np.where(grid.nodes() > 0, 1.0, 0.0)
        u = Profile(grid, vals)
        errs.append(abs(energy(EUCLID, u, np.zeros(n + 1), 1.0).area - target))
    assert errs[-1] < errs[0]
    assert errs[-1] < 10.0 / 256.0


def test_profile_csv_round_trip(tmp_path):
    grid = Grid(-1, 1, 9)
    u = Profile(grid, np.linspace(-0.3, 0.7, 10) ** 3)
    path = tmp_path / "u.csv"
    write_profile_csv(u, path)
    v = read_profile_csv(path)
    assert v.grid == u.grid
    np.testing.assert_array_equal(v.values, u.values)


# the %g exponent switch on both sides, signed zero, the least subnormal
CSV_VALUES = [-0.0, 5e-324, 1e-5, 1e-4, 0.1, math.pi, 1e16, 1e17]


@pytest.mark.parametrize("rows", [0, 1, 8192, 8193])
def test_two_column_csv_matches_per_row_formatting(tmp_path, rows):
    rng = np.random.default_rng(rows)
    first = np.resize(CSV_VALUES, rows)
    second = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    path = tmp_path / "pairs.csv"
    write_two_column_csv(path, "x,y", first, second)
    rows_text = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(first.tolist(), second.tolist()))
    assert path.read_bytes() == ("x,y\n" + rows_text).encode()


# exact ties at the last digit kept, carries to the next power of ten, the
# %g exponent switch and the least number of each exponent with its
# neighbours, signed zeros, subnormals and the other specials
_THRESHOLDS = np.concatenate([[1e-4, 1e17], _FIRST_AT])
FORMAT_EDGES = np.concatenate([
    [1234567890123456.75, 10.0625, 10.1875, 0.0625, 0.5, 2.5, 0.0005, 0.0015, 999.9995,
     9999999.9995, 9.9999999999999999e-5, 99999999999999999.0, 99999999999999984.0, 1e12,
     0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan],
    _THRESHOLDS, np.nextafter(_THRESHOLDS, 0.0), np.nextafter(_THRESHOLDS, math.inf),
])


def _format_values(rng, n):
    """Edge values and their negatives among uniform, log-spaced, dyadic and
    short decimal values and exact ties of either format, shuffled."""
    values = np.concatenate([
        FORMAT_EDGES, -FORMAT_EDGES,
        rng.uniform(-700.0, 700.0, n),
        10.0 ** rng.uniform(-6.0, 19.0, n),
        rng.integers(-2**52, 2**52, n) / 2.0 ** rng.integers(0, 70, n),
        rng.integers(0, 10**12, n) / 10.0 ** rng.integers(0, 20, n),
        (2 * rng.integers(0, 2**20, n) + 1) / 16.0,  # x * 1000 is half an odd integer
        (2 * rng.integers(2**51, 2**52, n) + 1) / 4.0,  # so is x * 10, with 17 digits before
    ])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("spec, sep, end", [("%.17g", ",", "\n"), ("%.3f", " ", " L ")])
def test_formatter_writes_the_bytes_of_percent(spec, sep, end):
    rng = np.random.default_rng(7)
    values = _format_values(rng, 20000)
    # runs of numbers out of the exact range at both ends and inside
    values = np.concatenate([[math.nan, 1e-300, 1e300], values, [-math.inf]])
    rows = values[:len(values) // 2 * 2].reshape(-1, 2)
    fmt = spec + sep + spec + end
    for block in (rows, rows[:2]):  # no row of rows[:2] is in the exact range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = _format_rows(block, spec, sep, end)
        assert text == "".join(fmt % (a, b) for a, b in block.tolist()).encode()


@pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193, 16385])
def test_two_column_csv_matches_per_row_formatting_at_the_edges(tmp_path, rows):
    values = np.resize(_format_values(np.random.default_rng(rows), 4000), 2 * rows)
    path = tmp_path / "pairs.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_two_column_csv(path, "x,y", values[0::2], values[1::2])
    rows_text = "".join("%.17g,%.17g\n" % tuple(pair) for pair in values.reshape(-1, 2).tolist())
    assert path.read_bytes() == ("x,y\n" + rows_text).encode()


def test_profile_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("s,u\n0,0\n0.5,0\n2,0\n")
    with pytest.raises(IngestionError):
        read_profile_csv(path)


# -- grid inputs at every scale -------------------------------------------


@pytest.mark.parametrize("k", [-1000, -200, -60, 0, 60, 200, 1000])
def test_step_sample_reads_the_jump_off_the_node_index(k):
    grid = Grid(-(2.0**k), 2.0**k, 4)
    np.testing.assert_array_equal(GSpec.step(0.5).sample(grid), [-0.5, -0.5, 0.0, 0.5, 0.5])
    g = GSpec.step(-0.3).sample(grid)
    np.testing.assert_array_equal(g, [0.3, 0.3, 0.0, -0.3, -0.3])
    assert not np.signbit(g[2])  # the middle node is +0.0 for either sign of a


def _unit_nodes_moved(k, by):
    s = Grid(-1, 1, 8).nodes()
    s[k] += by
    return s


# abscissae at unit size, and whether they form a uniform grid
CSV_FAMILIES = {
    "uniform": (Grid(-1, 1, 8).nodes(), True),
    "offset": (Grid(3, 3.5, 10).nodes(), True),
    "moved-5e-10": (_unit_nodes_moved(3, 5e-10), True),
    "moved-2e-9": (_unit_nodes_moved(3, 2e-9), False),
    "tiny": (np.array([0.0, 1e-12, 5e-12]), False),
}


@pytest.mark.parametrize("family", CSV_FAMILIES)
def test_profile_csv_decision_does_not_depend_on_scale(tmp_path, family):
    s, uniform = CSV_FAMILIES[family]
    path = tmp_path / "u.csv"
    for k in range(-900, 901):
        write_two_column_csv(path, "s,u", s * 2.0**k, np.zeros(len(s)))
        try:
            read_profile_csv(path)
            accepted = True
        except IngestionError:
            accepted = False
        assert accepted == uniform, k


@pytest.mark.parametrize("fraction", [0.02, 0.4])
def test_profile_csv_at_an_offset_reads_its_writings_and_rejects_a_moved_node(tmp_path, fraction):
    # nodes 1e6 + k h with h = 1e-3, where 1e-9 |s| alone would allow a whole cell
    path = tmp_path / "u.csv"
    for fmt in (".17g", ".10f"):
        path.write_text("s,u\n" + "".join(f"{1e6 + 1e-3 * k:{fmt}},0\n" for k in range(9)))
        assert read_profile_csv(path).grid.h == pytest.approx(1e-3, rel=1e-6)
    s = 1e6 + 1e-3 * np.arange(9)
    s[4] += fraction * 1e-3
    write_two_column_csv(path, "s,u", s, np.zeros(9))
    with pytest.raises(IngestionError, match="uniform grid"):
        read_profile_csv(path)


def test_sample_csv_coverage_is_relative_to_the_interval(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("s,g\n0,0\n5e-14,1\n")
    with pytest.raises(IngestionError, match="csv covers"):
        GSpec.csv(path).sample(Grid(0.0, 1e-13, 4))


def test_sample_csv_coverage_at_an_offset_is_below_a_cell(tmp_path):
    # [1e6, 1e6 + 1e-3] in 1000 cells: 1e-12 of the offset is a whole cell h
    grid = Grid(1e6, 1e6 + 1e-3, 1000)
    path = tmp_path / "g.csv"
    write_two_column_csv(path, "s,g", grid.nodes()[[0, -1]], np.array([0.0, 1.0]))
    assert GSpec.csv(path).sample(grid).shape == (1001,)
    write_two_column_csv(path, "s,g", grid.nodes()[[1, -2]], np.array([0.0, 1.0]))
    with pytest.raises(IngestionError, match="csv covers"):
        GSpec.csv(path).sample(grid)


@pytest.mark.parametrize("k", [-300, -40, 0, 40, 300])
def test_sample_csv_coverage_does_not_depend_on_scale(tmp_path, k):
    grid = Grid(-(2.0**k), 2.0**k, 4)
    path = tmp_path / "g.csv"
    write_two_column_csv(path, "s,g", np.array([-1.0, 1.0]) * 2.0**k, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(GSpec.csv(path).sample(grid), [0.0, 0.25, 0.5, 0.75, 1.0])
    write_two_column_csv(path, "s,g", np.array([-0.5, 0.5]) * 2.0**k, np.array([0.0, 1.0]))
    with pytest.raises(IngestionError, match="csv covers"):
        GSpec.csv(path).sample(grid)
