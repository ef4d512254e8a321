"""End-to-end command line tests driven through main(argv)."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisocurve import (Anisotropy, GSpec, Grid, Profile, RasterSet, SolverDivergenceError, energy,
                        sigma_threshold, write_raster)
from anisocurve import cli
from anisocurve.anisotropy import anisotropy_from_json
from anisocurve.cli import EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, _Run, main


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def euclid_json(tmp_path):
    return _write_json(tmp_path / "aniso.json", {"kind": "euclidean"})


def _problem_payload(**overrides):
    payload = {
        "anisotropy": {"kind": "euclidean"},
        "interval": [-1.0, 1.0],
        "p": 1.0,
        "g": {"kind": "step", "a": 0.05},
        "grid": {"n": 128},
        "solver": {"max_iters": 4000},
    }
    payload.update(overrides)
    return payload


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_wulff_command(tmp_path, euclid_json):
    out = tmp_path / "out"
    rc = main(["wulff", euclid_json, "--samples", "512", "--svg",
               "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "wulff.json").read_text())
    assert report["measures"]["alpha0"] == pytest.approx(0.26130111, abs=1e-5)
    boundary = (out / "wulff_boundary.csv").read_text().splitlines()
    assert boundary[0] == "x,y"
    assert len(boundary) == 513
    assert (out / "wulff.svg").read_text().startswith("<svg")
    man = _manifest(out)
    assert man["command"] == "wulff"
    assert set(man["artifacts"]) == {"wulff.json", "wulff_boundary.csv", "wulff.svg"}
    assert man["python"].count(".") == 2 and man["numpy"] == np.__version__
    assert isinstance(man["platform"], str) and man["platform"]
    assert isinstance(man["cpu_count"], int) and man["cpu_count"] >= 1
    assert set(man["wall_time_s"]) == {"geometry", "emit"}


def test_successive_calls_share_no_parsed_state(tmp_path, euclid_json):
    # the parser is built once per process; each call parses its own flags
    with_svg, without = tmp_path / "with", tmp_path / "without"
    assert main(["wulff", euclid_json, "--samples", "64", "--svg",
                 "--out-dir", str(with_svg), "--quiet"]) == EXIT_OK
    assert main(["wulff", euclid_json, "--out-dir", str(without), "--quiet"]) == EXIT_OK
    assert (with_svg / "wulff.svg").is_file() and not (without / "wulff.svg").exists()
    assert _manifest(with_svg)["config"] == {"samples": 64, "svg": True}
    assert _manifest(without)["config"] == {"samples": 65536, "svg": False}
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_the_command_bound_at_call_time(tmp_path, euclid_json, monkeypatch):
    # a cached parser must not hold the command functions, so that a wrapper
    # bound to cmd_<name> after the first call is the one that runs
    assert main(["wulff", euclid_json, "--samples", "64", "--out-dir", str(tmp_path / "a"),
                 "--quiet"]) == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_wulff", lambda args: seen.append(args.samples))
    assert main(["wulff", euclid_json, "--samples", "32", "--out-dir", str(tmp_path / "b"),
                 "--quiet"]) == EXIT_OK
    assert seen == [32] and not (tmp_path / "b").exists()


def test_threshold_command(tmp_path, euclid_json):
    out = tmp_path / "out"
    rc = main(["threshold", euclid_json, "--p", "1", "--length", "2",
               "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    assert report["sigma"] == pytest.approx(0.06533, abs=1e-4)
    assert "lambda" in report
    assert set(_manifest(out)["wall_time_s"]) == {"compute", "emit"}


def test_solve_then_classify(tmp_path, euclid_json):
    prob = _write_json(tmp_path / "prob.json", _problem_payload())
    out = tmp_path / "solve"
    rc = main(["solve", prob, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"]
    assert report["method"] == "newton"
    assert report["energy"]["total"] == pytest.approx(
        report["energy"]["area"] + report["energy"]["fidelity"])
    assert b"\r" not in (out / "profile.csv").read_bytes()
    assert set(_manifest(out)["wall_time_s"]) == {"solve", "emit"}

    out2 = tmp_path / "classify"
    rc = main(["classify", str(out / "profile.csv"), euclid_json,
               "--out-dir", str(out2), "--quiet"])
    assert rc == EXIT_OK
    verdict = json.loads((out2 / "cahn_hoffman.json").read_text())
    assert verdict["monotone"] in ("nondecreasing", "constant")
    assert set(_manifest(out2)["wall_time_s"]) == {"classify", "emit"}


def _regular_polygon(k, phase, size):
    t = phase + 2.0 * math.pi * np.arange(k) / k
    return (size * np.column_stack([np.cos(t), np.sin(t)])).tolist()


@pytest.mark.parametrize("vertices, expected", [
    (_regular_polygon(6, 0.3, 1e-12), "not_applicable"),
    (_regular_polygon(8, 0.0, 1e12), "lipschitz"),
], ids=["tiny-rotated-hexagon", "huge-octagon"])
def test_regularity_class_does_not_depend_on_polygon_size(tmp_path, vertices, expected):
    aniso = _write_json(tmp_path / "aniso.json", {"kind": "polygon", "vertices": vertices})
    out = tmp_path / "out"
    rc = main(["threshold", aniso, "--p", "1.5", "--length", "2", "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    assert report["regularity_class"] == expected
    assert report["hypotheses"]["partially_monotone"] == (expected == "lipschitz")


def test_tiny_rotated_hexagon_carries_the_hypothesis_warning(tmp_path):
    aniso = _write_json(tmp_path / "aniso.json",
                        {"kind": "polygon", "vertices": _regular_polygon(6, 0.3, 1e-12)})
    nodes = np.linspace(-1.0, 1.0, 33)
    profile = tmp_path / "profile.csv"
    profile.write_text("s,u\n" + "".join(f"{s!r},{math.tanh(3.0 * s)!r}\n" for s in nodes.tolist()))
    out = tmp_path / "out"
    assert main(["classify", str(profile), aniso, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    verdict = json.loads((out / "cahn_hoffman.json").read_text())
    assert verdict["hypothesis_warning"] == ("anisotropy is not partially monotone; "
                                             "the characterization is heuristic")


def test_solve_budget_exhausted_still_ok(tmp_path, capsys):
    prob = _write_json(tmp_path / "prob.json",
                       _problem_payload(solver={"max_iters": 1}))
    out = tmp_path / "out"
    rc = main(["solve", prob, "--out-dir", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert not report["converged"]
    assert "warning: iteration budget exhausted before convergence" in capsys.readouterr().out


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_solve_report_names_the_chain_for_a_polygon(tmp_path, p):
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        anisotropy={"kind": "lp", "q": 1.0}, p=p, g={"kind": "step", "a": 0.3}, grid={"n": 64}))
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["method"] == "chain" and report["converged"]
    assert (report["iterations"] == 1) == (p == 1.0)


def test_solve_is_reproducible(tmp_path):
    prob = _write_json(tmp_path / "prob.json", _problem_payload())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", prob, "--out-dir", str(a), "--quiet"]) == EXIT_OK
    assert main(["solve", prob, "--out-dir", str(b), "--quiet"]) == EXIT_OK
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert (a / "solve_report.json").read_bytes() == (b / "solve_report.json").read_bytes()


def test_diagnose_command(tmp_path):
    prob = _write_json(tmp_path / "prob.json",
                       _problem_payload(grid={"n": 64}, solver={"max_iters": 6000}))
    out = tmp_path / "out"
    rc = main(["diagnose", prob, "--radius", "0.2", "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "regularity_report.json").read_text())
    assert report["refinement_classification"] == "lipschitz"
    assert report["refinement_cells"] == [64, 128, 256]
    assert report["refinement_slope_exponent"] <= 0.25
    excess = report["refinement_jump_excess"]
    assert len(excess) == 3 and all(e > 0.0 for e in excess)
    assert report["tangent_ball"]["radius_tested"] == 0.2
    assert set(_manifest(out)["wall_time_s"]) == {"solve", "diagnostics", "emit"}


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_svg_option_writes_a_listed_document(tmp_path, command):
    prob = _write_json(tmp_path / "prob.json", _problem_payload(grid={"n": 16}))
    out = tmp_path / "out"
    assert main([command, prob, "--svg", "--out-dir", str(out), "--quiet"]) == EXIT_OK
    svg = (out / f"{command}.svg").read_text()
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    assert svg.count("<path ") == 2
    assert f"{command}.svg" in _manifest(out)["artifacts"]


def test_rearrange_command(tmp_path):
    cells = np.zeros((4, 6), dtype=bool)
    cells[:, 1] = True
    cells[:2, 4] = True
    raster = RasterSet(0.0, 4.0, 0.0, 6.0, cells)
    path = tmp_path / "set.raster"
    write_raster(raster, path)
    out = tmp_path / "out"
    rc = main(["rearrange", str(path), "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    lines = (out / "rearranged_profile.csv").read_text().splitlines()
    assert lines[0] == "s,u"
    heights = [float(line.split(",")[1]) for line in lines[1:]]
    assert heights == [2.0, 2.0, 1.0, 1.0]
    assert (out / "rearranged.raster").exists()
    assert set(_manifest(out)["wall_time_s"]) == {"rearrange", "emit"}


def _percent_csv_values(path):
    """The rows of a two-column CSV, checked to be "%.17g" of their own values."""
    body = path.read_text().split("\n", 1)[1]
    pairs = [tuple(map(float, line.split(","))) for line in body.splitlines()]
    assert body == "".join("%.17g,%.17g\n" % pair for pair in pairs)
    return np.array(pairs)


def _assert_paths_are_percent_3f(path):
    paths = re.findall(r'<path d="M ([^"]*)"', path.read_text())
    assert paths
    for d in paths:
        points = [tuple(map(float, point.split())) for point in d.split(" L ")]
        assert d == " L ".join("%.3f %.3f" % point for point in points)


@pytest.mark.parametrize("anisotropy", [
    {"kind": "lp", "q": 2.7},
    {"kind": "ellipse", "a": 2.0, "b": 0.5},
    {"kind": "polygon", "vertices": _regular_polygon(6, 0.3, 1.0)},
], ids=["lp", "ellipse", "rotated-hexagon"])
def test_wulff_artifacts_hold_percent_formatted_numbers(tmp_path, anisotropy):
    aniso = _write_json(tmp_path / "aniso.json", anisotropy)
    out = tmp_path / "out"
    argv = ["wulff", aniso, "--samples", "65536", "--svg", "--out-dir", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    points = _percent_csv_values(out / "wulff_boundary.csv")
    np.testing.assert_array_equal(points, anisotropy_from_json(anisotropy).wulff_sample(65536))
    assert np.any((np.abs(points) < 1e-4) & (points != 0.0))  # written with an exponent
    _assert_paths_are_percent_3f(out / "wulff.svg")


def test_solve_and_rearrange_artifacts_hold_percent_formatted_numbers(tmp_path):
    readme_problem = _problem_payload(grid={"n": 1024})
    del readme_problem["solver"]
    prob = _write_json(tmp_path / "prob.json", readme_problem)
    out = tmp_path / "solve"
    assert main(["solve", prob, "--svg", "--out-dir", str(out), "--quiet"]) == EXIT_OK
    profile = _percent_csv_values(out / "profile.csv")
    assert profile[512].tolist() == [0.0, 0.0]
    _assert_paths_are_percent_3f(out / "solve.svg")
    raster = tmp_path / "set.raster"
    raster.write_text('{"box": [0, 1, 0, 1], "nx": 4, "ny": 3}\n0 1 1 0\n1 1 1 1\n0 1 0 0\n')
    out = tmp_path / "rearr"
    assert main(["rearrange", str(raster), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    heights = _percent_csv_values(out / "rearranged_profile.csv")[:, 1]
    assert heights.tolist() == pytest.approx([1 / 3, 1.0, 2 / 3, 1 / 3])


def test_input_errors_exit_two(tmp_path, euclid_json):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["wulff", str(bad_json), "--quiet"]) == EXIT_INPUT

    asym = _write_json(tmp_path / "asym.json",
                       {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, -0.5]]})
    assert main(["wulff", asym, "--quiet"]) == EXIT_INPUT

    extra = _write_json(tmp_path / "extra.json", {"kind": "ellipse", "a": 2, "b": 0.5, "c": 7})
    assert main(["wulff", extra, "--quiet"]) == EXIT_INPUT

    assert main(["threshold", euclid_json, "--p", "0.5", "--length", "2",
                 "--quiet"]) == EXIT_INPUT

    assert main(["solve", str(tmp_path / "missing.json"), "--quiet"]) == EXIT_INPUT


def test_artifacts_are_strict_json(tmp_path):
    run = _Run(argparse.Namespace(command="test", out_dir=str(tmp_path), quiet=True), [], {})
    run.emit_json("numpy.json", {"scalar": np.float64(0.1), "array": np.arange(3.0)})
    assert json.loads((tmp_path / "numpy.json").read_text()) == {
        "scalar": 0.1, "array": [0.0, 1.0, 2.0]}
    for bad in (math.nan, math.inf, np.float64(-math.inf)):
        with pytest.raises(ValueError):
            run.emit_json("bad.json", {"value": bad})


@pytest.mark.parametrize("args", [
    ["diagnose", "--radius", "nan"],
    ["diagnose", "--radius", "inf"],
    ["threshold", "--p", "1", "--length", "nan"],
    ["threshold", "--p", "1", "--length", "inf"],
    ["threshold", "--p", "1", "--length", "-1"],
    ["wulff", "--samples", "8"],
], ids=["radius-nan", "radius-inf", "length-nan", "length-inf", "length-negative", "samples-8"])
def test_non_finite_cli_number_exits_two_with_one_line(tmp_path, capsys, euclid_json, args):
    command, *options = args
    if command == "diagnose":
        source = _write_json(tmp_path / "prob.json", _problem_payload(grid={"n": 16}))
    else:
        source = euclid_json
    out = tmp_path / "out"
    assert main([command, source, *options, "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("options", [
    ["--radius", "inf"], ["--radius", "nan"], ["--radius", "0"],
], ids=["radius-inf", "radius-nan", "radius-zero"])
def test_diagnose_checks_its_options_before_the_study(tmp_path, capsys, monkeypatch, options):
    import anisocurve.cli

    calls = []
    monkeypatch.setattr(anisocurve.cli, "refinement_study",
                        lambda *args, **kwargs: calls.append(args))
    prob = _write_json(tmp_path / "prob.json", _problem_payload(grid={"n": 16}))
    out = tmp_path / "out"
    assert main(["diagnose", prob, *options, "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: tangent ball ") and err.count("\n") == 1
    assert calls == []
    assert not (out / "regularity_report.json").exists()


RASTER_ROWS = "1 0\n0 1\n"


@pytest.mark.parametrize("text", [
    '{"box": [0, 1, 0, 1], "nx": 3, "ny": 2}\n1 x 0\n0 1 1\n',
    '{"box": [0, 1, 0, 1], "nx": 3, "ny": 2}\n1 0 0\n2 1 1\n',
    '{"box": [0, 1, 0, 1], "nx": 3, "ny": 2}\n1 0 0\n10 1 1\n',
    '{"box": [0, 1, 0, 1], "nx": 3, "ny": 2}\n1 01 0\n0 1 1\n',
    '{"box": [0, 1, 0, 1], "nx": 2.7, "ny": 2}\n' + RASTER_ROWS,
    '{"box": [0, 1, 0, 1], "nx": 2, "ny": 2.0}\n' + RASTER_ROWS,
    '{"box": [0, 1, 0, 1], "nx": true, "ny": 2}\n1\n0\n',
    '{"box": [0, 1e999, 0, 1], "nx": 2, "ny": 2}\n' + RASTER_ROWS,
    '{"box": [0, "1", 0, 1], "nx": 2, "ny": 2}\n' + RASTER_ROWS,
    '{"box": [0, 1, 0, 1], "nx": 2, "ny": 2, "dx": 0.5}\n' + RASTER_ROWS,
    "",
    '[0, 1, 0, 1]\n' + RASTER_ROWS,
    '{"box": [0, 1], "nx": 2, "ny": 2}\n' + RASTER_ROWS,
], ids=["cell-x", "cell-2", "cell-10", "cell-01", "nx-fraction", "ny-float", "nx-bool",
        "box-overflow", "box-string", "unknown-key", "empty", "header-list", "box-short"])
def test_malformed_raster_exits_two_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "set.raster"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["rearrange", str(path), "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "rearranged_profile.csv").exists()


def test_divergence_exit_three(tmp_path, monkeypatch):
    prob = _write_json(tmp_path / "prob.json", _problem_payload())

    def blow_up(*args, **kwargs):
        raise SolverDivergenceError(iteration=7)

    monkeypatch.setattr("anisocurve.cli.solve", blow_up)
    assert main(["solve", prob, "--out-dir", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_DIVERGED


def _diverges_with_one_line(tmp_path, capsys, payload):
    prob = _write_json(tmp_path / "prob.json", payload)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_DIVERGED
    assert capsys.readouterr().err == "error: solver diverged at iteration 1\n"
    assert not (out / "solve_report.json").exists()


def test_overflowing_chain_model_exits_three(tmp_path, capsys):
    square = {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    _diverges_with_one_line(tmp_path, capsys, _problem_payload(
        anisotropy=square, p=80.0, g={"kind": "step", "a": 1e6}, grid={"n": 16}))


@pytest.mark.parametrize("anisotropy, p, a", [
    ({"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}, 5.0, 1e80),
    ({"kind": "lp", "q": 1.0}, 8.0, 1e50),
], ids=["square", "lp1"])
def test_overflowing_chain_sweep_exits_three(tmp_path, capsys, anisotropy, p, a):
    # the model's weights stay finite, but the sweep's derivative overflows
    _diverges_with_one_line(tmp_path, capsys, _problem_payload(
        anisotropy=anisotropy, p=p, g={"kind": "step", "a": a}, grid={"n": 16}))


@pytest.mark.parametrize("anisotropy", [
    {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    Anisotropy.generic(math.hypot).to_json(),
], ids=["square", "generic"])
def test_overflowing_quadratic_chain_sweep_exits_three(tmp_path, capsys, anisotropy):
    # one exact sweep at p = 2, whose derivative overflows at this height:
    # the square takes the local forward pass, the generic gauge's 2049
    # levels the whole-array one
    _diverges_with_one_line(tmp_path, capsys, _problem_payload(
        anisotropy=anisotropy, interval=[-1e10, 1e10], p=2.0, g={"kind": "step", "a": 1e300},
        grid={"n": 8}))


@pytest.mark.parametrize("anisotropy, p, a", [
    ({"kind": "euclidean"}, 1.0, 1e160),
    ({"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}, 5.0, 1e80),
], ids=["euclidean", "square"])
def test_overflowing_solve_writes_one_stderr_line(tmp_path, anisotropy, p, a):
    # the overflow's numpy warnings must not reach stderr
    done = _solve_in_a_fresh_interpreter(tmp_path, _problem_payload(
        anisotropy=anisotropy, p=p, g={"kind": "step", "a": a}, grid={"n": 16}))
    assert done.returncode == EXIT_DIVERGED
    assert done.stderr.splitlines() == ["error: solver diverged at iteration 1"]


def test_huge_euclidean_step_solves_with_an_empty_stderr(tmp_path):
    # the quadratic form's curvature a^2 b^2 h^2 / s^3 is formed without s^3,
    # which overflows at this height
    done = _solve_in_a_fresh_interpreter(tmp_path, _problem_payload(
        p=2.0, g={"kind": "step", "a": 1e110}, grid={"n": 16}))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")


def _tiny_cells_payload(anisotropy, length, p):
    return _problem_payload(anisotropy=anisotropy, interval=[0.0, length], p=p,
                            g={"kind": "step", "a": 0.5}, grid={"n": 8})


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("length", [4e-323, 4e-320, 4e-310])
@pytest.mark.parametrize("anisotropy", [
    {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    {"kind": "euclidean"},
], ids=["square", "euclidean"])
def test_subnormal_cells_exit_two_with_one_line(tmp_path, capsys, anisotropy, length, p):
    # half a cell below the smallest normal float: the square's chain sweep
    # divided by a weight rounded to 0, or read NaN, or ended 20% above the
    # minimum with converged true
    prob = _write_json(tmp_path / "prob.json", _tiny_cells_payload(anisotropy, length, p))
    assert main(["solve", prob, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cells of width ") and err.count("\n") == 1
    assert "too short to solve on" in err


@pytest.mark.parametrize("length", [1e-170, 1e-290])
@pytest.mark.parametrize("anisotropy, ratio", [
    ({"kind": "euclidean"}, 1.21875),
    ({"kind": "ellipse", "a": 2.0, "b": 0.5}, 0.71875),
], ids=["euclidean", "ellipse"])
def test_quadratic_form_solves_on_cells_below_1e_162(tmp_path, capsys, anisotropy, ratio,
                                                    length):
    # b^2 h^2 underflowed to 0 on such cells, so phi°(0, h) read 0 and the first
    # Newton step was NaN; E / L is what it was at L = 1e-160
    prob = _write_json(tmp_path / "prob.json", _tiny_cells_payload(anisotropy, length, 2.0))
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((out / "solve_report.json").read_text())
    assert report["energy"]["total"] / length == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("length", [4e-307, 4e-300])
def test_chain_solve_on_small_normal_cells_has_an_empty_stderr(tmp_path, length, p):
    # the chain's dual field is read off the envelope, so no log-sum-exp at a
    # temperature of 1e-10 h overflows
    square = {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    done = _solve_in_a_fresh_interpreter(tmp_path, _tiny_cells_payload(square, length, p))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")


def _solve_in_a_fresh_interpreter(tmp_path, payload):
    """``anisocurve solve`` in a new Python, under its default warning filters and no errstate."""
    prob = _write_json(tmp_path / "prob.json", payload)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "anisocurve.cli", "solve", prob, "--out-dir",
         str(tmp_path / "out"), "--quiet"], env=env, capture_output=True, text=True)


def test_warnings_reach_stderr_only_when_the_command_completes(tmp_path, capsys, monkeypatch,
                                                               euclid_json):
    def warning_threshold(*args):
        warnings.warn("raised during the command", UserWarning)
        return sigma_threshold(*args)

    def failing_threshold(*args):
        warnings.warn("raised during the command", UserWarning)
        raise ValueError("bad input")

    argv = ["threshold", euclid_json, "--p", "1", "--length", "2", "--out-dir",
            str(tmp_path / "out"), "--quiet"]
    monkeypatch.setattr("anisocurve.cli.sigma_threshold", warning_threshold)
    with pytest.warns(UserWarning, match="raised during the command"):
        assert main(argv) == EXIT_OK
    monkeypatch.setattr("anisocurve.cli.sigma_threshold", failing_threshold)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_INPUT
    assert shown == []
    assert capsys.readouterr().err == "error: bad input\n"


def test_singular_newton_system_exits_three(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    csv.write_text("s,g\n-1,-1e150\n1,1e150\n")
    _diverges_with_one_line(tmp_path, capsys, _problem_payload(
        p=2.5, g={"kind": "csv", "path": str(csv)}, grid={"n": 16}))


def test_solve_that_stalls_says_so(tmp_path, capsys):
    # no decrease of the energy is representable at this height
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        p=1.0, g={"kind": "step", "a": 1e20}, grid={"n": 16}, solver={}))
    assert main(["solve", prob, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert not report["converged"] and report["iterations"] < 200_000
    out = capsys.readouterr().out
    assert "warning: the solve stalled before convergence" in out
    assert "budget" not in out


@pytest.mark.parametrize("command", ["solve", "diagnose"])
@pytest.mark.parametrize("axes", [(1e160, 1.0)], ids=["wide"])
def test_ellipse_with_a_huge_semi_axis_exits_three_with_one_line(tmp_path, capsys, command,
                                                                 axes):
    # the curvature a^2 / (b h) of phi° overflows to inf, and the solve diverges at
    # its first step
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        anisotropy={"kind": "ellipse", "a": axes[0], "b": axes[1]}, grid={"n": 16}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, prob, "--out-dir", str(out), "--quiet"]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("error: solver diverged at iteration ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_ellipse_with_a_huge_and_a_tiny_semi_axis_solves(tmp_path, capsys, command):
    # the quadratic form is formed from hypot(a r, b h) and ratios, so neither
    # a^2 = 1e-400 nor b^2 = 1e400 is needed
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        anisotropy={"kind": "ellipse", "a": 1e-200, "b": 1e200}, grid={"n": 16}))
    assert main([command, prob, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p_text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_p_exits_two_with_one_line(tmp_path, capsys, p_text):
    payload = json.dumps(_problem_payload()).replace('"p": 1.0', f'"p": {p_text}')
    prob = tmp_path / "prob.json"
    prob.write_text(payload)
    for command in ("solve", "diagnose"):
        out = tmp_path / command
        assert main([command, str(prob), "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "solve_report.json").exists()


def test_diagnose_solves_the_base_grid_once(tmp_path, monkeypatch):
    import anisocurve.cli
    import anisocurve.regularity
    from anisocurve import lipschitz_report, load_problem, solve

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].n_cells)
        return solve(*args, **kwargs)

    monkeypatch.setattr(anisocurve.cli, "solve", counting)
    monkeypatch.setattr(anisocurve.regularity, "solve", counting)
    prob = _write_json(tmp_path / "prob.json",
                       _problem_payload(grid={"n": 32}, solver={"max_iters": 3000}))
    out = tmp_path / "out"
    assert main(["diagnose", prob, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert calls == [32, 64, 128]
    # the reused level-0 solve is the solve diagnose used to run itself
    problem = load_problem(prob)
    g = problem.g_samples()
    lip = lipschitz_report(solve(problem.aniso, problem.grid, g, problem.p, problem.solver).profile, g)
    report = json.loads((out / "regularity_report.json").read_text())
    assert report["lipschitz_estimate"] == lip.lipschitz_estimate
    assert report["normal_deviation_min"] == lip.normal_deviation_min


def _exits_two_with_one_line(tmp_path, capsys, payload):
    prob = _write_json(tmp_path / "prob.json", payload)
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "solve_report.json").exists()


def test_problem_that_is_not_an_object_exits_two(tmp_path, capsys):
    _exits_two_with_one_line(tmp_path, capsys, [_problem_payload()])


def test_unknown_solver_key_exits_two(tmp_path, capsys):
    _exits_two_with_one_line(tmp_path, capsys,
                             _problem_payload(solver={"max_iters": 100, "tolerance": 1e-8}))


@pytest.mark.parametrize("overrides", [
    {"anisotropy": {"kind": "ellipse", "a": 2.0, "b": 0.5, "c": 7}},
    {"anisotropy": {"kind": "euclidean", "a": 1.0}},
    {"g": {"kind": "step", "a": 0.05, "height": 3}},
    {"g": {"kind": "constant", "c": 0.1, "a": 0.05}},
    {"grid": {"n": 16, "cells": 99}},
    {"grid": {"n": 16, "a\nb": 1}},
    {"solvr": {"max_iters": 100}},
], ids=["ellipse-c", "euclidean-a", "step-height", "constant-a", "grid-cells",
        "grid-newline-key", "top-solvr"])
def test_unknown_descriptor_key_exits_two(tmp_path, capsys, overrides):
    _exits_two_with_one_line(tmp_path, capsys, _problem_payload(**overrides))


@pytest.mark.parametrize("solver", [
    {"max_iters": 0},
    {"max_iters": -3},
    {"max_iters": 2.5},
    {"tol_rel": float("nan")},
    {"tol_rel": float("inf")},
    {"tol_rel": 0.0},
    {"tol_rel": -1e-8},
    {"stagnation_window": 0},
    {"stagnation_window": float("nan")},
    {"tau": "0.4"},
    {"sigma_step": 0.2},
    {"over_relaxation": 1.0},
])
def test_invalid_solver_settings_exit_two(tmp_path, capsys, solver):
    _exits_two_with_one_line(tmp_path, capsys, _problem_payload(solver=solver))


@pytest.mark.parametrize("g", [
    {"kind": "step", "a": float("nan")},
    {"kind": "step", "a": float("inf")},
    {"kind": "constant", "c": float("nan")},
    {"kind": "constant", "c": -float("inf")},
])
def test_non_finite_datum_exits_two(tmp_path, capsys, g):
    _exits_two_with_one_line(tmp_path, capsys, _problem_payload(g=g))


def test_non_finite_csv_datum_exits_two(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    csv.write_text("s,g\n-1,0\n0,nan\n1,1\n")
    _exits_two_with_one_line(tmp_path, capsys,
                             _problem_payload(g={"kind": "csv", "path": str(csv)}))


INF = float("inf")


@pytest.mark.parametrize("overrides", [
    {"anisotropy": {"kind": "ellipse", "a": None, "b": 0.5}},
    {"anisotropy": {"kind": "lp", "q": None}},
    {"p": None},
    {"g": [1]},
    {"grid": {"n": 2.7}},
    {"interval": [-1.0, INF]},
    {"anisotropy": {"kind": "lp", "q": INF}},
    {"anisotropy": {"kind": "ellipse", "a": INF, "b": 0.5}},
    {"g": {"kind": "sine", "a": 0.05}},
    {"solver": [4000]},
    {"anisotropy": {"kind": "polygon", "vertices": "square"}},
    {"interval": [0]},
    {"interval": [-1e308, 1e308]},
    {"interval": [0.0, 5e-324], "grid": {"n": 2}},
], ids=["ellipse-a-null", "q-null", "p-null", "g-list", "n-fraction", "interval-inf",
        "q-inf", "ellipse-a-inf", "g-unknown-kind", "solver-list", "vertices-string",
        "interval-short", "interval-overflow", "interval-underflow"])
def test_wrongly_typed_or_non_finite_fields_exit_two(tmp_path, capsys, overrides):
    _exits_two_with_one_line(tmp_path, capsys, _problem_payload(**overrides))


def test_star_polygon_exits_two(tmp_path, capsys):
    star = [[1, 0], [0.2, 0.2], [0, 1], [-1, 0], [-0.2, -0.2], [0, -1]]
    _exits_two_with_one_line(tmp_path, capsys,
                             _problem_payload(anisotropy={"kind": "polygon", "vertices": star}))


VALID_PROBLEMS = [
    _problem_payload(anisotropy={"kind": "ellipse", "a": 2.0, "b": 0.5}, p=1.5,
                     grid={"n": 8}, solver={"max_iters": 50, "tol_rel": 1e-8}),
    _problem_payload(anisotropy={"kind": "lp", "q": 3.0}, g={"kind": "constant", "c": 0.1},
                     grid={"n": 8}),
    _problem_payload(anisotropy={"kind": "polygon",
                                 "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
                     grid={"n": 8}),
]


@pytest.mark.parametrize("problem", VALID_PROBLEMS, ids=["ellipse", "lp3", "square"])
def test_the_problems_the_property_test_breaks_are_valid(tmp_path, problem):
    prob = _write_json(tmp_path / "prob.json", problem)
    assert main(["solve", prob, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_OK


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in items for leaf in _numeric_leaves(child, path + (key,))]


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data(),
       bad=st.sampled_from([None, "1", True, False, math.nan, INF, -INF, [1.0]]))
def test_any_malformed_numeric_field_exits_two_with_one_line(data, bad):
    problem = copy.deepcopy(data.draw(st.sampled_from(VALID_PROBLEMS)))
    *parents, last = data.draw(st.sampled_from(_numeric_leaves(problem)))
    node = problem
    for key in parents:
        node = node[key]
    node[last] = bad
    with tempfile.TemporaryDirectory() as tmp:
        prob = _write_json(Path(tmp) / "prob.json", problem)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["solve", prob, "--out-dir", str(Path(tmp) / "out"), "--quiet"])
    assert rc == EXIT_INPUT
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _objects(node, path=()):
    """Paths of every JSON object in a problem, the problem itself included."""
    if isinstance(node, dict):
        return [path] + [p for key, child in node.items() for p in _objects(child, path + (key,))]
    if isinstance(node, list):
        return [p for key, child in enumerate(node) for p in _objects(child, path + (key,))]
    return []


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), key=st.text(min_size=1, max_size=8),
       value=st.sampled_from([0.5, 1, "linear", None, [1.0], {}]))
def test_any_unknown_key_exits_two_with_one_line(data, key, value):
    problem = copy.deepcopy(data.draw(st.sampled_from(VALID_PROBLEMS)))
    node = problem
    for step in data.draw(st.sampled_from(_objects(problem))):
        node = node[step]
    if key in node:
        key += "_x"
    node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        prob = _write_json(Path(tmp) / "prob.json", problem)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["solve", prob, "--out-dir", str(Path(tmp) / "out"), "--quiet"])
    assert rc == EXIT_INPUT
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


MISSING_KEYS = [
    ({}, ("anisotropy",), "problem: missing key 'anisotropy'"),
    ({}, ("interval",), "problem: missing key 'interval'"),
    ({}, ("p",), "problem: missing key 'p'"),
    ({}, ("g",), "problem: missing key 'g'"),
    ({}, ("grid",), "problem: missing key 'grid'"),
    ({}, ("grid", "n"), "grid: missing key 'n'"),
    ({}, ("anisotropy", "kind"), "anisotropy: missing key 'kind'"),
    ({"anisotropy": {"kind": "ellipse", "a": 2.0, "b": 0.5}}, ("anisotropy", "a"),
     "ellipse anisotropy: missing key 'a'"),
    ({"anisotropy": {"kind": "ellipse", "a": 2.0, "b": 0.5}}, ("anisotropy", "b"),
     "ellipse anisotropy: missing key 'b'"),
    ({"anisotropy": {"kind": "lp", "q": 3.0}}, ("anisotropy", "q"),
     "lp anisotropy: missing key 'q'"),
    ({"anisotropy": {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}},
     ("anisotropy", "vertices"), "polygon anisotropy: missing key 'vertices'"),
    ({}, ("g", "kind"), "datum: missing key 'kind'"),
    ({}, ("g", "a"), "step datum: missing key 'a'"),
    ({"g": {"kind": "constant", "c": 0.1}}, ("g", "c"), "constant datum: missing key 'c'"),
    ({"g": {"kind": "csv", "path": "g.csv"}}, ("g", "path"), "csv datum: missing key 'path'"),
]


@pytest.mark.parametrize("overrides,drop,message", MISSING_KEYS,
                         ids=["-".join(drop) for _, drop, _ in MISSING_KEYS])
def test_missing_problem_key_exits_two_naming_key_and_object(tmp_path, capsys, overrides, drop,
                                                             message):
    payload = _problem_payload(**copy.deepcopy(overrides))
    *parents, last = drop
    node = payload
    for key in parents:
        node = node[key]
    del node[last]
    prob = _write_json(tmp_path / "prob.json", payload)
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "solve_report.json").exists()


@pytest.mark.parametrize("key", ["box", "nx", "ny"])
def test_missing_raster_header_key_exits_two_naming_it(tmp_path, capsys, key):
    header = {"box": [0, 1, 0, 1], "nx": 2, "ny": 2}
    del header[key]
    path = tmp_path / "set.raster"
    path.write_text(json.dumps(header) + "\n" + RASTER_ROWS)
    out = tmp_path / "out"
    assert main(["rearrange", str(path), "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: raster header: missing key {key!r}\n"
    assert not (out / "rearranged_profile.csv").exists()


@pytest.mark.parametrize("command", [["wulff"], ["threshold", "--p", "1", "--length", "2"]],
                         ids=["wulff", "threshold"])
def test_degenerate_wulff_shape_exits_two_with_one_line(tmp_path, capsys, command):
    # a semi-axis with an infinite reciprocal, and semi-axes whose area pi a b
    # underflows to 0 or overflows to inf; pyproject.toml turns any numpy
    # RuntimeWarning into a failure
    cases = [
        (1e-310, 1.0, "ellipse semi-axes and their reciprocals must be finite and positive"),
        (1e-200, 1e-200, "Wulff shape area 0.0 is not a positive finite number"),
        (1e200, 1e200, "Wulff shape area inf is not a positive finite number"),
    ]
    for a, b, message in cases:
        aniso = _write_json(tmp_path / "aniso.json", {"kind": "ellipse", "a": a, "b": b})
        out = tmp_path / "out"
        rc = main([command[0], aniso, *command[1:], "--out-dir", str(out), "--quiet"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["wulff"], ["threshold", "--p", "1", "--length", "2"]],
                         ids=["wulff", "threshold"])
@pytest.mark.parametrize("descriptor", ['{"kind": "euclidean"}', [{"kind": "euclidean"}]],
                         ids=["json-string", "json-array"])
def test_anisotropy_file_that_is_not_an_object_exits_two_with_one_line(tmp_path, capsys, command,
                                                                       descriptor):
    # a file that holds a JSON string is not decoded a second time
    aniso = _write_json(tmp_path / "aniso.json", descriptor)
    out = tmp_path / "out"
    assert main([command[0], aniso, *command[1:], "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: anisotropy descriptor must be a JSON object\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", [["wulff"], ["threshold", "--p", "1", "--length", "2"],
                                     ["solve"]], ids=["wulff", "threshold", "solve"])
def test_tiny_polygon_runs_or_exits_two_with_one_line(tmp_path, capsys, command):
    # cross products of these vertices underflow; their area does too
    diamond = {"kind": "polygon", "vertices": (np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
                                               * 1e-162).tolist()}
    if command[0] == "solve":
        source = _write_json(tmp_path / "prob.json", _problem_payload(
            anisotropy=diamond, g={"kind": "step", "a": 0.3}, grid={"n": 16}))
    else:
        source = _write_json(tmp_path / "aniso.json", diamond)
    out = tmp_path / "out"
    rc = main([command[0], source, *command[1:], "--out-dir", str(out), "--quiet"])
    if command[0] == "solve":
        # a gauge this small costs nothing against the fidelity: u = g
        assert rc == EXIT_OK
        report = json.loads((out / "solve_report.json").read_text())
        assert report["energy"]["fidelity"] == 0.0
    else:
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: Wulff shape area 0.0 is not a positive finite number\n")


@pytest.mark.parametrize("p", ["600", "1e6"])
def test_threshold_at_a_large_exponent(tmp_path, euclid_json, p):
    out = tmp_path / "out"
    rc = main(["threshold", euclid_json, "--p", p, "--length", "2", "--out-dir", str(out),
               "--quiet"])
    assert rc == EXIT_OK
    assert 0.0 < json.loads((out / "threshold.json").read_text())["sigma"] < 0.25


@pytest.mark.parametrize("command", [["wulff"], ["threshold", "--p", "1", "--length", "2"]],
                         ids=["wulff", "threshold"])
def test_polygon_with_huge_vertices_exits_two_with_one_line(tmp_path, capsys, command):
    # their products overflow; pyproject.toml turns any numpy RuntimeWarning into a failure
    big = 1e200
    aniso = _write_json(tmp_path / "aniso.json", {
        "kind": "polygon", "vertices": [[big, big], [-big, big], [-big, -big], [big, -big]]})
    out = tmp_path / "out"
    assert main([command[0], aniso, *command[1:], "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: polygon vertex coordinates must be finite and below 1e150 in magnitude\n")


@pytest.mark.parametrize("text, message", [
    (None, "no such file: {path}"),
    ("x,u\n-1,0\n1,0\n", "expected a 's,u' header in {path}"),
    ("s,u\n-1,0\n0,abc\n1,0\n",
     "non-numeric data in {path}: could not convert string to float: 'abc'"),
    ("s,u\n", "{path} has no data rows"),
    ("s,u\n0,1\n", "profile csv needs at least two nodes"),
    ("s,u\n-1,0\n0.5,1,2\n1,0\n", "{path}: row 1 has 3 fields, expected 2"),
    ("s,u\n-1,0\n0.5\n1,0\n", "{path}: row 1 has 1 fields, expected 2"),
], ids=["missing", "header", "non-numeric", "no-rows", "one-node", "three-fields", "one-field"])
def test_malformed_profile_csv_exits_two_with_one_line(tmp_path, capsys, euclid_json, text,
                                                       message):
    path = tmp_path / "u.csv"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    rc = main(["classify", str(path), euclid_json, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (out / "cahn_hoffman.json").exists()


@pytest.mark.parametrize("datum, message", [
    ({"interp": "cubic"}, "unknown interpolation 'cubic'"),
    ({"path": 3}, "datum csv path must be a string"),
], ids=["interpolation", "path-type"])
def test_malformed_csv_datum_exits_two_with_one_line(tmp_path, capsys, datum, message):
    csv = tmp_path / "g.csv"
    csv.write_text("s,g\n-1,0\n1,1\n")
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        g={"kind": "csv", "path": str(csv), **datum}, grid={"n": 16}))
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("vertex", [[3], [1, 2, 3], []], ids=["one", "three", "empty"])
def test_polygon_vertex_of_the_wrong_length_exits_two_with_one_line(tmp_path, capsys, vertex):
    aniso = _write_json(tmp_path / "aniso.json", {
        "kind": "polygon", "vertices": [[1, 2], vertex, [1, 1], [2, 2]]})
    out = tmp_path / "out"
    rc = main(["threshold", aniso, "--p", "1", "--length", "2", "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: polygon vertex 1 must be an [x, y] pair\n"
    assert not (out / "manifest.json").exists()


def test_step_datum_on_a_tiny_interval_is_solved(tmp_path):
    # g = -+0.5 on [-1e-16, 1e-16], cells narrower than the spacing of floats
    # near 0.5: the jump of u = g costs about 1 and the constant 0 about 3e-16,
    # so the minimizer is close to that constant; the default budget applies
    payload = _problem_payload(interval=[-1e-16, 1e-16], g={"kind": "step", "a": 0.5},
                               grid={"n": 16})
    del payload["solver"]
    prob = _write_json(tmp_path / "prob.json", payload)
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    grid = Grid(-1e-16, 1e-16, 16)
    g = GSpec.step(0.5).sample(grid)
    constant = energy(Anisotropy.euclidean(), Profile(grid, np.zeros(17)), g, 1.0).total
    assert report["converged"] and report["energy"]["fidelity"] > 0.0
    assert report["energy"]["total"] <= constant * (1.0 + 1e-9)


def test_profile_whose_range_overflows_exits_two_with_one_line(tmp_path, capsys, euclid_json):
    # max - min of the values is inf, which no monotonicity tolerance can scale
    path = tmp_path / "u.csv"
    path.write_text("s,u\n-1,-1e308\n0,0\n1,1e308\n")
    out = tmp_path / "out"
    rc = main(["classify", str(path), euclid_json, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: profile csv values must span a finite range\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["s,u\n1,0\n0.5,0\n0,0\n", "s,u\n0,0\n1e-12,0\n5e-12,0\n",
                                  "s,u\n-1e308,0\n1e308,1\n"],
                         ids=["decreasing", "tiny-nonuniform", "length-overflow"])
def test_profile_csv_off_its_grid_exits_two_with_one_line(tmp_path, capsys, euclid_json, text):
    path = tmp_path / "u.csv"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["classify", str(path), euclid_json, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "cahn_hoffman.json").exists()


SQUARE = {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}


def test_square_solve_of_a_huge_step_reports_a_finite_dual_field(tmp_path, capsys):
    # the smoothed dual field is a log-sum-exp about the envelope line on top,
    # so r / (eps h), about 1e311 on the jump, never becomes inf - inf
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        anisotropy=SQUARE, p=2.0, g={"kind": "step", "a": 1e300}, grid={"n": 8}))
    out = tmp_path / "out"
    assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((out / "solve_report.json").read_text())
    assert 0.0 <= report["dual_feasibility_max_violation"] <= 1e-12


@pytest.mark.parametrize("anisotropy", [{"kind": "euclidean"}, {"kind": "lp", "q": 3.0}, SQUARE],
                         ids=["euclidean", "lp3", "square"])
def test_solve_whose_energy_overflows_exits_three(tmp_path, capsys, anisotropy):
    # every step of u is finite, but a jump of 2e308 costs an infinite energy
    prob = _write_json(tmp_path / "prob.json", _problem_payload(
        anisotropy=anisotropy, p=2.0, g={"kind": "step", "a": 1e308}, grid={"n": 8}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", prob, "--out-dir", str(out), "--quiet"]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("error: solver diverged at iteration ") and err.count("\n") == 1
    assert not out.exists()
