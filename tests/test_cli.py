"""End-to-end command line tests driven through main(argv)."""

import json

import numpy as np
import pytest

from anisocurve import RasterSet, SolverDivergenceError, write_raster
from anisocurve.cli import EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, main


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


def test_threshold_command(tmp_path, euclid_json):
    out = tmp_path / "out"
    rc = main(["threshold", euclid_json, "--p", "1", "--length", "2",
               "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    assert report["sigma"] == pytest.approx(0.06533, abs=1e-4)
    assert "lambda" in report


def test_solve_then_classify(tmp_path, euclid_json):
    prob = _write_json(tmp_path / "prob.json", _problem_payload())
    out = tmp_path / "solve"
    rc = main(["solve", prob, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"]
    assert report["energy"]["total"] == pytest.approx(
        report["energy"]["area"] + report["energy"]["fidelity"])

    out2 = tmp_path / "classify"
    rc = main(["classify", str(out / "profile.csv"), euclid_json,
               "--out-dir", str(out2), "--quiet"])
    assert rc == EXIT_OK
    verdict = json.loads((out2 / "cahn_hoffman.json").read_text())
    assert verdict["monotone"] in ("nondecreasing", "constant")


def test_solve_budget_exhausted_still_ok(tmp_path):
    prob = _write_json(tmp_path / "prob.json",
                       _problem_payload(solver={"max_iters": 1}))
    out = tmp_path / "out"
    rc = main(["solve", prob, "--out-dir", str(out), "--quiet"])
    assert rc == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert not report["converged"]


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
    assert report["tangent_ball"]["radius_tested"] == 0.2


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


def test_input_errors_exit_two(tmp_path, euclid_json):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["wulff", str(bad_json), "--quiet"]) == EXIT_INPUT

    asym = _write_json(tmp_path / "asym.json",
                       {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, -0.5]]})
    assert main(["wulff", asym, "--quiet"]) == EXIT_INPUT

    assert main(["threshold", euclid_json, "--p", "0.5", "--length", "2",
                 "--quiet"]) == EXIT_INPUT

    assert main(["solve", str(tmp_path / "missing.json"), "--quiet"]) == EXIT_INPUT


def test_divergence_exit_three(tmp_path, monkeypatch):
    prob = _write_json(tmp_path / "prob.json", _problem_payload())

    def blow_up(*args, **kwargs):
        raise SolverDivergenceError(iteration=7)

    monkeypatch.setattr("anisocurve.cli.solve", blow_up)
    assert main(["solve", prob, "--out-dir", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_DIVERGED


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
