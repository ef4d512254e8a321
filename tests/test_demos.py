"""Smoke tests: the demo scripts run against the current API."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_datum_regularity_demo_runs(capsys):
    _load("step_datum_regularity").main()
    out = capsys.readouterr().out
    assert out.count("slope exponent beta = ") == 2
    assert out.count("jump excess: ") == 2
    assert "classification: lipschitz" in out
    assert "classification: jump_suspected" in out


def test_classify_profiles_demo_runs(capsys):
    _load("classify_profiles").main()
    out = capsys.readouterr().out
    assert out.count("feasible: True") == 3
    assert out.count("feasible: False") == 2


def test_golden_energy_demo_runs(capsys):
    _load("golden_energy").main()
    assert "continuum energy: 5.570796" in capsys.readouterr().out


def test_rearrangement_demo_runs(capsys):
    _load("rearrangement").main()
    out = capsys.readouterr().out
    assert "columns preserved: True" in out
    assert "500 random polyominoes" in out


def test_wulff_shapes_demo_runs(capsys):
    _load("wulff_shapes").main()
    out = capsys.readouterr().out
    assert "euclidean          3.14159   6.28319" in out
    assert "square             4.00000   8.00000" in out
    assert "wrote " in out
