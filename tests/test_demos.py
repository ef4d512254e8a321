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
