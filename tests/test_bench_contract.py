"""The library names that the benchmark's traced run depends on."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from anisocurve import SolveReport

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_method_is_defined_on_its_own_class():
    # the tracer wraps each method of its METHODS table through
    # cls.__dict__[name], so `bench/run.py --trace 1` fails once a listed
    # method is deleted or only inherited
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.METHODS
    for name, (module, cls, method) in tracer.METHODS.items():
        owner = getattr(importlib.import_module(f"anisocurve.{module}"), cls)
        assert method in vars(owner), name


def test_solve_report_leads_with_the_fields_the_benchmark_builds_by_position():
    # bench/tests rebuilds a SolveReport positionally from these fields
    assert [f.name for f in dataclasses.fields(SolveReport)][:6] == [
        "profile", "energy", "iterations", "converged", "final_stagnation",
        "dual_feasibility_max_violation"]
