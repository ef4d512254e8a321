"""Problem descriptor: anisotropy + interval + datum + exponent + solver knobs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .anisotropy import Anisotropy, anisotropy_from_json, check_keys, finite_number
from .energy import GSpec, Grid, check_fidelity_exponent
from .solver import SolverConfig

__all__ = ["Problem", "problem_from_json", "load_problem"]


@dataclass(frozen=True)
class Problem:
    aniso: Anisotropy
    grid: Grid
    gspec: GSpec
    p: float
    solver: SolverConfig = field(default_factory=SolverConfig)

    def g_samples(self) -> np.ndarray:
        return self.gspec.sample(self.grid)

    def to_json(self) -> dict:
        return {
            "anisotropy": self.aniso.to_json(),
            "interval": [self.grid.x_min, self.grid.x_max],
            "p": self.p,
            "g": self.gspec.to_json(),
            "grid": {"n": self.grid.n_cells},
            "solver": asdict(self.solver),
        }


def problem_from_json(descriptor: dict) -> Problem:
    """Build a problem from its JSON descriptor; ValueError on any malformed field."""
    if not isinstance(descriptor, dict):
        raise ValueError("problem descriptor must be a JSON object")
    check_keys(descriptor, ("anisotropy", "interval", "p", "g", "grid"), "problem",
               optional=("solver",))
    parts = {key: descriptor[key] for key in ("anisotropy", "g", "grid")}
    parts["solver"] = descriptor.get("solver", {})
    for key, value in parts.items():
        if not isinstance(value, dict):
            raise ValueError(f"problem {key!r} must be a JSON object")
    interval = descriptor["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise ValueError("problem 'interval' must be a list of two numbers")
    x_min, x_max = (finite_number(v, "interval bound") for v in interval)
    check_keys(parts["grid"], ("n",), "grid")
    grid = Grid(x_min, x_max, parts["grid"]["n"])
    p = finite_number(descriptor["p"], "p")
    check_fidelity_exponent(p)
    check_keys(parts["solver"], (), "solver", optional=[f.name for f in fields(SolverConfig)])
    return Problem(
        aniso=anisotropy_from_json(parts["anisotropy"]),
        grid=grid,
        gspec=GSpec.from_json(parts["g"]),
        p=p,
        solver=SolverConfig(**parts["solver"]),
    )


def load_problem(path) -> Problem:
    return problem_from_json(json.loads(Path(path).read_text()))
