"""Problem descriptor: anisotropy + interval + datum + exponent + solver knobs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .anisotropy import Anisotropy, anisotropy_from_json
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
            "solver": {
                "max_iters": self.solver.max_iters,
                "tol_rel": self.solver.tol_rel,
                "stagnation_window": self.solver.stagnation_window,
                "tau": self.solver.tau,
                "sigma_step": self.solver.sigma_step,
                "over_relaxation": self.solver.over_relaxation,
            },
        }


def problem_from_json(descriptor: dict) -> Problem:
    if not isinstance(descriptor, dict):
        raise ValueError("problem descriptor must be a JSON object")
    aniso = anisotropy_from_json(descriptor["anisotropy"])
    x_min, x_max = (float(v) for v in descriptor["interval"])
    grid = Grid(x_min, x_max, int(descriptor["grid"]["n"]))
    gspec = GSpec.from_json(descriptor["g"])
    p = float(descriptor["p"])
    check_fidelity_exponent(p)
    solver_kwargs = descriptor.get("solver", {})
    if not isinstance(solver_kwargs, dict):
        raise ValueError("problem 'solver' must be a JSON object")
    unknown = sorted(set(solver_kwargs) - {f.name for f in fields(SolverConfig)})
    if unknown:
        raise ValueError(f"unknown solver key(s): {', '.join(unknown)}")
    solver = SolverConfig(**solver_kwargs)
    return Problem(aniso=aniso, grid=grid, gspec=gspec, p=p, solver=solver)


def load_problem(path) -> Problem:
    return problem_from_json(json.loads(Path(path).read_text()))
