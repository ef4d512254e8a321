"""Command-line entry point.

Subcommands: wulff | threshold | solve | diagnose | classify | rearrange.
Exit codes: 0 completed, 2 input error, 3 solver divergence.  Every run
writes a manifest JSON listing the resolved configuration, the emitted
artifacts and per-phase wall time, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .anisotropy import Anisotropy, AnisotropyError, anisotropy_from_json
from .classifier import cahn_hoffman
from .energy import IngestionError, read_profile_csv, write_profile_csv
from .geometry import column_heights, read_raster, vertical_rearrangement
from .problem import load_problem
from .regularity import lipschitz_report, refinement_study, tangent_ball_check
from .solver import SolverDivergenceError, solve
from .svg import render_polylines
from .threshold import sigma_threshold

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3


def _read_aniso(path: str) -> Anisotropy:
    return anisotropy_from_json(json.loads(Path(path).read_text()))


class _Run:
    """Collects artifacts and phase timings for the run manifest."""

    def __init__(self, command: str, out_dir: str, inputs: list, config: dict, quiet: bool):
        self.command = command
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = inputs
        self.config = config
        self.quiet = quiet
        self.artifacts: list[str] = []
        self.phases: dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._phase_start = self._t0

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = now - self._phase_start
        self._phase_start = now

    def emit_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.artifacts.append(name)
        return path

    def emit_json(self, name: str, payload) -> Path:
        return self.emit_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "inputs": self.inputs,
            "config": self.config,
            "artifacts": sorted(self.artifacts),
            "wall_time_s": self.phases,
            "total_wall_time_s": time.perf_counter() - self._t0,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.say(f"wrote {len(self.artifacts) + 1} artifacts to {self.out_dir}")


def _flags_json(flags) -> dict:
    return {
        "partially_monotone": flags.partially_monotone,
        "vertical_facets": flags.vertical_facets,
        "elliptic": flags.elliptic,
        "rolling_radius_estimate": flags.rolling_radius_estimate,
    }


def cmd_wulff(args) -> int:
    aniso = _read_aniso(args.anisotropy)
    run = _Run(
        "wulff", args.out_dir, [args.anisotropy],
        {"samples": args.samples, "svg": args.svg}, args.quiet,
    )
    pts = aniso.wulff_sample(args.samples)
    measures = aniso.wulff_measures(None if aniso.kind == "polygon" else max(args.samples, 256))
    flags = aniso.symmetry_flags()
    run.phase("geometry")
    lines = ["x,y"] + [f"{x:.17g},{y:.17g}" for x, y in pts]
    run.emit_text("wulff_boundary.csv", "\n".join(lines) + "\n")
    run.emit_json("wulff.json", {"measures": asdict(measures), "flags": _flags_json(flags)})
    if args.svg:
        closed = np.vstack([pts, pts[:1]])
        run.emit_text("wulff.svg", render_polylines([closed], labels=["wulff shape"]))
    run.phase("emit")
    run.say(f"alpha0 = {measures.alpha0:.9g}, c_phi = {measures.c_phi:.9g}")
    run.finish()
    return EXIT_OK


def cmd_threshold(args) -> int:
    aniso = _read_aniso(args.anisotropy)
    run = _Run(
        "threshold", args.out_dir, [args.anisotropy],
        {"p": args.p, "length": args.length}, args.quiet,
    )
    report = sigma_threshold(aniso, args.p, args.length)
    run.phase("compute")
    run.emit_json("threshold.json", report.to_json())
    run.phase("emit")
    rows = [
        ("sigma", report.sigma),
        ("gamma", report.gamma),
        ("lambda", report.lam),
        ("alpha0", report.alpha0),
        ("c_phi", report.c_phi),
        ("phi(e1)", report.phi_e1),
        ("phi(e2)", report.phi_e2),
    ]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        run.say(f"{k:<{width}}  {v:.9g}")
    run.say(f"regularity class: {report.regularity_class}")
    run.finish()
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    run = _Run("solve", args.out_dir, [args.problem], problem.to_json(), args.quiet)
    g = problem.g_samples()
    report = solve(problem.aniso, problem.grid, g, problem.p, problem.solver)
    run.phase("solve")
    write_profile_csv(report.profile, run.out_dir / "profile.csv")
    run.artifacts.append("profile.csv")
    run.emit_json(
        "solve_report.json",
        {
            "energy": {
                "area": report.energy.area,
                "fidelity": report.energy.fidelity,
                "total": report.energy.total,
            },
            "iterations": report.iterations,
            "converged": report.converged,
            "final_stagnation": report.final_stagnation,
            "dual_feasibility_max_violation": report.dual_feasibility_max_violation,
        },
    )
    if args.svg:
        nodes = problem.grid.nodes()
        curves = [
            np.column_stack([nodes, report.profile.values]),
            np.column_stack([nodes, g]),
        ]
        run.emit_text("solve.svg", render_polylines(curves, labels=["u", "g"]))
    run.phase("emit")
    if not report.converged:
        run.say("warning: iteration budget exhausted before stagnation")
    run.say(f"total energy {report.energy.total:.9g} after {report.iterations} iterations")
    run.finish()
    return EXIT_OK


def cmd_diagnose(args) -> int:
    problem = load_problem(args.problem)
    run = _Run(
        "diagnose", args.out_dir, [args.problem],
        {**problem.to_json(), "levels": args.levels, "radius": args.radius, "tol": args.tol},
        args.quiet,
    )
    g = problem.g_samples()
    # level 0 of the study is the solve on the problem's own grid and datum
    study = refinement_study(
        problem.aniso, problem.grid, problem.gspec, problem.p,
        levels=args.levels, cfg=problem.solver,
    )
    report = study.base_report
    run.phase("solve")
    lip = lipschitz_report(report.profile, g)
    radius = args.radius
    if radius is None:
        radius = 0.5
    ball = tangent_ball_check(problem.aniso, report.profile, radius, args.tol)
    run.phase("diagnostics")
    payload = {
        "lipschitz_estimate": lip.lipschitz_estimate,
        "normal_deviation_min": lip.normal_deviation_min,
        "max_principle_ok": lip.max_principle_ok,
        "refinement_classification": study.classification,
        "refinement_cells": study.cells,
        "refinement_slope_maxima": study.slope_maxima,
        "tangent_ball": asdict(ball),
    }
    run.emit_json("regularity_report.json", payload)
    if args.svg:
        nodes = problem.grid.nodes()
        wpts = problem.aniso.wulff_sample(256)
        mid = nodes[len(nodes) // 2]
        umid = report.profile.values[len(nodes) // 2]
        overlay = wpts * radius + np.array([mid, umid])
        curves = [
            np.column_stack([nodes, report.profile.values]),
            np.vstack([overlay, overlay[:1]]),
        ]
        run.emit_text("diagnose.svg", render_polylines(curves, labels=["u", "tangent ball"]))
    run.phase("emit")
    run.say(f"classification: {study.classification}")
    run.finish()
    return EXIT_OK


def cmd_classify(args) -> int:
    aniso = _read_aniso(args.anisotropy)
    profile = read_profile_csv(args.profile)
    run = _Run("classify", args.out_dir, [args.profile, args.anisotropy], {}, args.quiet)
    result = cahn_hoffman(aniso, profile)
    run.phase("classify")
    payload = {
        "feasible": result.feasible,
        "monotone": result.monotone,
        "infeasibility_witness": result.infeasibility_witness,
        "hypothesis_warning": result.hypothesis_warning,
    }
    if result.witness_arc is not None:
        arc = result.witness_arc
        payload["witness_arc"] = {
            "s_lo": arc.s_lo,
            "s_hi": arc.s_hi,
            "total_length": arc.total_length,
            "endpoints": arc.endpoints.tolist(),
            "midpoint": arc.midpoint.tolist(),
        }
    run.emit_json("cahn_hoffman.json", payload)
    run.phase("emit")
    run.say(f"feasible: {result.feasible} ({result.monotone})")
    run.finish()
    return EXIT_OK


def cmd_rearrange(args) -> int:
    raster = read_raster(args.raster)
    run = _Run("rearrange", args.out_dir, [args.raster], {}, args.quiet)
    heights = column_heights(raster)
    stacked = vertical_rearrangement(raster)
    run.phase("rearrange")
    centers = raster.x_min + raster.dx * (np.arange(raster.nx) + 0.5)
    lines = ["s,u"] + [f"{s:.17g},{u:.17g}" for s, u in zip(centers, heights)]
    run.emit_text("rearranged_profile.csv", "\n".join(lines) + "\n")
    from .geometry import write_raster

    write_raster(stacked, run.out_dir / "rearranged.raster")
    run.artifacts.append("rearranged.raster")
    run.phase("emit")
    run.finish()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisocurve",
        description="anisotropic prescribed-curvature profiles: solve, analyze, verify",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("wulff", help="Wulff-shape boundary, measures and flags")
    p.add_argument("anisotropy", help="anisotropy descriptor JSON file")
    p.add_argument("--samples", type=int, default=65536)
    p.add_argument("--svg", action="store_true")
    common(p)
    p.set_defaults(func=cmd_wulff)

    p = sub.add_parser("threshold", help="smallness threshold report")
    p.add_argument("anisotropy")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("solve", help="minimize the energy for a problem JSON")
    p.add_argument("problem")
    p.add_argument("--svg", action="store_true")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="regularity diagnostics for a problem JSON")
    p.add_argument("problem")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--svg", action="store_true")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("classify", help="Cahn-Hoffman local-minimality test")
    p.add_argument("profile", help="profile CSV (s,u)")
    p.add_argument("anisotropy")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rearrange", help="vertical rearrangement of a raster set")
    p.add_argument("raster")
    common(p)
    p.set_defaults(func=cmd_rearrange)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (AnisotropyError, IngestionError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
