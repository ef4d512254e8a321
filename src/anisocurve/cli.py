"""Command-line entry point.

Subcommands: wulff | threshold | solve | diagnose | classify | rearrange.
Each ``cmd_*`` records its run in a ``_Run``, whose ``finish`` writes a
manifest JSON: the resolved configuration, the artifacts, per-phase wall
time and the versions, platform and CPU count, so reruns are
reproducible.  Every JSON artifact is strict JSON written from a result
dataclass by ``_Run.emit_json``.  Exit codes, set by ``main``: 0
completed, 2 input error, 3 solver divergence, which includes a solve
whose numbers overflow.  A failed command writes one stderr line, its
error; the warnings a command raises reach stderr only if it completes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .anisotropy import Anisotropy, GeometryError, anisotropy_from_json, positive_number
from .classifier import cahn_hoffman
from .energy import read_profile_csv, write_profile_csv, write_two_column_csv
from .geometry import column_heights, read_raster, vertical_rearrangement, write_raster
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


def _plain(value):
    """numpy arrays and scalars as the lists and numbers JSON knows."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class _Run:
    """Collects artifacts and phase timings for the run manifest of the
    command that ``args`` names, with its ``--out-dir`` and ``--quiet``."""

    def __init__(self, args: argparse.Namespace, inputs: list, config: dict):
        self.command = args.command
        self.out_dir = Path(args.out_dir)
        self.inputs = inputs
        self.config = config
        self.quiet = args.quiet
        self.artifacts: list[str] = []
        self.phases: dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._phase_start = self._t0

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = now - self._phase_start
        self._phase_start = now

    def artifact(self, name: str) -> Path:
        """The path of a new artifact, listed in the manifest."""
        if not self.artifacts:
            # a command that fails on its inputs leaves no output directory behind
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts.append(name)
        return self.out_dir / name

    def emit_text(self, name: str, text: str) -> None:
        self.artifact(name).write_text(text)

    def emit_json(self, name: str, payload) -> None:
        """Strict JSON: a NaN or infinity raises instead of writing a non-JSON token."""
        self.emit_text(name, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                                        default=_plain) + "\n")

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def finish(self) -> None:
        """Close the ``emit`` phase and write the manifest."""
        self.phase("emit")
        self.emit_json("manifest.json", {
            "command": self.command,
            "tool_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # platform.platform() would start a `uname -p` process on every run
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "cpu_count": os.cpu_count(),
            "inputs": self.inputs,
            "config": self.config,
            "artifacts": sorted(self.artifacts),
            "wall_time_s": self.phases,
            "total_wall_time_s": time.perf_counter() - self._t0,
        })
        self.say(f"wrote {len(self.artifacts)} artifacts to {self.out_dir}")


def cmd_wulff(args) -> None:
    aniso = _read_aniso(args.anisotropy)
    run = _Run(args, [args.anisotropy], {"samples": args.samples, "svg": args.svg})
    measures = aniso.wulff_measures()
    pts = aniso.wulff_sample(args.samples)
    flags = aniso.symmetry_flags()
    run.phase("geometry")
    write_two_column_csv(run.artifact("wulff_boundary.csv"), "x,y", pts[:, 0], pts[:, 1])
    run.emit_json("wulff.json", {"measures": asdict(measures), "flags": asdict(flags)})
    if args.svg:
        closed = np.vstack([pts, pts[:1]])
        run.emit_text("wulff.svg", render_polylines([closed], labels=["wulff shape"]))
    run.say(f"alpha0 = {measures.alpha0:.9g}, c_phi = {measures.c_phi:.9g}")
    run.finish()


def cmd_threshold(args) -> None:
    aniso = _read_aniso(args.anisotropy)
    run = _Run(args, [args.anisotropy], {"p": args.p, "length": args.length})
    report = sigma_threshold(aniso, args.p, args.length)
    run.phase("compute")
    run.emit_json("threshold.json", report.to_json())
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


def cmd_solve(args) -> None:
    problem = load_problem(args.problem)
    run = _Run(args, [args.problem], problem.to_json())
    g = problem.g_samples()
    report = solve(problem.aniso, problem.grid, g, problem.p, problem.solver)
    run.phase("solve")
    write_profile_csv(report.profile, run.artifact("profile.csv"))
    payload = asdict(report)
    del payload["profile"]  # written to profile.csv
    payload["energy"]["total"] = report.energy.total
    run.emit_json("solve_report.json", payload)
    if args.svg:
        nodes = problem.grid.nodes()
        curves = [
            np.column_stack([nodes, report.profile.values]),
            np.column_stack([nodes, g]),
        ]
        run.emit_text("solve.svg", render_polylines(curves, labels=["u", "g"]))
    if not report.converged and report.iterations == problem.solver.max_iters:
        run.say("warning: iteration budget exhausted before convergence")
    elif not report.converged:
        run.say("warning: the solve stalled before convergence (no representable decrease left)")
    run.say(f"total energy {report.energy.total:.9g} after {report.iterations} iterations")
    run.finish()


def cmd_diagnose(args) -> None:
    problem = load_problem(args.problem)
    positive_number(args.radius, "tangent ball radius")  # fail before the study runs
    run = _Run(args, [args.problem],
               {**problem.to_json(), "levels": args.levels, "radius": args.radius})
    g = problem.g_samples()
    # level 0 of the study is the solve on the problem's own grid and datum
    study = refinement_study(
        problem.aniso, problem.grid, problem.gspec, problem.p,
        levels=args.levels, cfg=problem.solver,
    )
    report = study.base_report
    run.phase("solve")
    lip = lipschitz_report(report.profile, g)
    ball = tangent_ball_check(problem.aniso, report.profile, args.radius)
    run.phase("diagnostics")
    refinement = {f"refinement_{key}": value for key, value in asdict(study).items()
                  if key != "base_report"}
    run.emit_json("regularity_report.json",
                  {**asdict(lip), **refinement, "tangent_ball": asdict(ball)})
    if args.svg:
        nodes = problem.grid.nodes()
        wpts = problem.aniso.wulff_sample(256)
        mid = nodes[len(nodes) // 2]
        umid = report.profile.values[len(nodes) // 2]
        overlay = wpts * args.radius + np.array([mid, umid])
        curves = [
            np.column_stack([nodes, report.profile.values]),
            np.vstack([overlay, overlay[:1]]),
        ]
        run.emit_text("diagnose.svg", render_polylines(curves, labels=["u", "tangent ball"]))
    run.say(f"classification: {study.classification}")
    run.finish()


def cmd_classify(args) -> None:
    aniso = _read_aniso(args.anisotropy)
    profile = read_profile_csv(args.profile)
    run = _Run(args, [args.profile, args.anisotropy], {})
    result = cahn_hoffman(aniso, profile)
    run.phase("classify")
    run.emit_json("cahn_hoffman.json", asdict(result))
    run.say(f"feasible: {result.feasible} ({result.monotone})")
    run.finish()


def cmd_rearrange(args) -> None:
    raster = read_raster(args.raster)
    run = _Run(args, [args.raster], {})
    heights = column_heights(raster)
    stacked = vertical_rearrangement(raster)
    run.phase("rearrange")
    centers = raster.x_min + raster.dx * (np.arange(raster.nx) + 0.5)
    write_two_column_csv(run.artifact("rearranged_profile.csv"), "s,u", centers, heights)
    write_raster(stacked, run.artifact("rearranged.raster"))
    run.finish()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no function:
    ``main`` looks ``cmd_<command>`` up in this module on every call, so a
    rebound ``cmd_*`` name (a wrapper, a test double) is the one that runs."""
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

    p = sub.add_parser("threshold", help="smallness threshold report")
    p.add_argument("anisotropy")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--length", type=float, required=True)
    common(p)

    p = sub.add_parser("solve", help="minimize the energy for a problem JSON")
    p.add_argument("problem")
    p.add_argument("--svg", action="store_true")
    common(p)

    p = sub.add_parser("diagnose", help="regularity diagnostics for a problem JSON")
    p.add_argument("problem")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--svg", action="store_true")
    common(p)

    p = sub.add_parser("classify", help="Cahn-Hoffman local-minimality test")
    p.add_argument("profile", help="profile CSV (s,u)")
    p.add_argument("anisotropy")
    common(p)

    p = sub.add_parser("rearrange", help="vertical rearrangement of a raster set")
    p.add_argument("raster")
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a failed command's one stderr line is its error: its warnings are dropped
    with warnings.catch_warnings(record=True) as caught:
        try:
            globals()[f"cmd_{args.command}"](args)
        except SolverDivergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        except (GeometryError, ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
