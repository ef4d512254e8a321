"""Seeded jobs, their runners and their output checks, one class per workload.

A workload is an endless sequence of batches.  Every batch holds one job
per *slot* of the workload's slot table, so each batch does the same kinds
of work on the same grid sizes; the seed and the batch index only draw
the continuous inputs (step heights, fuzz levels, gauge parameters, and
sizes within a narrow range).  That keeps the cost of a batch nearly the
same from seed to seed while no two batches share an input.

Each workload offers the same five steps, of which only ``run`` is timed:

- ``batch(b)``: the job descriptions of batch ``b``, plain JSON-able dicts
  that depend on nothing but the seed and ``b``;
- ``prepare(jobs)``: build the program's inputs (arrays, input files);
- ``run(job)``: the public-API calls the workload measures;
- ``check(job, output)``: ``(problems, fingerprint, counters)``, where an
  empty ``problems`` list means every check passed and ``fingerprint``
  identifies the result, for comparing the traced and untraced runs;
- ``finish_batch(b)``: remove the batch's files.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import anisocurve as ac
import anisocurve.cli
from anisocurve import reference

SOLVE_CAP = 20_000  # the iteration cap of acceptance criterion 5
MAX_PRINCIPLE_TOL = 1e-6
ROUNDING_REL = 1e-12  # float rounding between two evaluations of one energy
# PDHG stops on an energy plateau, which ROADMAP item 2 measured up to
# 1.4e-9 relative above the optimum; a wrong profile costs orders more.
SOLVER_TOL_REL = 1e-8
# The program measures non-polygon Wulff shapes on a 65536-point polyline,
# whose area and perimeter are off by O(1e-9) relative.
THRESHOLD_REL = 1e-6
C11_SUP_TOL = 1e-3  # observed sup errors are ~1e-5 for every n and height used
INTERVAL = (-1.0, 1.0)
SQUARE = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]


def _fuzz(rng, n):
    """Piecewise-constant datum on n + 1 nodes with 2 to 8 distinct levels."""
    pieces = int(rng.integers(2, 9))
    edges = np.sort(rng.choice(np.arange(1, n + 1), pieces - 1, replace=False))
    levels = rng.uniform(-1.0, 1.0, pieces)
    return np.repeat(levels, np.diff(np.r_[0, edges, n + 1])).tolist()


def _height(rng, data, sigma):
    """Step height below sigma, above sigma (up to 0.3) or the height-2 step."""
    if data == "step_below":
        return float(rng.uniform(0.2, 0.9) * sigma)
    if data == "step_above":
        return float(rng.uniform(1.1 * sigma, 0.3))
    return 2.0


class SolveSweep:
    """Direct ``solve`` calls over a table of (gauge, n, p, datum) slots."""

    gauges: dict = {}
    slots: list = []

    def __init__(self, seed, workdir):
        self.seed = seed
        self.anisos = {name: ac.anisotropy_from_json(d) for name, d in self.gauges.items()}
        self.sigma = {
            (g, p): ac.sigma_threshold(self.anisos[g], p, INTERVAL[1] - INTERVAL[0]).sigma
            for g, _, p, _ in self.slots
        }

    def batch(self, b):
        rng = np.random.default_rng([self.seed, b])
        jobs = []
        for k, (gauge, n, p, data) in enumerate(self.slots):
            job = {"id": f"b{b}.s{k}", "batch": b, "slot": k, "gauge": gauge,
                   "n": n, "p": p, "data": data}
            if data == "fuzz":
                job["g"] = _fuzz(rng, n)
            else:
                job["a"] = _height(rng, data, self.sigma[(gauge, p)])
            jobs.append(job)
        return jobs

    def prepare(self, jobs):
        ready = []
        for job in jobs:
            grid = ac.Grid(*INTERVAL, job["n"])
            if "g" in job:
                g = np.asarray(job["g"], dtype=float)
            else:
                g = ac.GSpec.step(job["a"]).sample(grid)
            ready.append({**job, "grid": grid, "g_nodes": g, "aniso": self.anisos[job["gauge"]]})
        return ready

    def run(self, job):
        cfg = ac.SolverConfig(max_iters=SOLVE_CAP)
        return ac.solve(job["aniso"], job["grid"], job["g_nodes"], job["p"], cfg)

    def check(self, job, rep):
        aniso, grid, g, p = job["aniso"], job["grid"], job["g_nodes"], job["p"]
        problems = []
        u = rep.profile.values
        if u.shape != g.shape:
            return [f"profile has shape {u.shape}, datum {g.shape}"], None, {}
        excess = max(float(g.min() - u.min()), float(u.max() - g.max()))
        if excess > MAX_PRINCIPLE_TOL:
            problems.append(f"maximum principle violated by {excess:.3e}")
        e_u = ac.energy(aniso, ac.Profile(grid, u), g, p).total
        if abs(e_u - rep.energy.total) > ROUNDING_REL * (1.0 + abs(e_u)):
            problems.append(f"reported energy {rep.energy.total!r} is not the profile's {e_u!r}")
        e_g = ac.energy(aniso, ac.Profile(grid, g), g, p).total
        if e_u > e_g + ROUNDING_REL * (1.0 + abs(e_g)):
            problems.append(f"energy {e_u!r} above the datum's {e_g!r}")
        if not 1 <= rep.iterations <= SOLVE_CAP:
            problems.append(f"iteration count {rep.iterations} outside [1, {SOLVE_CAP}]")
        if aniso.kind == "euclidean" and p == 1.0 and job["data"] in ("step_below", "step_above"):
            exact = reference.sample_profile(grid, reference.c11_minimizer, job["a"])
            sup = float(np.max(np.abs(u - exact.values)))
            if sup > C11_SUP_TOL:
                problems.append(f"sup error {sup:.3e} against the C^1,1 minimizer")
            e_ref = ac.energy(aniso, exact, g, p).total
            if e_u > e_ref + SOLVER_TOL_REL * (1.0 + abs(e_ref)):
                problems.append(f"energy {e_u!r} above the closed form's {e_ref!r}")
        return problems, [rep.energy.total, rep.iterations], {}

    def finish_batch(self, b):
        pass

    def warm_up(self):
        cfg = ac.SolverConfig(max_iters=50)
        grid = ac.Grid(*INTERVAL, 16)
        g = ac.GSpec.step(0.05).sample(grid)
        for gauge, p in sorted(self.sigma):
            ac.solve(self.anisos[gauge], grid, g, p, cfg)


class EuclidSweep(SolveSweep):
    """Euclidean gauge: each kernel call is one hypot, so the solver loop,
    the fidelity prox and the iteration count set the time."""

    gauges = {"euclidean": {"kind": "euclidean"}}
    slots = [
        ("euclidean", 128, 1.0, "step_below"),
        ("euclidean", 256, 1.0, "step_above"),
        ("euclidean", 512, 1.0, "step_above"),
        ("euclidean", 512, 1.5, "step_below"),
        ("euclidean", 128, 2.0, "step_above"),
        ("euclidean", 1024, 2.0, "step_below"),
        ("euclidean", 256, 1.5, "fuzz"),
        ("euclidean", 512, 1.0, "fuzz"),
        ("euclidean", 128, 1.0, "fuzz"),
        ("euclidean", 128, 1.0, "step2"),
    ]


class AnisoSweep(SolveSweep):
    """Non-circular Wulff shapes: the projection kernels dominate each
    iteration, whatever n is."""

    gauges = {
        "ellipse": {"kind": "ellipse", "a": 2.0, "b": 0.5},
        "lp3": {"kind": "lp", "q": 3.0},
        "square": {"kind": "polygon", "vertices": SQUARE},
        "lp1": {"kind": "lp", "q": 1.0},
    }
    slots = [
        ("ellipse", 32, 2.0, "step_below"),
        ("ellipse", 32, 1.5, "fuzz"),
        ("lp3", 32, 1.5, "step_above"),
        ("lp3", 32, 2.0, "fuzz"),
        ("square", 32, 1.0, "step_above"),
        ("square", 128, 2.0, "step_below"),
        ("square", 64, 1.5, "fuzz"),
        ("lp1", 128, 1.5, "step_above"),
        ("lp1", 64, 2.0, "fuzz"),
        ("lp1", 64, 1.0, "step_below"),
    ]


# -- cli_mix -------------------------------------------------------------


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _write_csv(path, header, rows):
    lines = [header] + [f"{a:.17g},{b:.17g}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _read_csv(path, header):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: header is not {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _write_raster(path, box, cells):
    nx, ny = cells.shape
    rows = [json.dumps({"box": box, "nx": nx, "ny": ny})]
    rows += [" ".join("1" if c else "0" for c in cells[:, j]) for j in range(ny - 1, -1, -1)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _read_raster(path):
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    grid = np.array([[tok == "1" for tok in line.split()] for line in lines[1:]])
    if grid.shape != (header["ny"], header["nx"]):
        raise ValueError(f"{path}: raster shape {grid.shape} does not match its header")
    return header, grid[::-1].T  # cells[i, j], row j counted from the bottom


def _gauge_value(desc, pts):
    """The gauge of a descriptor, evaluated without the program."""
    x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    if desc["kind"] == "ellipse":
        return np.hypot(x / desc["a"], y / desc["b"])
    return (x ** desc["q"] + y ** desc["q"]) ** (1.0 / desc["q"])


def _wulff_area(desc):
    if desc["kind"] == "euclidean":
        return math.pi
    if desc["kind"] == "ellipse":
        return math.pi * desc["a"] * desc["b"]
    if desc["kind"] == "polygon":
        x, y = np.asarray(desc["vertices"]).T
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    q = desc["q"]
    return 4.0 * math.gamma(1.0 + 1.0 / q) ** 2 / math.gamma(1.0 + 2.0 / q)


def _threshold_inputs(desc):
    """(alpha0, phi(e1), phi(e2)) of a descriptor, without the program.

    On the Wulff boundary phi°(nu) = x . nu, so the divergence theorem
    gives P_phi(W) = 2 |W| and alpha0 = P / ((2 P + 1) sqrt|W|) depends on
    the area alone.  The gauges used here have phi(e1) = 1 / a and
    phi(e2) = 1 / b for the ellipse, and 1 on both axes otherwise.
    """
    area = _wulff_area(desc)
    alpha0 = 2.0 * area / ((4.0 * area + 1.0) * math.sqrt(area))
    if desc["kind"] == "ellipse":
        return alpha0, 1.0 / desc["a"], 1.0 / desc["b"]
    return alpha0, 1.0, 1.0


class CliMix:
    """In-process calls of ``anisocurve.cli.main(argv)`` with ``--quiet`` and
    a fresh ``--out-dir``: diagnostics, the classifier, geometry and
    artifact I/O do most of the work, and the solves are small."""

    # One slot per job kind, so that every command weighs the same in a batch.
    slots = ["wulff_svg", "wulff", "threshold", "solve", "diagnose", "classify_staircase",
             "classify_curved", "rearrange"]
    WULFF_SAMPLES = 65536

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        length = INTERVAL[1] - INTERVAL[0]
        self.sigma_p1 = ac.sigma_threshold(ac.Anisotropy.euclidean(), 1.0, length).sigma

    def batch(self, b):
        rng = np.random.default_rng([self.seed, b])
        jobs = []
        for k, kind in enumerate(self.slots):
            job = {"id": f"b{b}.s{k}", "batch": b, "slot": k, "kind": kind}
            if kind == "wulff_svg":
                job["aniso"] = {"kind": "ellipse", "a": float(rng.uniform(0.5, 2.0)),
                                "b": float(rng.uniform(0.5, 2.0))}
            elif kind == "wulff":
                job["aniso"] = {"kind": "lp", "q": float(rng.uniform(1.5, 4.0))}
            elif kind == "threshold":
                job["aniso"] = [
                    {"kind": "euclidean"},
                    {"kind": "ellipse", "a": float(rng.uniform(0.5, 2.0)), "b": 1.0},
                    {"kind": "lp", "q": float(rng.uniform(1.5, 4.0))},
                    {"kind": "polygon", "vertices": SQUARE},
                ][int(rng.integers(4))]
                job["p"] = [1.0, 1.5, 2.0][int(rng.integers(3))]
                job["length"] = float(rng.uniform(1.0, 4.0))
            elif kind == "solve":
                job["n"] = int(rng.integers(384, 513))
                job["a"] = float(rng.uniform(0.01, 0.3))
                job["svg"] = bool(rng.random() < 0.5)
            elif kind == "diagnose":
                job["n"] = int(rng.integers(112, 129))
                job["a"] = float(rng.uniform(0.5, 0.9) * self.sigma_p1)
            elif kind == "classify_staircase":
                n = int(rng.integers(3072, 4097))
                du = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 1.0, n)) * (2.0 / n)
                job["u"] = np.concatenate([[0.0], np.cumsum(du)]).tolist()
            elif kind == "classify_curved":
                job["n"] = int(rng.integers(64, 257))
                job["k"] = float(rng.uniform(1.0, 3.0))
            elif kind == "rearrange":
                nx, ny = int(rng.integers(448, 513)), int(rng.integers(448, 513))
                job["shape"] = [nx, ny]
                job["density"] = float(rng.uniform(0.2, 0.8))
                job["cells_seed"] = int(rng.integers(2**31))
            jobs.append(job)
        return jobs

    @staticmethod
    def _problem(path, n, p, a, max_iters=SOLVE_CAP):
        return _write_json(path, {
            "anisotropy": {"kind": "euclidean"}, "interval": list(INTERVAL), "p": p,
            "g": {"kind": "step", "a": a}, "grid": {"n": n},
            "solver": {"max_iters": max_iters},
        })

    def prepare(self, jobs):
        ready = []
        for job in jobs:
            d = self.workdir / job["id"]
            d.mkdir(parents=True)
            job = {**job, "dir": d, "out": str(d / "out")}
            kind = job["kind"]
            if kind in ("wulff_svg", "wulff", "threshold"):
                job["aniso_path"] = _write_json(d / "aniso.json", job["aniso"])
            elif kind in ("solve", "diagnose"):
                p = 2.0 if kind == "solve" else 1.0
                job["problem"] = self._problem(d / "problem.json", job["n"], p, job["a"])
            elif kind == "classify_staircase":
                u = np.asarray(job["u"])
                nodes = np.linspace(*INTERVAL, len(u))
                job["profile"] = _write_csv(d / "profile.csv", "s,u", zip(nodes, u))
                job["aniso_path"] = _write_json(d / "aniso.json",
                                                {"kind": "polygon", "vertices": SQUARE})
            elif kind == "classify_curved":
                nodes = np.linspace(*INTERVAL, job["n"] + 1)
                job["profile"] = _write_csv(d / "profile.csv", "s,u",
                                            zip(nodes, np.tanh(job["k"] * nodes)))
                job["aniso_path"] = _write_json(d / "aniso.json", {"kind": "euclidean"})
            elif kind == "rearrange":
                rng = np.random.default_rng(job["cells_seed"])
                cells = rng.random(job["shape"]) < job["density"]
                job["cells"] = cells
                job["raster"] = _write_raster(d / "in.raster", [0.0, 1.0, 0.0, 1.0], cells)
            ready.append(job)
        return ready

    @staticmethod
    def argv(job):
        kind, out = job["kind"], ["--out-dir", job["out"], "--quiet"]
        if kind == "wulff_svg":
            return ["wulff", job["aniso_path"], "--samples", str(CliMix.WULFF_SAMPLES), "--svg"] + out
        if kind == "wulff":
            return ["wulff", job["aniso_path"], "--samples", str(CliMix.WULFF_SAMPLES)] + out
        if kind == "threshold":
            return ["threshold", job["aniso_path"], "--p", repr(job["p"]),
                    "--length", repr(job["length"])] + out
        if kind == "solve":
            return ["solve", job["problem"]] + (["--svg"] if job["svg"] else []) + out
        if kind == "diagnose":
            return ["diagnose", job["problem"], "--levels", "3"] + out
        if kind in ("classify_staircase", "classify_curved"):
            return ["classify", job["profile"], job["aniso_path"]] + out
        return ["rearrange", job["raster"]] + out

    def run(self, job):
        return ac.cli.main(self.argv(job))

    def check(self, job, rc):
        if rc != 0:
            return [f"exit code {rc}"], None, {}
        out = Path(job["out"])
        manifest = json.loads((out / "manifest.json").read_text())
        problems = [f"listed artifact {name} is missing"
                    for name in manifest["artifacts"] if not (out / name).is_file()]
        primary, more = getattr(self, "_check_" + job["kind"].split("_")[0])(job, out)
        problems += more
        digest = hashlib.sha256((out / primary).read_bytes()).hexdigest()
        written = sum(f.stat().st_size for f in out.iterdir())
        return problems, digest, {"cli.bytes_written": written}

    def _check_wulff(self, job, out):
        problems = []
        pts = _read_csv(out / "wulff_boundary.csv", "x,y")
        if len(pts) != self.WULFF_SAMPLES:
            problems.append(f"{len(pts)} boundary samples, asked for {self.WULFF_SAMPLES}")
        off = float(np.max(np.abs(_gauge_value(job["aniso"], pts) - 1.0)))
        if off > 1e-9:
            problems.append(f"boundary points off the Wulff boundary by {off:.2e}")
        measures = json.loads((out / "wulff.json").read_text())["measures"]
        area = _wulff_area(job["aniso"])
        if abs(measures["area"] - area) > 1e-6 * area:
            problems.append(f"Wulff area {measures['area']!r}, expected {area!r}")
        if job["kind"] == "wulff_svg":
            svg = (out / "wulff.svg").read_text()
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                problems.append("wulff.svg is not a complete SVG document")
        return "wulff.json", problems

    def _check_threshold(self, job, out):
        rep = json.loads((out / "threshold.json").read_text())
        p, length = job["p"], job["length"]
        alpha0, phi_e1, phi_e2 = _threshold_inputs(job["aniso"])
        problems = [f"{key} {rep[key]!r}, expected {want!r}"
                    for key, want in (("alpha0", alpha0), ("phi_e1", phi_e1), ("phi_e2", phi_e2))
                    if abs(rep[key] - want) > THRESHOLD_REL * want]
        branch = min(alpha0 * phi_e1 / 4.0, alpha0 / (2.0 * phi_e2),
                     length * phi_e1 / (4.0 * phi_e2))
        sigma = (branch / (4.0 ** (p - 1.0) * p)) ** (1.0 / p)
        if abs(rep["sigma"] - sigma) > THRESHOLD_REL * sigma:
            problems.append(f"sigma {rep['sigma']!r}, expected {sigma!r}")
        if abs(rep["gamma"] - 3.0 * rep["sigma"]) > 1e-12:
            problems.append(f"gamma {rep['gamma']!r} is not 3 sigma")
        return "threshold.json", problems

    def _check_solve(self, job, out):
        problems = []
        data = _read_csv(out / "profile.csv", "s,u")
        grid = ac.Grid(*INTERVAL, job["n"])
        g = ac.GSpec.step(job["a"]).sample(grid)
        if data.shape != (job["n"] + 1, 2):
            return "solve_report.json", [f"profile.csv has shape {data.shape}"]
        u = data[:, 1]
        excess = max(float(g.min() - u.min()), float(u.max() - g.max()))
        if excess > MAX_PRINCIPLE_TOL:
            problems.append(f"maximum principle violated by {excess:.3e}")
        rep = json.loads((out / "solve_report.json").read_text())
        aniso = ac.Anisotropy.euclidean()
        e_u = ac.energy(aniso, ac.Profile(grid, u), g, 2.0).total
        e_g = ac.energy(aniso, ac.Profile(grid, g), g, 2.0).total
        if abs(rep["energy"]["total"] - e_u) > ROUNDING_REL * (1.0 + abs(e_u)):
            problems.append(f"reported energy {rep['energy']['total']!r} is not the profile's {e_u!r}")
        if e_u > e_g + ROUNDING_REL * (1.0 + abs(e_g)):
            problems.append(f"energy {e_u!r} above the datum's {e_g!r}")
        if not 1 <= rep["iterations"] <= SOLVE_CAP:
            problems.append(f"iteration count {rep['iterations']} outside [1, {SOLVE_CAP}]")
        return "solve_report.json", problems

    def _check_diagnose(self, job, out):
        rep = json.loads((out / "regularity_report.json").read_text())
        n = job["n"]
        problems = []
        if rep["refinement_classification"] != "lipschitz":
            problems.append(f"step of height {job['a']:.4f} < sigma classified "
                            f"{rep['refinement_classification']!r}")
        if rep["refinement_cells"] != [n, 2 * n, 4 * n]:
            problems.append(f"refinement cells {rep['refinement_cells']}")
        if not rep["max_principle_ok"]:
            problems.append("maximum principle flagged")
        ball = rep["tangent_ball"]
        for side in ("fraction_verified_above", "fraction_verified_below"):
            if not 0.0 <= ball[side] <= 1.0:
                problems.append(f"tangent-ball {side} = {ball[side]!r}")
        return "regularity_report.json", problems

    def _check_classify(self, job, out):
        rep = json.loads((out / "cahn_hoffman.json").read_text())
        problems = []
        if job["kind"] == "classify_staircase":
            if not rep["feasible"]:
                problems.append("monotone staircase under the square gauge found infeasible")
            if rep["monotone"] not in ("nondecreasing", "constant"):
                problems.append(f"staircase labelled {rep['monotone']!r}")
        elif rep["feasible"]:
            problems.append("curved profile under the Euclidean gauge found feasible")
        return "cahn_hoffman.json", problems

    def _check_rearrange(self, job, out):
        header, stacked = _read_raster(out / "rearranged.raster")
        counts = job["cells"].sum(axis=1)
        problems = []
        if not np.array_equal(stacked.sum(axis=1), counts):
            problems.append("column counts not preserved")
        elif not np.array_equal(stacked, np.arange(stacked.shape[1])[None, :] < counts[:, None]):
            problems.append("columns not stacked to the bottom")
        heights = _read_csv(out / "rearranged_profile.csv", "s,u")[:, 1]
        dy = 1.0 / header["ny"]
        if not np.allclose(heights, dy * counts, rtol=0.0, atol=1e-12):
            problems.append("rearranged profile heights differ from the column counts")
        return "rearranged.raster", problems

    def finish_batch(self, b):
        for d in self.workdir.glob(f"b{b}.s*"):
            shutil.rmtree(d)

    def warm_up(self):
        """One tiny call of every command."""
        d = self.workdir / "warm"
        d.mkdir(parents=True)
        ellipse = _write_json(d / "ellipse.json", {"kind": "ellipse", "a": 2.0, "b": 0.5})
        euclid = _write_json(d / "euclid.json", {"kind": "euclidean"})
        problem = self._problem(d / "problem.json", 8, 1.0, 0.05, max_iters=50)
        nodes = np.linspace(*INTERVAL, 9)
        profile = _write_csv(d / "profile.csv", "s,u", zip(nodes, np.tanh(nodes)))
        raster = _write_raster(d / "in.raster", [0.0, 1.0, 0.0, 1.0], np.eye(8, dtype=bool))
        calls = [["wulff", ellipse, "--samples", "256", "--svg"],
                 ["threshold", euclid, "--p", "1", "--length", "2"],
                 ["solve", problem, "--svg"], ["diagnose", problem, "--svg"],
                 ["classify", profile, euclid], ["rearrange", raster]]
        for k, argv in enumerate(calls):
            if ac.cli.main(argv + ["--out-dir", str(d / f"out{k}"), "--quiet"]) != 0:
                raise RuntimeError(f"warm-up call of {argv[0]} failed")
        shutil.rmtree(d)


WORKLOADS = {"euclid_sweep": EuclidSweep, "aniso_sweep": AnisoSweep, "cli_mix": CliMix}
