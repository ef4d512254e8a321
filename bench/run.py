"""anisocurve benchmark: time-to-solution of batches of solves and CLI calls.

    python3 bench/run.py --workload {euclid_sweep,aniso_sweep,cli_mix}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in fresh single-threaded processes (BLAS and OpenMP
pinned to one thread), one after another, as a closed loop: one caller
issues jobs back to back, because anisocurve is a library and a batch
CLI, not a server.  The program is single-threaded and has no queues, so
no layer has a waiting time to report.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: import, gauge construction, job generation and warm-up;
  the median over seven set-ups in fresh processes, three of them
  before the timed run and three after it;
- ``wall_s``: time to solve one batch (one job per slot of the
  workload): the sum over the slots of the slot's mean job time, so the
  jobs of a batch cut short by the end of the run count too;
- ``peak_rss_mb``: peak resident memory of the measuring process.

The median job time ``job_s_p50`` (with the job count) and
``failed_share``, the share of jobs whose output check failed, are
printed above the result line but are not among its metrics:
``failed_share`` is 0 when the program is correct, and the median job
jumps between job kinds when the machine's speed drifts, which made its
run-to-run spread wider than any bound.

``--trace 1`` runs the workload untraced and then traced, for ``S / 2``
seconds each, checks that both returned identical results, and prints
the per-layer metrics of the traced half, per complete batch.

Human-readable lines come first; the last line is the JSON result.
Result and trace files go to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("euclid_sweep", "aniso_sweep", "cli_mix")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # a run must end within 180 s
CLI_COMMANDS = ("wulff", "threshold", "solve", "diagnose", "classify", "rearrange")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    # Byte code is cached under .bench_out/, so that every set-up after the
    # first imports compiled modules, as an installed program does.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, tag, deadline, seconds=None, trace=0, setup_only=False):
    result = OUT / f"{args.workload}_s{args.seed}_{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or 0), "--trace", str(trace),
           "--result", str(result), "--workdir", str(OUT / f"work-{os.getpid()}-{tag}")]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {tag} did not finish within the time limit")
    if rc != 0 or not result.is_file():
        raise BenchError(f"worker {tag} exited with code {rc}")
    return json.loads(result.read_text())


def job_stats(res):
    """wall_s, job_s_p50 and sample counts from one measuring run."""
    jobs = res["jobs"]
    by_slot = {}
    for j in jobs:
        by_slot.setdefault(j["slot"], []).append(j["seconds"])
    if len(by_slot) != res["slots"]:
        raise BenchError("the first batch did not complete")
    times = sorted(j["seconds"] for j in jobs)
    return {
        "wall_s": sum(statistics.fmean(v) for v in by_slot.values()),
        "job_s_p50": statistics.median(times),
        "jobs": len(jobs),
        "batches": res["batches_complete"],
        "failed": sum(1 for j in jobs if j["problems"]),
    }


def failures(res):
    return [f"{j['id']}: {p}" for j in res["jobs"] for p in j["problems"]]


def layer_metrics(totals, batches, untraced_wall, traced_wall):
    """Per-layer metrics per complete batch of the traced run."""
    t, c = totals["totals"], totals["counters"]

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0] / batches

    def busy(*names):
        return sum(t.get(n, [0, 0.0, 0.0])[1] for n in names) / batches

    def self_s(name):
        return t.get(name, [0, 0.0, 0.0])[2] / batches

    def share(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    solve_calls = t.get("solver.solve", [0])[0]
    solve_busy = t.get("solver.solve", [0, 0.0])[1]
    iterations = c.get("solver.iterations", 0)
    cli_self = sum(v[2] for k, v in t.items() if k.startswith("cli."))
    m = {
        "anisotropy.project_wulff_many.calls": (calls("anisotropy.project_wulff_many"), "count"),
        "anisotropy.project_wulff_many.busy_s": (busy("anisotropy.project_wulff_many"), "s"),
        "anisotropy.project_wulff_many.projected_share": (share(
            "anisotropy.project_wulff_many.rows_changed",
            "anisotropy.project_wulff_many.rows_in"), "ratio"),
        "anisotropy.eval_dual_many.calls": (calls("anisotropy.eval_dual_many"), "count"),
        "anisotropy.eval_dual_many.busy_s": (busy("anisotropy.eval_dual_many"), "s"),
        "anisotropy.eval_many.calls": (calls("anisotropy.eval_many"), "count"),
        "anisotropy.eval_many.busy_s": (busy("anisotropy.eval_many"), "s"),
        "anisotropy.normal_contact_point.busy_s": (busy("anisotropy.normal_contact_point"), "s"),
        "anisotropy.face_mask.calls": (calls("anisotropy.face_mask"), "count"),
        "anisotropy.face_mask.busy_s": (busy("anisotropy.face_mask"), "s"),
        "anisotropy.wulff_measures.busy_s": (busy("anisotropy.wulff_measures"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.solve.busy_s": (busy("solver.solve"), "s"),
        "solver.solve.self_s": (self_s("solver.solve"), "s"),
        "solver.iterations": (iterations / batches, "count"),
        "solver.us_per_iteration": (1e6 * solve_busy / iterations if iterations else 0.0, "us"),
        "solver.converged_share": (c.get("solver.converged", 0) / solve_calls
                                   if solve_calls else 0.0, "ratio"),
        "solver.diverged": (totals["errors"].get("solver.solve:SolverDivergenceError", 0)
                            / batches, "count"),
        "energy.energy.busy_s": (busy("energy.energy"), "s"),
        "energy.profile_csv.busy_s": (busy("energy.write_profile_csv",
                                           "energy.read_profile_csv"), "s"),
        "regularity.refinement_study.busy_s": (busy("regularity.refinement_study"), "s"),
        "regularity.refinement_study.solve_calls": (
            totals["solve_calls"].get("regularity.refinement_study", 0) / batches, "count"),
        "regularity.tangent_ball_check.busy_s": (busy("regularity.tangent_ball_check"), "s"),
        "regularity.tangent_ball_check.self_s": (self_s("regularity.tangent_ball_check"), "s"),
        "classifier.cahn_hoffman.busy_s": (busy("classifier.cahn_hoffman"), "s"),
        "classifier.cahn_hoffman.face_mask_calls": (
            totals["face_mask_calls"] / batches, "count"),
        "classifier.feasible_share": (c.get("classifier.feasible", 0)
                                      / t["classifier.cahn_hoffman"][0]
                                      if "classifier.cahn_hoffman" in t else 0.0, "ratio"),
        "geometry.raster_io.busy_s": (busy("geometry.read_raster", "geometry.write_raster"), "s"),
        "geometry.rearrange.busy_s": (busy("geometry.vertical_rearrangement",
                                           "geometry.column_heights"), "s"),
        "threshold.sigma_threshold.busy_s": (busy("threshold.sigma_threshold"), "s"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.busy_s"] = (busy(f"cli.cmd_{cmd}"), "s")
    diagnose_calls = t.get("cli.cmd_diagnose", [0])[0]
    m["cli.self_s"] = (cli_self / batches, "s")
    m["cli.bytes_written"] = (c.get("cli.bytes_written", 0) / batches, "bytes")
    m["cli.diagnose.solve_calls"] = (
        totals["solve_calls"].get("cli.cmd_diagnose", 0) / diagnose_calls
        if diagnose_calls else 0.0, "count")
    m["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def span_counts(trace_file, last_job_ids):
    """Solve spans under each span kind, and face_mask calls made directly
    inside ``cahn_hoffman``, over the jobs of the complete batches."""
    spans = json.loads(trace_file.read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    solve_calls = {}
    face_mask = 0
    for s in spans:
        if s["job"] not in last_job_ids:
            continue
        if s["name"] == "classifier.cahn_hoffman":
            face_mask += s["kernels"].get("anisotropy.face_mask", [0])[0]
        if s["name"] != "solver.solve":
            continue
        parent = s["parent"]
        while parent is not None:
            name = by_id[parent]["name"]
            solve_calls[name] = solve_calls.get(name, 0) + 1
            parent = by_id[parent]["parent"]
    return solve_calls, face_mask


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        def setup(k):
            return run_worker(args, f"setup{k}", deadline, setup_only=True)["setup_s"]

        # The machine's speed wanders over tens of seconds, so half of the
        # set-ups run before the measuring process and half after it.
        before = SETUP_SAMPLES // 2
        setups = [setup(k) for k in range(before)]
        res = run_worker(args, "measure", deadline, seconds=args.seconds)
        setups.append(res["setup_s"])
        setups += [setup(k) for k in range(before, SETUP_SAMPLES - 1)]
        st = job_stats(res)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": st["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        notes = [f"setup_s from {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
                 f"wall_s: {res['slots']} slots, {st['batches']} complete batches",
                 f"job_s_p50 = {st['job_s_p50']:.4f} s over {st['jobs']} jobs"]
        runs = [res]
        attempted, failed = st["jobs"], st["failed"]
        problems = failures(res)
    else:
        half = args.seconds / 2.0
        plain = run_worker(args, "untraced", deadline, seconds=half)
        traced = run_worker(args, "traced", deadline, seconds=half, trace=1)
        sp, st = job_stats(plain), job_stats(traced)
        totals = traced["trace_totals"]
        complete = {j["id"] for j in traced["jobs"] if j["batch"] < traced["batches_complete"]}
        totals["solve_calls"], totals["face_mask_calls"] = span_counts(
            OUT / traced["trace_file"], complete)
        metrics = layer_metrics(totals, traced["batches_complete"], sp["wall_s"], st["wall_s"])
        prints = {j["id"]: j["fingerprint"] for j in plain["jobs"]}
        problems = failures(plain) + failures(traced)
        common = [j for j in traced["jobs"] if j["id"] in prints]
        problems += [f"{j['id']}: traced result {j['fingerprint']} differs from untraced "
                     f"{prints[j['id']]}" for j in common if j["fingerprint"] != prints[j["id"]]]
        notes = [f"per batch over {traced['batches_complete']} complete traced batches; "
                 f"{len(common)} jobs compared traced against untraced"]
        runs = [plain, traced]
        attempted = sp["jobs"] + st["jobs"]
        failed = sp["failed"] + st["failed"] + sum(
            1 for j in common if j["fingerprint"] != prints[j["id"]] and not j["problems"])
    return metrics, notes, runs, attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "anisocurve" / "__init__.py").is_file():
        sys.exit(f"error: no anisocurve sources under {ROOT / 'src'}")
    try:
        metrics, notes, runs, attempted, failed, problems = measure(args)
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    env = runs[0]["env"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": problems, "notes": notes}
    (OUT / f"{args.workload}_s{args.seed}_trace{args.trace}.result.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {failed} failed "
          f"(failed_share {failed / attempted:.4f})")
    print(f"python {env['python']}, numpy {env['numpy']}, {env['platform']}, "
          f"{env['cpu_count']} CPUs, threads {env['threads']}")
    for note in notes:
        print(note)
    for p in problems[:20]:
        print("FAILED", p)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
