"""One workload process: set up, run batches until the time is up, check.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread.  Writes
one JSON result file; prints nothing.  ``--setup-only`` stops after the
set-up, so that ``run.py`` can time the set-up in several fresh processes.

The set-up is everything before the timed phase: importing numpy and
``anisocurve``, building the gauges, generating the first batch and a
warm-up call of every code path the workload times.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_batches(wl, seconds, tracer):
    """Closed loop over batches until ``seconds`` have passed; the first
    batch always runs to the end.  Returns the job records, the number of
    complete batches and the tracer aggregates at the end of the last one."""
    records = []
    complete = 0
    at_last_batch = None
    deadline = time.perf_counter() + seconds
    b = 0
    while True:
        if tracer:
            tracer.paused = True
        jobs = wl.prepare(wl.batch(b))
        for job in jobs:
            if b > 0 and time.perf_counter() >= deadline:
                break
            if tracer:
                tracer.job, tracer.paused = job["id"], False
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
            except Exception as exc:  # a failed job is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.paused = True
            record = {"id": job["id"], "batch": b, "slot": job["slot"], "seconds": dt,
                      "problems": [], "fingerprint": None}
            if isinstance(out, Exception):
                record["problems"] = [f"{type(out).__name__}: {out}"]
            else:
                try:
                    problems, fingerprint, counters = wl.check(job, out)
                except Exception as exc:  # unreadable output fails the job
                    problems, fingerprint, counters = [f"check: {type(exc).__name__}: {exc}"], None, {}
                record["problems"], record["fingerprint"] = problems, fingerprint
                if tracer:
                    for name, amount in counters.items():
                        tracer.counters[name] = tracer.counters.get(name, 0) + amount
            records.append(record)
        else:
            complete += 1
            if tracer:
                at_last_batch = tracer.snapshot()
        wl.finish_batch(b)
        b += 1
        if time.perf_counter() >= deadline:
            return records, complete, at_last_batch


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import anisocurve

    if not Path(anisocurve.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"anisocurve imported from {anisocurve.__file__}, not from {ROOT / 'src'}")
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.batch(0)
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "setup_s": setup_s, "env": environment()}
        if not args.setup_only:
            tracer = None
            if args.trace:
                from tracer import Tracer

                tracer = Tracer().install()
            records, complete, at_last_batch = run_batches(wl, args.seconds, tracer)
            result.update(jobs=records, batches_complete=complete,
                          slots=len(wl.batch(0)), trace_totals=at_last_batch)
            if tracer:
                tracer.uninstall()
                trace_file = Path(args.result).with_suffix(".trace.json")
                tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
                result["trace_file"] = trace_file.name
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
