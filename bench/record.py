"""Summarise benchmark results into one trajectory point.

    python3 bench/record.py LABEL

Reads every ``.bench_out/*.result.json`` that ``run.py`` wrote and writes
``bench/trajectory/BENCH_<LABEL>.json``: per workload, the median and the
quartiles of each end-to-end metric over the seeds run, and the per-layer
metrics of each traced run, with the environment they were measured in.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"


def main():
    label = sys.argv[1]
    workloads = {}
    env = None
    for path in sorted(OUT.glob("*.result.json")):
        res = json.loads(path.read_text())
        env = env or res["env"]
        w = workloads.setdefault(res["workload"], {"seeds": [], "runs": [], "traced": []})
        if res["trace"]:
            w["traced"].append({"seed": res["seed"], "metrics": res["metrics"]})
        else:
            w["seeds"].append(res["seed"])
            w["runs"].append(res)
    summary = {"label": label, "env": env, "workloads": {}}
    for name, w in sorted(workloads.items()):
        entry = {"seeds": sorted(w["seeds"]), "seconds": sorted({r["seconds"] for r in w["runs"]}),
                 "attempted": sum(r["attempted"] for r in w["runs"]),
                 "failed": sum(r["failed"] for r in w["runs"]), "end_to_end": {},
                 "per_layer": w["traced"]}
        for metric in (w["runs"][0]["metrics"] if w["runs"] else {}):
            values = [r["metrics"][metric]["value"] for r in w["runs"]]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry["end_to_end"][metric] = {
                "unit": w["runs"][0]["metrics"][metric]["unit"], "median": q2,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values,
            }
        summary["workloads"][name] = entry
    target = BENCH / "trajectory" / f"BENCH_{label}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(summary, indent=1) + "\n")
    print(target)


if __name__ == "__main__":
    main()
