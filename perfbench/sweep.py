"""Run the benchmark over several seeds and store the spread of each metric.

    python3 perfbench/sweep.py --workload node-pv --seeds 1-10 --seconds 30 \\
        --out perfbench/results/baseline.json

Each seed is one fresh ``run.py`` process, run one after another.  For each
metric the output keeps every value with its median, quartiles (Python's
``statistics.quantiles(values, n=4)``), sample count and the distance
between the quartiles as a share of the median, so a later comparison can
call a metric unresolved when its change is inside that spread.  Results
for other workloads already in ``--out`` are kept.
"""

import argparse
import json
import os
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(values):
    out = dict(values=values, **run.spread(values))
    out["iqr_frac"] = (out["q3"] - out["q1"]) / out["median"] \
        if out["median"] else None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        parser.error("--seeds: need at least two seeds for quartiles")
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append((seed, detail, result))
        print(args.workload, seed, json.dumps(result), flush=True)

    metrics = {}
    for name, first_value in runs[0][2]["metrics"].items():
        values = [r[2]["metrics"][name]["value"] for r in runs]
        metrics[name] = dict(unit=first_value["unit"], **summary(values))
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["env"] = runs[0][1]["env"]
    key = "%s%s" % (args.workload, "/trace" if args.trace else "")
    doc.setdefault("workloads", {})[key] = {
        "seeds": seeds, "run_seconds": args.seconds,
        "correct": all(r[2]["correct"] for r in runs),
        "attempted": sum(r[2]["attempted"] for r in runs),
        "failed": sum(r[2]["failed"] for r in runs),
        "metrics": metrics}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
