"""Record the reference verdicts and errors that the correctness gate uses.

    python3 perfbench/record_reference.py --seeds 0-63 [--workload NAME ...]

Run it only on a commit whose outputs are to be the reference.  It computes
every item of the chosen workloads for the chosen workload seeds and
rewrites those entries of ``perfbench/reference.json``, keeping the others.
The benchmark takes workload seeds modulo ``workloads.REFERENCE_SEEDS``, so
seeds 0-63 cover every seed it can run.
"""

import argparse
import json
import sys

import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-31")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    if not workloads.use_source_tree():
        sys.exit("record_reference: no src/hypercauchy in this checkout")
    from hypercauchy import cli

    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    reference = workloads.load_reference()
    done = set()
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in seeds:
            for item in workloads.load(name, seed):
                if (item.name, item.seed) in done:
                    continue
                done.add((item.name, item.seed))
                report = cli.run_experiment(item.cfg)
                reference.setdefault(item.name, {})[str(item.seed)] = \
                    workloads.summarize(report)
                print(item.name, item.seed, report.passed, flush=True)
    # one line per item and seed, so a changed reference reads as a short diff
    blocks = []
    for name in sorted(reference):
        entries = sorted(reference[name].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join("    %s: %s" % (json.dumps(seed),
                                             json.dumps(entry, sort_keys=True))
                           for seed, entry in entries)
        blocks.append("  %s: {\n%s\n  }" % (json.dumps(name), lines))
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write('{"items": {\n%s\n}}\n' % ",\n".join(blocks))


if __name__ == "__main__":
    main()
