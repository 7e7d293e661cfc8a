"""Benchmark of hypercauchy's convergence sweeps, one workload per process.

    python3 perfbench/run.py --workload node-pv --seed 1 --seconds 30 --trace 0

Workloads (items in ``workloads.py``, reasons in ``BENCHMARK.json``):
``node-pv``, ``boundary-probes`` and ``kernel-matrix``.  Every item goes
through the public ``hypercauchy.cli`` API and the correctness gate of
``workloads.check``.  The run imports hypercauchy from ``src/`` of the
checkout it sits in, with the thread caps of ``workloads.THREAD_CAPS``.

``--trace 0`` runs ``workloads.passes`` passes over the workload's items
(as many as fit in ``--seconds`` at the nominal pass time) and reports

* ``wall_s``: median time of a pass (every item, each with its check);
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh interpreters, started
  between the item runs, of the time from start to having imported
  hypercauchy and parsed the workload's configs;
* ``peak_rss_mb``: peak resident memory of this process;
* ``passed_frac``: share of item runs that passed the correctness gate.

``--trace 1`` runs one untraced pass and two traced passes (``spans.py``),
requires the two traced passes to give identical counts, and reports the
per-layer metrics: counts of one pass, times averaged over the two.  The
second traced pass is dropped if it would end after ``TRACE_DEADLINE_S``.

The last line of standard output is the JSON result.  The line before it
holds the environment and every sample with its median and quartiles.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads

SETUP_SAMPLES = 5

# A run must end within 180 s; the traced run drops its second traced pass,
# and with it the count check, when that pass would end later than this.
TRACE_DEADLINE_S = 160.0

# A fresh interpreter: import hypercauchy from src/ and parse the configs.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.load(sys.argv[3], 0)
print(time.monotonic())
"""


def spread(values):
    """Median, quartiles and sample count of a list of numbers."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            # hypercauchy imports numba only when its numba kernels are on
            "numba_active": "numba" in sys.modules,
            "thread_caps": {k: os.environ[k] for k in workloads.THREAD_CAPS}}


def setup_sample(workload):
    """Seconds from starting a fresh interpreter to configs parsed."""
    cmd = [sys.executable, "-c", SETUP_CODE, workloads.SRC, workloads.HERE,
           workload]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=120)
    return float(proc.stdout.split()[-1]) - t0


def timed(workload, items, tally, passes):
    """Pass times (sums of item times) and setup samples of a timed run.

    The host's speed drifts over tens of seconds, so the setup samples are
    spread evenly between the item runs instead of taken back to back; the
    item timings exclude them.
    """
    total = passes * len(items)
    due = [round(k * total / (SETUP_SAMPLES - 1))
           for k in range(SETUP_SAMPLES)]
    pass_times, setup = [0.0] * passes, []
    for position in range(total + 1):
        setup.extend(setup_sample(workload)
                     for _ in range(due.count(position)))
        if position < total:
            t0 = time.perf_counter()
            tally.run(items[position % len(items)])
            pass_times[position // len(items)] += time.perf_counter() - t0
    return pass_times, setup


class Tally:
    """Item runs attempted and failed, with the reasons."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.problems = []   # faults of the run that are not item failures
        self.known = set()   # failing seed-commit verdicts reproduced

    def run(self, item):
        reason = workloads.run_item(item, self.reference)
        self.attempted += 1
        label = "%s seed %d" % (item.name, item.seed)
        if reason is not None:
            self.failures.append("%s: %s" % (label, reason))
        elif not self.reference.get(item.name, {}).get(
                str(item.seed), {}).get("passed", True):
            self.known.add(label)


def run_pass(items, tally, tracer=None):
    t0 = time.perf_counter()
    for item in items:
        if tracer is None:
            tally.run(item)
        else:
            with tracer.span("cli.item." + item.name):
                tally.run(item)
    return time.perf_counter() - t0


def traced(items, tally, start):
    import spans

    untraced = run_pass(items, tally)
    runs = []
    while len(runs) < 2:
        if runs and (time.perf_counter() - start + runs[0]["wall_s"]
                     > TRACE_DEADLINE_S):
            break
        tracer = spans.Tracer()
        cpu0, rusage0 = os.times(), resource.getrusage(resource.RUSAGE_SELF)
        with tracer.installed():
            wall = run_pass(items, tally, tracer)
        cpu1, rusage1 = os.times(), resource.getrusage(resource.RUSAGE_SELF)
        m = tracer.metrics()
        m["wall_s"] = wall
        m["missing"] = tracer.missing
        m["proc.cpu_s"] = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
        m["proc.minflt"] = rusage1.ru_minflt - rusage0.ru_minflt
        runs.append(m)
    for key in spans.COUNTS + ("trace.spans",):
        if runs[0][key] != runs[-1][key]:
            tally.problems.append(
                "count %s differs between traced passes: %s != %s"
                % (key, runs[0][key], runs[-1][key]))
    traced_wall = statistics.mean(r["wall_s"] for r in runs)

    def mean(key):
        return statistics.mean(r[key] for r in runs)

    metrics = {name: (unit, runs[0][name] if name in spans.COUNTS
                      else mean(name))
               for name, unit in spans.METRICS.items()}
    for name in workloads.ITEM_NAMES:
        metrics["cli.item.%s.s" % name] = (
            "s", statistics.mean(r["items"].get(name, 0.0) for r in runs))
    metrics["proc.cpu_s"] = ("s", mean("proc.cpu_s"))
    metrics["proc.minflt"] = ("count", mean("proc.minflt"))
    metrics["trace.coverage"] = ("frac", mean("trace.coverage"))
    metrics["trace.overhead_frac"] = ("frac", (traced_wall - untraced)
                                      / untraced)
    detail = {"untraced_wall_s": untraced,
              "traced_wall_s": [r["wall_s"] for r in runs],
              "counts_checked": len(runs) == 2,
              "spans": runs[0]["trace.spans"],
              "untraced_functions": runs[0]["missing"]}
    return metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    if not workloads.use_source_tree():
        sys.exit("perfbench: no src/hypercauchy next to perfbench/; "
                 "run from a checkout of the repository")

    # the first import compiles bytecode, so it also warms the setup samples
    items = workloads.load(args.workload, args.seed)
    tally = Tally(workloads.load_reference())
    detail = {"workload": args.workload, "seed": args.seed,
              "item_seeds": sorted({item.seed for item in items}),
              "trace": args.trace, "env": environment()}
    if args.trace:
        metrics, detail["trace"] = traced(items, tally, start)
    else:
        passes, setup = timed(args.workload, items, tally,
                              workloads.passes(args.workload, args.seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = tally.attempted
        metrics = {
            "wall_s": ("s", statistics.median(passes)),
            "setup_s": ("s", statistics.median(setup)),
            "peak_rss_mb": ("MB", rss_mb),
            "passed_frac": ("frac",
                            (attempted - len(tally.failures)) / attempted),
        }
        detail["samples"] = {"wall_s": passes, "setup_s": setup}
        detail["spread"] = {k: spread(v)
                            for k, v in detail["samples"].items()}
    detail["failures"] = tally.failures[:20] + tally.problems
    detail["reproduced_failing_verdicts"] = sorted(tally.known)
    result = {"correct": not (tally.failures or tally.problems),
              "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (unit, value) in metrics.items()}}
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
