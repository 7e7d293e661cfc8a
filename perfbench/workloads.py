"""Workloads of the benchmark and the correctness gate applied to each item.

An item is one experiment config from ``perfbench/configs`` at one config
seed, run through ``hypercauchy.cli.run_experiment``.  A workload is a list
of items derived from the workload seed, which is first taken modulo
``REFERENCE_SEEDS`` so that every item has a recorded reference:

* ``node-pv`` runs its three configs at that seed.
* ``boundary-probes`` runs its ten configs at ``PROBE_SEEDS`` consecutive
  seeds starting at that seed.
* ``kernel-matrix`` runs its one config at that seed.

A run repeats the whole list ``passes(workload, seconds)`` times.  The pass
count comes from ``--seconds`` and a fixed nominal pass time, not from the
clock, so every run of a workload does the same work on every commit and
its peak memory does not depend on the speed of the host.

An item must reproduce the seed commit of the benchmark, as recorded in
``reference.json`` by ``record_reference.py``: the same verdict on every
criterion and every per-level ``error_maxnorm`` within
``REL_TOL * |ref| + ABS_TOL`` of the reference.  A few references hold a
failing verdict (``"passed": false``): at those seeds the experiment failed
its own criteria at the seed commit (an error plateau near 8e-7 breaks
``monotone_decrease`` on sie-circle, a pre-asymptotic level breaks
``fitted_order`` on inversion-circle), and reproducing that verdict is what
the gate asks of a later commit.  An item without a reference (none, unless
``reference.json`` is missing) passes when the experiment's criteria pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

PROBE_SEEDS = 3

# reference.json holds seeds 0-63 of every config (0-65 of boundary-probes'),
# so every workload seed modulo this has a reference for each of its items
REFERENCE_SEEDS = 64

# workload -> (configs, consecutive seeds, nominal seconds of one pass); the
# pass times were measured at the seed commit on a 2-core x86-64 VM with
# the numpy kernels (numba absent)
WORKLOADS = {
    "node-pv": (("inversion-circle", "sie-circle", "sie-sphere2"), 1, 33.0),
    "boundary-probes": (("dirichlet", "order-at-infinity", "jump-rm",
                         "constant-gap", "plemelj-circle", "plemelj-sphere",
                         "reproduction", "span", "pv-constant",
                         "algebra-laws"), PROBE_SEEDS, 11.0),
    "kernel-matrix": (("poincare-bertrand",), 1, 14.5),
}

# HYPERCAUCHY_THREADS > 1 makes cli.run_experiment run levels in a thread
# pool, which is a different program; BLAS is held to one thread as well.
THREAD_CAPS = {"HYPERCAUCHY_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ITEM_NAMES = tuple(name for names, _, _ in WORKLOADS.values()
                   for name in names)

# Errors may move by rounding, or by a documented fast-summation tolerance,
# but not by more than this share of the reference (or ABS_TOL near zero).
REL_TOL = 0.05
ABS_TOL = 1e-9


def use_source_tree():
    """Set the thread caps and import hypercauchy from the checkout's src/.

    Must run before numpy is imported.  Returns False when the checkout has
    no source tree.
    """
    if not os.path.isfile(os.path.join(SRC, "hypercauchy", "__init__.py")):
        return False
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, SRC)
    return True


def passes(workload, seconds):
    """Whole passes that fit in ``seconds`` at the nominal pass time."""
    return max(1, int(seconds // WORKLOADS[workload][2]))


class Item:
    """One experiment config at one seed."""

    def __init__(self, name, seed, cfg):
        self.name = name
        self.seed = seed
        self.cfg = cfg


def load(workload, seed):
    """Parse the workload's configs and resolve them at its seeds."""
    from hypercauchy import cli

    names, seed_count, _ = WORKLOADS[workload]
    raw = {name: cli.parse_config_file(os.path.join(CONFIG_DIR, name + ".cfg"))
           for name in names}
    first = seed % REFERENCE_SEEDS
    return [Item(name, s, cli.resolve_config(raw[name], ["seed=%d" % s]))
            for s in range(first, first + seed_count) for name in names]


def load_reference():
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["items"]


def summarize(report):
    """The parts of a ConvergenceReport that the reference pins."""
    return {"passed": bool(report.passed),
            "criteria": {c["name"]: bool(c["passed"])
                         for c in report.criteria},
            "error_maxnorm": [float(r.error_maxnorm) for r in report.rows]}


def check(item, report, reference):
    """Return None when the item's report is correct, else the reason."""
    got = summarize(report)
    ref = reference.get(item.name, {}).get(str(item.seed))
    if ref is None:
        failed = sorted(k for k, ok in got["criteria"].items() if not ok)
        return "criteria failed: %s" % ", ".join(failed) if failed else None
    if got["criteria"] != ref["criteria"]:
        return "verdicts %s differ from reference %s" % (got["criteria"],
                                                         ref["criteria"])
    if len(got["error_maxnorm"]) != len(ref["error_maxnorm"]):
        return "level count differs from reference"
    for level, e, r in zip(item.cfg.levels, got["error_maxnorm"],
                           ref["error_maxnorm"]):
        if not abs(e - r) <= REL_TOL * abs(r) + ABS_TOL:
            return ("level %d error_maxnorm %.17g outside tolerance of "
                    "reference %.17g" % (level, e, r))
    return None


def run_item(item, reference):
    """Run and check one item; return None when correct, else the reason.

    An exception from the experiment is a failure of the item, not of the
    benchmark.
    """
    from hypercauchy import cli

    try:
        report = cli.run_experiment(item.cfg)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed item
        return "%s: %s" % (type(exc).__name__, exc)
    return check(item, report, reference)
