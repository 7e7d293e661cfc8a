"""The benchmark's correctness gate holds on a few of its items.

perfbench/workloads.py checks every item it times against
perfbench/reference.json; a change that moves an item out of the
reference's tolerance fails the benchmark, not Tier-1.  This test runs
four of those items through workloads.run_item, so such a change fails
here first.  It reads workloads.py and reference.json and changes neither.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,seed,name", [
    ("kernel-matrix", 7, "poincare-bertrand"),
    ("kernel-matrix", 50, "poincare-bertrand"),
    ("boundary-probes", 17, "reproduction"),
    ("boundary-probes", 7, "plemelj-sphere"),
])
def test_item_meets_its_reference(workloads, workload, seed, name):
    reference = workloads.load_reference()
    items = [item for item in workloads.load(workload, seed)
             if item.name == name and item.seed == seed]
    assert len(items) == 1
    assert str(seed) in reference[name]
    assert workloads.run_item(items[0], reference) is None
