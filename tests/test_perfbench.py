"""The benchmark's tracer still sees every layer it names.

perfbench/spans.py wraps library functions by (module, name) from outside
src/ and silently skips a name that no longer exists, so a rename would
blind a per-layer metric without failing anything.  This test only reads
the TRACED table; nothing under perfbench/ is run or changed.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    missing = []
    for mod_name, path, _key in traced:
        owner = importlib.import_module("hypercauchy." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (mod_name, path))
    assert missing == []
