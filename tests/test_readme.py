"""The README's library tour runs, and gives the results its comments state;
its config field table names the config's fields."""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np

from hypercauchy.cli import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour():
    """The python block of the README's "Library tour" section."""
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_gives_its_commented_results():
    # each statement runs in order; an expression whose line ends in
    # "# -> value" must evaluate to that value, to rounding
    code = _tour()
    lines = code.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(code).body:
        comment = lines[node.end_lineno - 1].partition("# ->")[2].strip()
        if not comment:
            exec(compile(ast.Module([node], []), str(README), "exec"),
                 namespace)
            continue
        got = eval(compile(ast.Expression(node.value), str(README), "eval"),
                   namespace)
        want = ast.literal_eval(comment)
        if isinstance(got, np.ndarray):
            assert got.shape == np.shape(want)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (comment, got)
        else:
            assert got == want, (comment, got)
        checked.append(comment)
    assert checked == ["[[0.5, 0, 0, 0]]", "[True, False]"]


def test_field_table_names_exactly_the_config_fields():
    # first-column names of the "Config fields" table, continuation rows
    # (blank first column) aside
    section = README.read_text().split("| field ", 1)[1]
    rows = section.split("\n\n", 1)[0].splitlines()[2:]
    named = [name.strip().strip("`") for row in rows
             for name in row.split("|")[1].split(",") if name.strip()]
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))
