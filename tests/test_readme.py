"""The README's library tour runs, and gives the results its comments state."""

import ast
from pathlib import Path

import numpy as np

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
