"""No least-squares solver in the package, and no LAPACK on the kernel path.

The package's line fits are closed-form (fueter.line_fit), so a scan of
src/hypercauchy refuses any call of an SVD-based solver or of polyfit, and
a poincare-bertrand run, the kernel-matrix path, completes with every
numpy.linalg solver patched to raise.
"""

import ast
import pathlib

import numpy as np

from hypercauchy import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypercauchy"

# np.linalg.lstsq, pinv and svd, and np.polyfit (lstsq underneath), however
# they are reached: by attribute (np.linalg.svd, linalg.svd) or by a name
# imported from numpy
REFUSED = {"lstsq", "pinv", "svd", "polyfit"}

# every numpy.linalg routine that can call LAPACK
SOLVERS = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh",
           "inv", "lstsq", "matrix_power", "matrix_rank", "pinv", "qr",
           "slogdet", "solve", "svd", "svdvals", "tensorinv", "tensorsolve")


def _refused_calls(path, root=ROOT):
    """'file:line callee' of each call in path whose callee is refused, in
    source order, the file named relative to root."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute) else
                func.id if isinstance(func, ast.Name) else None)
        if name in REFUSED:
            found.append((node.lineno, "%s:%d %s" % (
                path.relative_to(root), node.lineno, ast.unparse(func))))
    return [hit for _, hit in sorted(found)]


def test_package_calls_no_least_squares_solver():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files for hit in _refused_calls(path)]
    assert not found, "\n".join(found)


def test_the_scan_names_file_and_line(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n\n"
                     "a = np.linalg.lstsq(x, y)\n"
                     "b = np.polyfit(x, y, 1)[0]\n"
                     "from numpy.linalg import svd\nc = svd(x)\n"
                     "d = np.linalg.solve(x, y)\n")
    assert _refused_calls(probe, tmp_path) == [
        "probe.py:3 np.linalg.lstsq", "probe.py:4 np.polyfit",
        "probe.py:6 svd"]


def test_kernel_matrix_path_calls_no_lapack_solver(tmp_path, monkeypatch,
                                                   capsys):
    called = []

    def refuse(name):
        def solver(*args, **kwargs):
            called.append(name)
            raise AssertionError("numpy.linalg.%s called" % name)
        return solver

    for name in SOLVERS:
        if hasattr(np.linalg, name):
            monkeypatch.setattr(np.linalg, name, refuse(name))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["run", str(ROOT / "configs" / "poincare-bertrand.cfg"),
                     "--set", "levels=3,4"])
    assert called == []
    assert code == 0, capsys.readouterr().out
