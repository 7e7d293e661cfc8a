"""Record the outputs of every shipped config into tests/golden/.

    PYTHONPATH=src python tests/record_golden.py

Each of configs/*.cfg runs at seeds 0 and 7 through ``cli.main`` in this
process, in a fresh working directory.  Its CSV and JSON reports, stdout,
stderr and exit code go to ``tests/golden/<config>-seed<seed>/``, and
``tests/golden/environment.txt`` names the Python, numpy and BLAS that made
the bits.  ``test_golden.py`` reruns the same runs and compares them byte
for byte, so run this only on a commit whose outputs are to be the record,
and state in CHANGES.md each value that a re-record moves.
"""

import contextlib
import io
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import warnings

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = sorted((HERE.parent / "configs").glob("*.cfg"))
GOLDEN = HERE / "golden"
SEEDS = (0, 7)


def run_id(config, seed):
    return "%s-seed%d" % (config.stem, seed)


def run_outputs(config, seed, workdir):
    """{file name: text} of one run of config at seed with cwd workdir: the
    reports it writes there, plus its stdout, stderr and exit code."""
    from hypercauchy import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["run", str(config),
                                 "--set", "seed=%d" % seed])
    finally:
        os.chdir(old)
    for w in caught:
        err.write("%s: %s\n" % (w.category.__name__, w.message))
    texts = read_texts(workdir)
    texts.update(stdout=out.getvalue(), stderr=err.getvalue(),
                 exit_code="%d\n" % code)
    return texts


def read_texts(directory):
    """{file name: text} of the files in directory, newlines untranslated."""
    return {p.name: p.read_bytes().decode()
            for p in sorted(pathlib.Path(directory).iterdir())}


def environment():
    """The interpreter, numpy and BLAS that ran, as text."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("python %s\nnumpy %s\nblas %s %s (%s)\nmachine %s\n"
            % (platform.python_version(), np.__version__, blas.get("name"),
               blas.get("version"), blas.get("openblas configuration", ""),
               platform.machine()))


def main():
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    for config in CONFIGS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                texts = run_outputs(config, seed, workdir)
            target = GOLDEN / run_id(config, seed)
            target.mkdir()
            for name, text in texts.items():
                (target / name).write_bytes(text.encode())
            print(run_id(config, seed), texts["exit_code"].strip())
    (GOLDEN / "environment.txt").write_text(environment())


if __name__ == "__main__":
    sys.exit(main())
