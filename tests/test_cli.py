"""Command-line interface: configs, outputs, determinism and exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hypercauchy import cli
from hypercauchy.cli import (EXPERIMENTS, MAX_NODES, ConfigError,
                             ExperimentConfig, list_builtins, main,
                             resolve_config)
from hypercauchy.clifford_core import (Paravector, SingularInputError,
                                       conjugate, get_context,
                                       paravector_inverse, product)
from hypercauchy.bvp import solve_jump_rm
from hypercauchy.fueter import DegreeOverflowError
from hypercauchy.surface import _node_count, build_mesh, load_mesh
from hypercauchy._corpus import make_density

CSV_HEADER = "level,h,nodes,error_maxnorm,error_l2,runtime_ms"
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
BENCH_CONFIG_DIR = CONFIG_DIR.parent / "perfbench" / "configs"

ALL_EXPERIMENTS = [
    "pv-constant",
    "reproduction",
    "plemelj",
    "inversion",
    "jump-rm",
    "constant-gap",
    "dirichlet",
    "classical-degeneration",
    "order-at-infinity",
    "algebra-laws",
    "characteristic-sie",
    "poincare-bertrand",
    "span",
]


def _write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def _fast_config(tmp_path, **extra):
    lines = [
        "experiment = pv-constant",
        "surface = circle",
        "levels = 1,2",
        "tolerance = 1e-3",
        "seed = 0",
        "csv = %s" % (tmp_path / "out.csv"),
        "json = %s" % (tmp_path / "out.json"),
    ]
    for k, v in extra.items():
        lines.append("%s = %s" % (k, v))
    return _write_config(tmp_path, "exp.cfg", "\n".join(lines) + "\n")


def test_registry_complete():
    assert sorted(EXPERIMENTS) == sorted(ALL_EXPERIMENTS)
    listing = list_builtins()
    for name in ALL_EXPERIMENTS:
        assert name in listing
    # an experiment's defaults set only fields it reads
    for name, exp in EXPERIMENTS.items():
        reads = cli.COMMON_FIELDS + exp.settable()
        assert set(exp.defaults) <= set(reads), name


def test_every_config_field_is_settable():
    # a field that no experiment reads can never be set, so it belongs in
    # neither ExperimentConfig nor the config echo
    settable = set(cli.COMMON_FIELDS).union(
        *(exp.settable() for exp in EXPERIMENTS.values()))
    assert settable == {f.name for f in fields(ExperimentConfig)}


def test_run_writes_reports(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    assert main(["run", cfg]) == 0
    csv_text = (tmp_path / "out.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two levels
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["experiment"] == "pv-constant"
    assert doc["passed"] is True
    assert "criteria" in doc and "config" in doc
    assert all(c["passed"] for c in doc["criteria"])
    # runtime is zeroed for reproducible bytes unless requested
    for row in lines[1:]:
        assert row.rsplit(",", 1)[1] == "0"


def test_run_byte_deterministic(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    assert main(["run", cfg]) == 0
    first_csv = (tmp_path / "out.csv").read_bytes()
    first_json = (tmp_path / "out.json").read_bytes()
    assert main(["run", cfg]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first_csv
    assert (tmp_path / "out.json").read_bytes() == first_json


@pytest.mark.parametrize("surface, extra", [
    pytest.param("circle", {}, id="circle"),
    pytest.param("sphere2", {}, id="sphere2"),
    # refined-mesh thresholds: each level's mesh caches its own refinement
    pytest.param("circle", {"experiment": "dirichlet", "levels": "2,3",
                            "tolerance": "1e-2"}, id="dirichlet"),
    pytest.param("circle", {"experiment": "order-at-infinity",
                            "levels": "3,4", "tolerance": "0.2"},
                 id="order-at-infinity"),
    # batched ladders over all densities, and the self-sums that
    # principal values, separable kernels and pb_rhs share through the
    # mesh's cache
    pytest.param("sphere2", {"experiment": "plemelj", "tolerance": "0.1"},
                 id="plemelj-sphere2"),
    pytest.param("circle", {"experiment": "poincare-bertrand"},
                 id="poincare-bertrand"),
    # the 3-sphere's singular-cell coefficients, cached per mesh and side
    pytest.param("sphere3", {"levels": "0,1"}, id="sphere3"),
])
def test_repeat_runs_byte_identical(tmp_path, capsys, surface, extra):
    # two runs in one process: no cache may carry over into the reports
    fields = {"surface": surface, "levels": "0,1,2", **extra}
    cfg = _fast_config(tmp_path, **fields)
    outputs = []
    for _ in range(2):
        assert main(["run", cfg]) == 0
        outputs.append(((tmp_path / "out.csv").read_bytes(),
                        (tmp_path / "out.json").read_bytes()))
    assert outputs[0] == outputs[1]


def _algebra_law_errors(seed, n):
    """The algebra-laws residuals, one clifford_core.product call at a time."""
    ctx = get_context(n)
    rng = np.random.default_rng(seed + n)
    blades = [ctx.basis_blade(a) for a in range(ctx.dim)]
    errs = [0.0]
    for a in blades:
        for b in blades:
            ab = product(a, b)
            errs.append(np.abs(conjugate(ab).coeffs - product(
                conjugate(b), conjugate(a)).coeffs).max())
            for c in blades[:: max(1, ctx.dim // 4)]:
                errs.append(np.abs(product(ab, c).coeffs
                                   - product(a, product(b, c)).coeffs).max())
    pts = rng.standard_normal((10_000, n + 1))
    for row in pts[np.linalg.norm(pts, axis=1) > 1e-6]:
        P = Paravector(row[0], row[1:])
        prod = product(P.as_multivector(ctx),
                       paravector_inverse(P).as_multivector(ctx))
        errs.append(np.abs(prod.coeffs - ctx.scalar(1.0).coeffs).max())
    return errs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_algebra_laws_batches_match_product_loop(n):
    cfg = resolve_config({"experiment": "algebra-laws"}, ["seed=7"])
    mx, l2, _ = cli._run_algebra(cfg, n)
    assert (mx, l2) == cli._norms(_algebra_law_errors(cfg.seed, n))
    assert 0.0 < mx <= cfg.tolerance


def test_named_density_replaces_the_corpus():
    named = resolve_config({"experiment": "inversion"}, ["density=smooth:4"])
    mesh = build_mesh(named.domain_spec(), 1)
    dens, = cli._densities(named, mesh, lambda: pytest.fail("corpus built"))
    want = make_density(mesh, "smooth:4", seed=named.seed)
    assert np.array_equal(dens.samples, want.samples)
    corpus = resolve_config({"experiment": "inversion"}, ["density=corpus"])
    assert cli._densities(corpus, mesh, lambda: ["corpus"]) == ["corpus"]


def test_unsolvable_jump_scores_its_worst_moment_residual():
    # an interior-pole trace has a nonzero degree-0 moment, so no solution
    # decays like |w|^-2 and no sampled residual exists to report
    cfg = resolve_config({"experiment": "jump-rm"},
                         ["density=etrace:in", "jump_m=-2"])
    mesh = build_mesh(cfg.domain_spec(), 3)
    mx, l2, aux = cli._run_jump_rm(cfg, mesh)
    g = make_density(mesh, "etrace:in", seed=cfg.seed)
    sol, rep = solve_jump_rm(mesh, g, -2)
    assert sol is None and aux["verdict"] == rep.verdict == "unsolvable"
    assert mx == l2 == max(rep.residuals.values()) > 1.0


@pytest.mark.parametrize("expect, passed", [("unsolvable", True),
                                            ("solvable", False)])
def test_jump_verdict_criterion_follows_expect(expect, passed):
    # an interior-pole trace is unsolvable in R_-2: the verdict criterion
    # passes when the config expects that, and fails when it expects a
    # solution
    cfg = resolve_config({"experiment": "jump-rm"}, [
        "density=etrace:in", "jump_m=-2", "levels=3", "expect=" + expect])
    verdict, = [c for c in cli.run_experiment(cfg).criteria
                if c["name"] == "verdict"]
    assert verdict["passed"] is passed and verdict["value"] == float(passed)


def test_run_records_runtime_when_asked(tmp_path, capsys):
    cfg = _fast_config(tmp_path, record_runtime="true")
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    runtimes = [float(r.rsplit(",", 1)[1]) for r in lines[1:]]
    assert any(v > 0 for v in runtimes)


def test_set_overrides(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    assert main(["run", cfg, "--set", "levels=1", "--set",
                 "json=%s" % (tmp_path / "o2.json")]) == 0
    doc = json.loads((tmp_path / "o2.json").read_text())
    assert doc["config"]["levels"] == [1]


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    for body, field in [
        ("experiment = warp\nlevels = 1\n", "experiment"),
        ("experiment = pv-constant\nsurface = torus\nlevels = 1\n", "surface"),
        ("experiment = pv-constant\nlevels = 2,1\n", "levels"),
        ("experiment = pv-constant\nlevels = 1\nbogus = 3\n", "bogus"),
        ("experiment = classical-degeneration\nsurface = sphere2\n"
         "levels = 1\n", "surface"),
        # a field the experiment does not read, refused before any mesh
        # is built: a run would ignore it
        ("experiment = pv-constant\nlevels = 1\ndensity = smooth:3\n",
         "density: experiment pv-constant does not read"),
        ("experiment = constant-gap\nlevels = 1\nexpect = unsolvable\n",
         "expect: experiment constant-gap does not read"),
        ("experiment = algebra-laws\nlevels = 1\nsurface = sphere3\n",
         "surface: experiment algebra-laws does not read"),
        ("experiment = dirichlet\nlevels = 3,4\ndensity = constant\n",
         "density: experiment dirichlet does not read"),
        # fixed probe settings, not fields: 8 sampled nodes (4 for the
        # general kernel) and kernel seed 23
        ("experiment = jump-rm\nlevels = 1\nsample_nodes = 8\n",
         "unknown config field 'sample_nodes'"),
        ("experiment = poincare-bertrand\nlevels = 1\nkernel_seed = 23\n",
         "unknown config field 'kernel_seed'"),
        # runs take the unit surface, and characteristic-sie a = 3, b = 1
        ("experiment = pv-constant\nlevels = 1\nradius = 2\n",
         "unknown config field 'radius'"),
        ("experiment = plemelj\nsurface = sphere2\nlevels = 1\n"
         "center = 0,0,0\n", "unknown config field 'center'"),
        ("experiment = characteristic-sie\nlevels = 1\nsie_a = 3\n",
         "unknown config field 'sie_a'"),
        ("experiment = characteristic-sie\nlevels = 1\nsie_b = 1\n",
         "unknown config field 'sie_b'"),
        # caught where the config enters, not by a failed run (exit 1)
        ("experiment = jump-rm\nlevels = 1\njump_m = -10\n", "jump_m"),
        ("experiment = constant-gap\nsurface = sphere2\nlevels = 1\n"
         "jump_m = -10\n", "jump_m"),
        ("experiment = pv-constant\nlevels = -1,1\n", "levels"),
        ("experiment = algebra-laws\nlevels = 0,1\n", "levels"),
        ("experiment = algebra-laws\nlevels = 8,9\n", "levels"),
        # past MAX_ALGEBRA_N: n = 8 would take roughly 2 GiB
        ("experiment = algebra-laws\nlevels = 1,8\n", "levels"),
        ("experiment = pv-constant\nlevels = 1\nseed = -1\n", "seed"),
        # output paths that cannot be written, refused before the run and
        # not by a traceback after it
        ("experiment = pv-constant\nlevels = 1\ncsv = %s\n"
         % (tmp_path / "no" / "such" / "pv.csv"), "csv: cannot write"),
        ("experiment = pv-constant\nlevels = 1\njson = %s\n"
         % (tmp_path / "no" / "pv.json"), "json: cannot write"),
        ("experiment = algebra-laws\nlevels = 1\njson = %s\n" % tmp_path,
         "json: cannot write"),
        ("experiment = pv-constant\nlevels = 1\ncsv = %s\n" % tmp_path,
         "csv: cannot write"),
        ("experiment = constant-gap\nlevels = 1\ngap_g = 2,1,3\n", "gap_g"),
        # gaps with no two-sided inverse: 0, and the zero divisor 1 + e123
        ("experiment = constant-gap\nlevels = 1\ngap_g = 0,0\n",
         "gap_g: row 0 is singular"),
        ("experiment = constant-gap\nsurface = sphere3\nlevels = 0\n"
         "gap_g = 1,0,0,0,0,0,0,1\n", "gap_g"),
        # a subnormal gap, whose inverse is past float64
        ("experiment = constant-gap\nlevels = 1\ngap_g = 1e-320,0\n",
         "gap_g"),
        ("experiment = inversion\nlevels = 1\ndensity = bogus:3\n",
         "density"),
        ("experiment = jump-rm\nlevels = 1\nexpect = unsolveable\n",
         "expect"),
        # the residual would evaluate slots past the largest degree
        ("experiment = constant-gap\nlevels = 1\njump_m = 7\n", "jump_m"),
        ("experiment = jump-rm\nlevels = 1\njump_m = 7\n", "jump_m"),
        # a level too deep for any mesh, refused before any mesh past
        # level 0 is built
        ("experiment = pv-constant\nlevels = 2,60\n",
         "levels: level 60 would have 7.379e+19 nodes"),
        ("experiment = pv-constant\nsurface = sphere3\nlevels = 0,20\n",
         "levels: level 20 would have 1.476e+20 nodes"),
        # levels past MAX_NODES nodes on each surface
        ("experiment = pv-constant\nlevels = 2,24\n",
         "levels: level 24 would have 1.074e+09 nodes"),
        ("experiment = pv-constant\nsurface = sphere2\nlevels = 2,40\n",
         "levels: level 40 would have 3.518e+14 nodes"),
        ("experiment = pv-constant\nsurface = sphere3\nlevels = 0,4\n",
         "levels: level 4 would have 5.243e+05 nodes"),
        # a level past C long's range
        ("experiment = pv-constant\nlevels = 2,%d\n" % 10 ** 30, "levels"),
    ] + [
        # a known family with an argument that cannot build a density
        ("experiment = inversion\nsurface = %s\nlevels = 1\ndensity = %s\n"
         % case, "density")
        for case in [("circle", "coord:x"), ("circle", "smooth:abc"),
                     ("circle", "coord:7"), ("circle", "ecombo:5"),
                     ("circle", "poly:"), ("circle", "zpow:1,2"),
                     ("sphere2", "trig:3"), ("circle", "etrace:sideways")]
    ]:
        cfg = _write_config(tmp_path, "bad.cfg", body)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        # the refusal is the only line on stderr: no warning comes first
        assert field in err and err.startswith("config: ")
        assert err.count("\n") == 1
    # file lines and --set words share one reader, each with its own text
    bad = _write_config(tmp_path, "bad.cfg",
                        "experiment = pv-constant\nlevels\n")
    assert main(["run", bad]) == 2
    assert "%s:2: expected key = value" % bad in capsys.readouterr().err
    cfg = _fast_config(tmp_path)
    assert main(["run", cfg, "--set", "levels"]) == 2
    assert ("--set: expected key=value, got 'levels'"
            in capsys.readouterr().err)
    for key in ("sample_nodes", "kernel_seed", "center", "radius", "sie_a",
                "sie_b"):
        assert main(["run", cfg, "--set", "%s=4" % key]) == 2
        assert "unknown config field %r" % key in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, template", [
    ("tolerance", "%s"), ("min_order", "%s"), ("gap_g", "%s,1"),
])
def test_config_rejects_nonfinite_numbers(key, template, bad):
    setting = "%s=%s" % (key, template % bad)
    with pytest.raises(ConfigError, match=r"^%s: expected a finite number"
                       % key):
        resolve_config({"experiment": "pv-constant"}, [setting])


def test_nonfinite_density_is_refused_without_a_warning(capsys):
    # the density's samples overflow; the refusal is the only line on
    # stderr, and the overflow raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(CONFIG_DIR / "inversion.cfg"), "--set",
                     "density=poly:1e308,1e308"]) == 2
    err = capsys.readouterr().err
    assert err == "config: density: samples row 10 is not finite\n"


# --set values from each field's type domain, extremes included
_FLOATS = st.sampled_from(["0", "-1", "5e-324", "-5e-324", "1e-300", "0.5",
                           "1.3", "1e14", "1e17", "1e200", "1e308", "-1e308",
                           "nan", "inf", "x"])
_INTS = st.sampled_from(["0", "-1", "1", "3", "7", "40", "2000",
                         str(2 ** 31), str(2 ** 64), str(10 ** 30), "1.5",
                         "x"])
_LEVEL = st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 7, 10, 11, 20, 24, 40, 60,
                          2000, 10 ** 30])


def _lists(values, most):
    return st.lists(values, max_size=most).map(",".join)


# mostly increasing, as the levels check wants, so that deep levels reach
# the mesh checks
_LEVELS = st.one_of(
    st.lists(_LEVEL, min_size=1, max_size=8, unique=True).map(sorted),
    st.lists(_LEVEL, max_size=8)).map(lambda ls: ",".join(map(str, ls)))


_FIELD_VALUES = {
    "experiment": st.sampled_from(sorted(EXPERIMENTS) + ["warp"]),
    "surface": st.sampled_from(["circle", "sphere2", "sphere3", "torus"]),
    "levels": _LEVELS,
    "density": st.sampled_from(
        ["corpus", "constant", "bogus", "coord:", "coord:1", "coord:7",
         "coord:x", "zpow:", "zpow:1,1", "zpow:1,2,3", "zpow:-1,0",
         "zpow:40,0", "poly:", "poly:1,2", "poly:1e308,1e308", "poly:nan",
         "etrace:in", "etrace:out", "etrace:sideways", "netrace:in",
         "ecombo:0", "ecombo:2", "ecombo:5", "smooth:3", "smooth:-1",
         "smooth:abc", "rough:3", "trig:3", "trig:" + str(2 ** 64)]),
    "gap_g": _lists(_FLOATS, 10),
    "expect": st.sampled_from(["solvable", "unsolvable", "maybe"]),
    "monotone": st.sampled_from(["true", "false", "2"]),
    "record_runtime": st.sampled_from(["true", "off", "2"]),
    "csv": st.sampled_from(["", "out.csv"]),
    "json": st.sampled_from(["", "out.json"]),
    **{key: _FLOATS for key in ("tolerance", "min_order")},
    **{key: _INTS for key in ("jump_m", "seed")},
}
_FIELDS = [f.name for f in fields(ExperimentConfig)]
assert sorted(_FIELD_VALUES) == sorted(_FIELDS)
_OVERRIDES = st.lists(st.sampled_from(sorted(_FIELD_VALUES)).flatmap(
    lambda key: _FIELD_VALUES[key].map(lambda v: "%s=%s" % (key, v))),
    min_size=1, max_size=3)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_config_overrides_resolve_or_name_a_field(path):
    # every shipped config, with 1-3 overrides drawn from the fields' type
    # domains, resolves to a config under MAX_NODES or raises a
    # ConfigError naming a field; no other exception and no warning
    raw = cli.parse_config_file(path)

    @seed(39)
    @settings(deadline=None, max_examples=20, database=None)
    @given(overrides=_OVERRIDES)
    # levels past MAX_NODES on each surface, past C long's range, and a
    # density whose samples overflow
    @example(overrides=["levels=2,24"])
    @example(overrides=["surface=sphere2", "levels=2,40"])
    @example(overrides=["surface=sphere3", "levels=0,4"])
    @example(overrides=["levels=2,%d" % 10 ** 30])
    @example(overrides=["density=poly:1e308,1e308"])
    def resolves(overrides):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                cfg = resolve_config(raw, overrides)
            except ConfigError as exc:
                message = str(exc)
                assert any(key in message for key in _FIELDS + ["--set"]), \
                    message
            else:
                if not EXPERIMENTS[cfg.experiment].meshless:
                    assert _node_count(cfg.domain_spec(),
                                       cfg.levels[-1]) <= MAX_NODES
        assert caught == [], [str(w.message) for w in caught]

    resolves()


# the fields a run-stage draw overrides: every field but the levels, which
# are drawn small for the resolved surface, and the report paths, which
# stay empty
_RUN_KEYS = sorted(set(_FIELD_VALUES) - {"levels", "csv", "json"})


@st.composite
def _run_overrides(draw, raw):
    """0-2 overrides from the fields' type domains, then small levels: at
    most 2 on a circle, at most 1 on a sphere (or as algebra dimensions)."""
    others = draw(st.lists(st.sampled_from(_RUN_KEYS).flatmap(
        lambda key: _FIELD_VALUES[key].map(lambda v: "%s=%s" % (key, v))),
        max_size=2))
    try:
        circle = resolve_config(raw, others).surface == "circle"
    except ConfigError:
        circle = False
    levels = draw(st.lists(st.integers(0, 2 if circle else 1), min_size=1,
                           max_size=3, unique=True).map(sorted))
    return others + ["levels=" + ",".join(map(str, levels))]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_config_runs_end_in_an_exit_code(path, tmp_path, monkeypatch):
    # every shipped config, run in-process with 1-3 drawn overrides at small
    # levels, exits 0, 1 or 2 with no exception, no warning and no caught
    # failure; an exit 2 names a field
    monkeypatch.chdir(tmp_path)
    raw = cli.parse_config_file(path)

    @seed(47)
    @settings(deadline=None, max_examples=8, database=None)
    @given(overrides=_run_overrides(raw))
    def runs(overrides):
        argv = ["run", str(path), "--set", "csv=", "--set", "json="]
        for item in overrides:
            argv += ["--set", item]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert caught == [], [str(w.message) for w in caught]
        assert code in (0, 1, 2), code
        assert "run failed:" not in err.getvalue(), err.getvalue()
        if code == 2:
            assert any(key in err.getvalue() for key in _FIELDS + ["--set"]), \
                err.getvalue()

    runs()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_shipped_configs_resolve(path):
    cfg = resolve_config(cli.parse_config_file(path))
    assert path.stem.startswith(cfg.experiment)


@pytest.mark.parametrize("path", sorted(BENCH_CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_benchmark_configs_resolve(path):
    # the benchmark's configs are named after their workload item, not
    # their experiment (sie-circle runs characteristic-sie); a library
    # change that breaks one fails here before any benchmark run
    cfg = resolve_config(cli.parse_config_file(path))
    assert cfg.experiment in cli.EXPERIMENTS


def test_config_file_rejects_nan_min_order(tmp_path, capsys):
    cfg = _fast_config(tmp_path, min_order="nan")
    assert main(["run", cfg]) == 2
    assert "min_order" in capsys.readouterr().err


def test_numerical_failure_exit_1(tmp_path, capsys, monkeypatch):
    # the config check refuses a gap with no inverse, so the solver is made
    # to fail in its place
    def singular(*args, **kwargs):
        raise SingularInputError("non-invertible coefficient row")

    monkeypatch.setattr(cli, "solve_constant_gap", singular)
    body = "\n".join([
        "experiment = constant-gap",
        "surface = sphere3",
        "levels = 0",
        "tolerance = 1e-4",
        "json = %s" % (tmp_path / "err.json"),
    ])
    cfg = _write_config(tmp_path, "sie.cfg", body + "\n")
    assert main(["run", cfg]) == 1
    doc = json.loads((tmp_path / "err.json").read_text())
    assert doc["passed"] is False
    assert "error" in doc and "SingularInputError" in doc["error"]


@pytest.mark.parametrize("name, overrides", [
    ("constant-gap", ["gap_g=1e300"])])
def test_huge_coefficients_invert_without_warnings(tmp_path, capsys, name,
                                                  overrides):
    # |G|^2 leaves float64, but the inverse check's bound stays finite
    sets = overrides + ["csv=%s" % (tmp_path / "o.csv"),
                        "json=%s" % (tmp_path / "o.json")]
    args = ["run", str(CONFIG_DIR / ("%s.cfg" % name))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    assert capsys.readouterr().err == ""


def test_failure_report_is_strict_json(tmp_path, capsys, monkeypatch):
    # an unset min_order is NaN in the config; the report must say null
    def overflow(*args, **kwargs):
        raise DegreeOverflowError("order bound needs moment degree 8 > max 6")

    # the config check refuses such an order bound, so the solver is made
    # to fail in its place
    monkeypatch.setattr(cli, "solve_jump_rm", overflow)
    body = "\n".join([
        "experiment = jump-rm",
        "levels = 1",
        "json = %s" % (tmp_path / "err.json"),
    ])
    cfg = _write_config(tmp_path, "jump.cfg", body + "\n")
    assert main(["run", cfg]) == 1

    def reject(name):
        raise ValueError("non-standard JSON constant %s" % name)

    text = (tmp_path / "err.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    assert doc["config"]["min_order"] is None
    assert "DegreeOverflowError" in doc["error"]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device on which every write fails")
@pytest.mark.parametrize("fails", [False, True], ids=["report", "failure"])
def test_report_write_error_exit_2(tmp_path, capsys, monkeypatch, fails):
    # a write that fails after the run, of the reports or of the failure
    # report, is one stderr line and exit 2, not a traceback
    if fails:
        def singular(*args, **kwargs):
            raise SingularInputError("non-invertible coefficient row")

        monkeypatch.setattr(cli, "solve_constant_gap", singular)
    cfg = _write_config(tmp_path, "gap.cfg", "experiment = constant-gap\n"
                        "levels = 1\njson = /dev/full\n")
    assert main(["run", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("write failed: [Errno 28]")
    assert err.count("\n") == 1 + fails


def test_failed_criterion_exit_1(tmp_path, capsys):
    cfg = _fast_config(tmp_path, tolerance="1e-30")
    assert main(["run", cfg]) == 1
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["passed"] is False
    assert any(not c["passed"] for c in doc["criteria"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_EXPERIMENTS:
        assert name in out
    # each experiment's description is followed by the fields it reads
    # beyond the common ones, as --set accepts them
    lines = out.splitlines()
    row = next(i for i, line in enumerate(lines) if "  jump-rm " in line)
    assert lines[row + 1].split() == [
        "surface,", "density,", "jump_m,", "expect"]


def test_mesh_export_roundtrip(tmp_path, capsys):
    # mesh export reads a config as run does and saves its finest mesh
    path = tmp_path / "mesh.txt"
    pv = str(CONFIG_DIR / "pv-constant.cfg")
    assert main(["mesh", "export", pv, str(path), "--set", "levels=1,2"]) \
        == 0
    mesh = load_mesh(path)
    assert mesh.n == 1
    assert mesh.node_count == 64 * 2 ** 2
    assert np.max(np.abs(np.linalg.norm(mesh.nodes, axis=1) - 1.0)) <= 1e-12
    capsys.readouterr()
    # every refusal is run's: one config line naming the field, exit 2
    for config, sets, field in [
            (pv, ["surface=torus"], "surface"),
            # a level past MAX_NODES is refused before it is built
            (pv, ["levels=40"], "levels: level 40"),
            (pv, ["radius=2"], "unknown config field 'radius'"),
            (pv, ["center=0,0"], "unknown config field 'center'"),
            (str(CONFIG_DIR / "algebra-laws.cfg"), [], "experiment")]:
        argv = ["mesh", "export", config, str(path)]
        for setting in sets:
            argv += ["--set", setting]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: %s" % field) and err.count("\n") == 1


def test_mesh_export_saves_the_mesh_a_run_builds(tmp_path, capsys):
    config = str(CONFIG_DIR / "plemelj-sphere.cfg")
    path = tmp_path / "mesh.txt"
    assert main(["mesh", "export", config, str(path),
                 "--set", "levels=2"]) == 0
    cfg = resolve_config(cli.parse_config_file(config), ["levels=2"])
    built, loaded = build_mesh(cfg.domain_spec(), 2), load_mesh(path)
    for name in ("nodes", "normals", "weights"):
        assert (getattr(loaded, name).tobytes()
                == getattr(built, name).tobytes()), name


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hypercauchy.cli", "list"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pv-constant" in proc.stdout


# run configs in a fresh interpreter, then name the scipy modules loaded
NO_SCIPY_RUN = """\
import json, sys
from hypercauchy import cli
verdicts = [cli.run_experiment(cli.resolve_config(
    cli.parse_config_file(path))).passed for path in sys.argv[1:]]
print(json.dumps({"passed": verdicts, "scipy": sorted(
    m for m in sys.modules if m.startswith("scipy"))}))
"""


def _fresh_python(code, *args):
    """Run code in a fresh interpreter that imports hypercauchy from src."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_circle_and_sphere2_configs_run_without_scipy_spatial():
    # built meshes carry their own neighbour lists; only loaded or
    # modified meshes search a k-d tree, so these runs never import one
    proc = _fresh_python(NO_SCIPY_RUN, str(CONFIG_DIR / "pv-constant.cfg"),
                         str(CONFIG_DIR / "span.cfg"))
    out = json.loads(proc.stdout)
    assert out["passed"] == [True, True]
    assert "scipy.spatial" not in out["scipy"]


NO_MA_RUN = """\
import sys
from hypercauchy import bvp, surface
mesh = surface.build_mesh(surface.DomainSpec("sphere", 2), 2)
print(bvp._probe_indices(mesh, 64).tolist(), "numpy.ma" in sys.modules)
"""


def test_sphere2_build_and_probe_nodes_do_not_import_numpy_ma():
    # np.unique imports numpy.ma, 8-17 ms of a fresh process; the Fibonacci
    # neighbour search and the probe nodes take sorts instead
    indices, ma = _fresh_python(NO_MA_RUN).stdout.rsplit(" ", 1)
    assert ma.strip() == "False"
    want = np.unique(np.linspace(0, 1279, 64).astype(np.int64))
    assert indices == str(want.tolist())
