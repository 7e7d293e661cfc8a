"""Command-line interface: configs, outputs, determinism and exit codes."""

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
from hypercauchy.clifford_core import (Paravector, conjugate, get_context,
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
        ("experiment = algebra-laws\nlevels = 1\nsurface = sphere3\n"
         "radius = 1e-300\n",
         "surface: experiment algebra-laws does not read"),
        ("experiment = dirichlet\nlevels = 3,4\ndensity = constant\n"
         "radius = 1e120\n", "density: experiment dirichlet does not read"),
        # fixed probe settings, not fields: 8 sampled nodes (4 for the
        # general kernel) and kernel seed 23
        ("experiment = jump-rm\nlevels = 1\nsample_nodes = 8\n",
         "unknown config field 'sample_nodes'"),
        ("experiment = poincare-bertrand\nlevels = 1\nkernel_seed = 23\n",
         "unknown config field 'kernel_seed'"),
        # caught where the config enters, not by a failed run (exit 1)
        ("experiment = jump-rm\nlevels = 1\njump_m = -10\n", "jump_m"),
        ("experiment = constant-gap\nsurface = sphere2\nlevels = 1\n"
         "jump_m = -10\n", "jump_m"),
        ("experiment = pv-constant\nlevels = -1,1\n", "levels"),
        ("experiment = algebra-laws\nlevels = 0,1\n", "levels"),
        ("experiment = algebra-laws\nlevels = 8,9\n", "levels"),
        ("experiment = pv-constant\nlevels = 1\nradius = 0\n", "radius"),
        ("experiment = pv-constant\nlevels = 1\nradius = -1\n", "radius"),
        ("experiment = pv-constant\nlevels = 1\ncenter = 0,0,0\n", "center"),
        ("experiment = pv-constant\nlevels = 1\nseed = -1\n", "seed"),
        ("experiment = constant-gap\nlevels = 1\ngap_g = 2,1,3\n", "gap_g"),
        ("experiment = inversion\nlevels = 1\ndensity = bogus:3\n",
         "density"),
        ("experiment = jump-rm\nlevels = 1\nexpect = unsolveable\n",
         "expect"),
        ("experiment = characteristic-sie\nlevels = 1\nsie_a = 1\n"
         "sie_b = 1\n", "sie_a"),
        ("experiment = characteristic-sie\nlevels = 1\nsie_a = 2\n"
         "sie_b = -2\n", "sie_b"),
        # the residual would evaluate slots past the largest degree
        ("experiment = constant-gap\nlevels = 1\njump_m = 7\n", "jump_m"),
        # geometry whose coarsest mesh has coinciding nodes or weights
        # that leave float64, caught before any run
        ("experiment = pv-constant\nlevels = 1\ncenter = 1e17,0\n",
         "center"),
        ("experiment = pv-constant\nlevels = 1\nradius = 1e308\n",
         "radius"),
        ("experiment = pv-constant\nlevels = 1\nradius = 5e-324\n",
         "radius"),
        ("experiment = dirichlet\nlevels = 1\nradius = 1e308\n", "radius"),
        ("experiment = plemelj\nsurface = sphere2\nlevels = 1\n"
         "radius = 1e308\n", "radius"),
        # geometry that builds at level 0 but whose level-4 nodes, 0.0061
        # apart, would coincide about a center of 1e14
        ("experiment = pv-constant\nlevels = 2,3,4\ncenter = 1e14,0\n",
         "center, radius: nodes of level 4"),
        # sphere radii whose square or cube leaves float64 give inf
        # weights, refused as the circle's are
        ("experiment = plemelj\nsurface = sphere2\nlevels = 1\n"
         "radius = 1e308\n", "center, radius: weights row 0 is not finite"),
        ("experiment = pv-constant\nsurface = sphere3\nlevels = 1\n"
         "center = 0,0,0,0\nradius = 1e200\n",
         "center, radius: weights row 0 is not finite"),
        # a level too deep for any center and radius names levels
        ("experiment = pv-constant\nlevels = 2,60\n",
         "levels: nodes of level 60"),
        ("experiment = pv-constant\nsurface = sphere3\nlevels = 0,20\n"
         "center = 0,0,0,0\n", "levels: nodes of level 20"),
        # levels whose nodes float64 resolves but past MAX_NODES nodes,
        # refused before any mesh past level 0 is built
        ("experiment = pv-constant\nlevels = 2,24\n",
         "levels: level 24 would have 1.074e+09 nodes"),
        ("experiment = pv-constant\nsurface = sphere2\ncenter = 0,0,0\n"
         "levels = 2,40\n", "levels: level 40 would have 3.518e+14 nodes"),
        ("experiment = pv-constant\nsurface = sphere3\ncenter = 0,0,0,0\n"
         "levels = 0,4\n", "levels: level 4 would have 5.243e+05 nodes"),
        # a level past C long's range
        ("experiment = pv-constant\nlevels = 2,%d\n" % 10 ** 30, "levels"),
        # corpus traces whose squares (or the rough members' norms) leave
        # float64, refused without sampling the corpus: the settings of
        # configs/plemelj-sphere.cfg, plemelj-circle.cfg and inversion.cfg
        ("experiment = plemelj\nsurface = sphere2\nlevels = 3,4\n"
         "radius = 1e140\ncenter = 1e150,0,0\n",
         "center, radius: the corpus's traces of degree 2"),
        ("experiment = plemelj\nsurface = circle\nlevels = 5,6\n"
         "radius = 1e140\ncenter = 1e150,0\n",
         "center, radius: the corpus's traces of degree 2"),
        ("experiment = inversion\nsurface = circle\nlevels = 3,4,5,6\n"
         "radius = 1e140\ncenter = 1e150,0\n",
         "center, radius: the corpus's traces of degree 2"),
        # order-at-infinity's moments reach degree 6 (configs/
        # order-at-infinity.cfg's settings)
        ("experiment = order-at-infinity\nsurface = circle\nlevels = 4,5\n"
         "radius = 1e30\ncenter = 0,0\n",
         "center, radius: the corpus's traces of degree 6"),
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
    cfg = _fast_config(tmp_path)
    assert main(["run", cfg, "--set", "levels"]) == 2
    for key in ("sample_nodes", "kernel_seed"):
        assert main(["run", cfg, "--set", "%s=4" % key]) == 2
        assert "unknown config field %r" % key in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["500", "1000"])
def test_order_at_infinity_holds_at_large_radii(tmp_path, capsys, radius):
    # each moment degree is judged against its own refinement change; one
    # threshold for all degrees grew like radius^6 and buried degree 0
    out = tmp_path / "order.json"
    assert main(["run", str(CONFIG_DIR / "order-at-infinity.cfg"), "--set",
                 "center=0,0", "--set", "radius=" + radius, "--set",
                 "json=%s" % out, "--set", "csv="]) == 0
    for aux in json.loads(out.read_text())["auxiliary"].values():
        assert [aux["order_N%d" % N] for N in range(3)] == [-1, -2, -3]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, template", [
    ("radius", "%s"), ("sie_a", "%s"), ("sie_b", "%s"),
    ("tolerance", "%s"), ("min_order", "%s"),
    ("center", "0,%s"), ("gap_g", "%s,1"),
])
def test_config_rejects_nonfinite_numbers(key, template, bad):
    setting = "%s=%s" % (key, template % bad)
    with pytest.raises(ConfigError, match=r"^%s: expected a finite number"
                       % key):
        resolve_config({"experiment": "pv-constant"}, [setting])


def test_nonfinite_density_is_refused_without_a_warning(capsys):
    # the density's samples overflow at radius 1e200; the refusal is the
    # only line on stderr
    assert main(["run", str(CONFIG_DIR / "inversion.cfg"), "--set",
                 "density=rough:3", "--set", "radius=1e200"]) == 2
    err = capsys.readouterr().err
    assert err == "config: density: samples row 0 is not finite\n"


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
    "center": _lists(_FLOATS, 6),
    "radius": _FLOATS,
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
    **{key: _FLOATS for key in ("sie_a", "sie_b", "tolerance", "min_order")},
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
    @example(overrides=["surface=sphere2", "center=0,0,0", "levels=2,40"])
    @example(overrides=["surface=sphere3", "center=0,0,0,0", "levels=0,4"])
    @example(overrides=["levels=2,%d" % 10 ** 30])
    @example(overrides=["density=rough:3", "radius=1e200"])
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


def test_numerical_failure_exit_1(tmp_path, capsys):
    # G = 1 + e123 is a zero divisor in C(V_3): (1 + e123)(1 - e123) = 0,
    # so the gap conjugation cannot invert it
    body = "\n".join([
        "experiment = constant-gap",
        "surface = sphere3",
        "levels = 0",
        "gap_g = 1,0,0,0,0,0,0,1",
        "tolerance = 1e-4",
        "json = %s" % (tmp_path / "err.json"),
    ])
    cfg = _write_config(tmp_path, "sie.cfg", body + "\n")
    assert main(["run", cfg]) == 1
    doc = json.loads((tmp_path / "err.json").read_text())
    assert doc["passed"] is False
    assert "error" in doc and "SingularInputError" in doc["error"]


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
        "surface,", "center,", "radius,", "density,", "jump_m,", "expect"]


def test_mesh_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    assert main(["mesh", "export", "circle,level=2,radius=2.0",
                 str(path)]) == 0
    mesh = load_mesh(path)
    assert mesh.n == 1
    assert mesh.node_count == 64 * 2 ** 2
    assert np.max(np.abs(np.linalg.norm(mesh.nodes, axis=1) - 2.0)) <= 1e-12
    assert main(["mesh", "export", "torus,level=1", str(path)]) == 2


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
