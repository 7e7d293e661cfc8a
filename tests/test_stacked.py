"""Stacked densities: one kernel pass for K densities, bitwise as K passes.

A stack of densities shares each kernel block and contracts it with every
density by its own gemm, so every result here must equal the one of a
single-density call bit for bit, not just to rounding.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from hypercauchy import _accel, cli
from hypercauchy.bvp import (CharacteristicCoefficients,
                             apply_characteristic_lhs, invert_cauchy_pv,
                             solve_characteristic_sie, solve_dirichlet)
from hypercauchy.cauchy import (BoundaryDensity, boundary_limit,
                                principal_value_nodes,
                                symmetric_difference_limit,
                                symmetric_difference_steps)
from hypercauchy.surface import DomainSpec, build_mesh
from hypercauchy._corpus import (dirichlet_corpus, inversion_corpus,
                                 random_smooth, rough_holder, sie_corpus)

SPECS = {
    "circle": DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    "sphere2": DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0),
    "sphere3": DomainSpec("sphere", 3, center=(0.0, 0.0, 0.0, 0.0),
                          radius=1.0),
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def mesh(request):
    return build_mesh(SPECS[request.param], 0)


def _densities(mesh, count=3):
    out = [random_smooth(mesh, 20 + k) for k in range(count - 1)]
    return out + [rough_holder(mesh, 7)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("excluded", [False, True])
def test_stacked_accumulators_match_single_calls(mesh, side, excluded,
                                                 monkeypatch):
    # small blocks, so the stack runs through several kernel blocks
    ctx = mesh.context
    monkeypatch.setattr(_accel, "ROW_BLOCK_BYTES",
                        4 * 8 * 2 * mesh.node_count)
    blocks = []
    original = _accel._block_planes

    def counted(*args):
        blocks.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(_accel, "_block_planes", counted)
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    G = np.stack([f.samples * mesh.weights[:, None]
                  for f in _densities(mesh)])
    idx = np.arange(0, mesh.node_count, 5)
    excl = idx if excluded else None
    targets = mesh.nodes[idx] if excluded else 0.5 * mesh.nodes[idx]
    got = accum(ctx, targets, mesh.nodes, G, excl, circle=None)
    assert got.shape == (len(G), len(idx), ctx.dim)
    assert len(blocks) > 2 and max(blocks) <= 4
    for k, g in enumerate(G):
        assert _same_bits(got[k], accum(ctx, targets, mesh.nodes, g, excl,
                                        circle=None))
    one = accum(ctx, targets, mesh.nodes, G[:1], excl, circle=None)
    assert _same_bits(one[0], got[0])


@pytest.mark.parametrize("side", ["left", "right"])
def test_stacked_node_node_tiles_match_single_calls(mesh, side, monkeypatch):
    # every node a target skipping its own: the tile path, with small
    # tiles so the stack runs through several off-diagonal ones, and the
    # FFT route on the circle
    monkeypatch.setattr(_accel, "TILE_EDGE", mesh.node_count // 3)
    ctx = mesh.context
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    G = np.stack([f.samples * mesh.weights[:, None]
                  for f in _densities(mesh)])
    excl = np.arange(mesh.node_count)
    circle = _accel.uniform_circle(mesh.nodes)
    got = accum(ctx, mesh.nodes, mesh.nodes, G, excl, circle=circle)
    assert got.shape == (len(G), mesh.node_count, ctx.dim)
    for k, g in enumerate(G):
        assert _same_bits(got[k], accum(ctx, mesh.nodes, mesh.nodes, g, excl,
                                        circle=circle))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("indices", [None, [0, 3, 17, 40]])
def test_stacked_pv_matches_single_calls(mesh, side, indices):
    fs = _densities(mesh)
    got = principal_value_nodes(mesh, fs, side=side, indices=indices)
    rows = mesh.node_count if indices is None else len(indices)
    assert got.shape == (len(fs), rows, mesh.context.dim)
    for k, f in enumerate(fs):
        single = principal_value_nodes(mesh, f, side=side, indices=indices)
        assert _same_bits(got[k], single)
    one = principal_value_nodes(mesh, fs[1:2], side=side, indices=indices)
    assert _same_bits(one, got[1:2])


@pytest.mark.parametrize("name", ["circle", "sphere2"])
def test_sie_list_matches_single_calls(name):
    mesh = build_mesh(SPECS[name], 1)
    a = BoundaryDensity.constant(mesh, 3.0)
    b = BoundaryDensity.constant(mesh, 1.0)
    co = CharacteristicCoefficients.from_ab(mesh, a, b)
    fs = sie_corpus(mesh)
    sols = solve_characteristic_sie(mesh, co, fs)
    assert len(sols) == len(fs)
    for sol, f in zip(sols, fs):
        single = solve_characteristic_sie(mesh, co, f)
        assert _same_bits(sol.phi.samples, single.phi.samples)
        assert sol.residual == single.residual
        assert sol.phi.regularity == f.regularity
    lhs = apply_characteristic_lhs(mesh, a, b, [s.phi for s in sols])
    assert _same_bits(lhs[2], apply_characteristic_lhs(mesh, a, b,
                                                       sols[2].phi))


@pytest.mark.parametrize("side", ["left", "right"])
def test_stacked_inversion_matches_single_calls(mesh, side):
    fs = _densities(mesh)
    phis = invert_cauchy_pv(mesh, fs, side=side)
    assert len(phis) == len(fs)
    for phi, f in zip(phis, fs):
        single = invert_cauchy_pv(mesh, f, side=side)
        assert _same_bits(phi.samples, single.samples)
        assert _same_bits(single.samples, 2.0 * principal_value_nodes(
            mesh, f, side=side))
        assert phi.regularity == single.regularity == f.regularity
        assert phi.mesh is mesh and phi.evaluator is None


def test_inversion_runner_is_s_applied_twice():
    # the runner's S[S[f]] through invert_cauchy_pv is bitwise two explicit
    # stacked 2 PV calls, the second on densities tagged as the first's
    cfg = cli.resolve_config({"experiment": "inversion"}, ["seed=5"])
    mesh = build_mesh(cfg.domain_spec(), 3)
    fs = inversion_corpus(mesh, seed=cfg.seed + 13)
    once = [BoundaryDensity(mesh, rows, regularity=f.regularity)
            for f, rows in zip(fs, 2.0 * principal_value_nodes(mesh, fs))]
    twice = 2.0 * principal_value_nodes(mesh, once)
    want = cli._norms([np.abs(rows - f.samples).max()
                       for f, rows in zip(fs, twice)])
    assert cli._run_inversion(cfg, mesh) == want + ({},)


def test_pv_rejects_density_from_another_mesh():
    unit = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
    wide = DomainSpec("circle", 1, center=(0.0, 0.0), radius=2.0)
    mesh = build_mesh(unit, 3)
    same_nodes = random_smooth(build_mesh(unit, 3), 1)
    moved = random_smooth(build_mesh(wide, 3), 1)
    coarse = random_smooth(build_mesh(unit, 2), 1)
    # another mesh object with the same nodes is accepted
    assert principal_value_nodes(mesh, same_nodes).shape == (
        mesh.node_count, 2)
    with pytest.raises(ValueError, match=r"^density is sampled on another"):
        principal_value_nodes(mesh, moved)
    with pytest.raises(ValueError, match=r"another mesh \(256 nodes\)"):
        principal_value_nodes(mesh, coarse, indices=[0, 1])
    with pytest.raises(ValueError, match=r"^densities\[1\] is sampled"):
        principal_value_nodes(mesh, [same_nodes, moved])
    with pytest.raises(ValueError, match="at least one density"):
        principal_value_nodes(mesh, [])


@pytest.mark.parametrize("experiment, corpus", [
    ("inversion", inversion_corpus), ("characteristic-sie", sie_corpus)])
def test_corpus_level_takes_two_kernel_passes(monkeypatch, experiment,
                                              corpus):
    # one stacked pass per stage, however many densities the corpus holds;
    # S2 rides in the first one
    calls = []
    for name in ("accum_left", "accum_right"):
        original = getattr(_accel, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(np.shape(args[3]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(_accel, name, counted)
    cfg = cli.resolve_config({"experiment": experiment},
                             ["levels=2", "seed=0"])
    cli.run_experiment(cfg)
    size = len(corpus(build_mesh(cfg.domain_spec(), 2)))
    assert size > 2
    assert len(calls) == 2
    assert [len(shape) for shape in calls] == [3, 3]
    assert calls[0][0] == size + 1


def _dirichlet_case(name, level, case):
    """(mesh, densities, keywords) of a stacked Dirichlet test: the corpus
    as it is ('holder'), every other member tagged continuous, so the stack
    mixes both modes ('continuous'), or an explicit threshold."""
    mesh = build_mesh(SPECS[name], level)
    fs = [dens for _, dens, _ in dirichlet_corpus(mesh)]
    if case == "continuous":
        fs = [dataclasses.replace(f, regularity=("continuous",)) if k % 2
              else f for k, f in enumerate(fs)]
    return mesh, fs, {"threshold": 0.05} if case == "threshold" else {}


@pytest.mark.parametrize("case", ["holder", "continuous", "threshold"])
@pytest.mark.parametrize("name, level", [("circle", 3), ("sphere2", 1),
                                         ("sphere3", 0)])
def test_stacked_dirichlet_matches_single_calls(name, level, case):
    mesh, fs, kw = _dirichlet_case(name, level, case)
    reports = solve_dirichlet(mesh, fs, **kw)
    assert len(reports) == len(fs)
    modes = set()
    for f, rep in zip(fs, reports):
        single = solve_dirichlet(mesh, f, **kw)
        for field in dataclasses.fields(rep):
            got = getattr(rep, field.name)
            want = getattr(single, field.name)
            if field.name == "solution":
                assert (got is None) == (want is None)
                assert got is None or got.density is f
            else:
                assert _same_bits(got, want), field.name
        modes.add(f.is_holder)
    assert modes == ({True, False} if case == "continuous" else {True})
    assert any(rep.solvable for rep in reports)
    assert not all(rep.solvable for rep in reports)


@pytest.mark.parametrize("name, level", [("circle", 3), ("sphere2", 1)])
def test_stacked_dirichlet_takes_four_kernel_passes(name, level, monkeypatch):
    # the exterior probes and the 64-node principal values, on the mesh and
    # on its refinement: four passes, however many densities are solved
    calls = []
    for accum in ("accum_left", "accum_right"):
        original = getattr(_accel, accum)

        def counted(*args, _original=original, **kwargs):
            calls.append(np.shape(args[3]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(_accel, accum, counted)
    mesh = build_mesh(SPECS[name], level)
    fs = [dens for _, dens, _ in dirichlet_corpus(mesh)]
    for densities in (fs[:1], fs, fs[3:]):
        calls.clear()
        solve_dirichlet(mesh, densities)
        assert len(calls) == 4
        assert all(shape[0] >= len(densities) for shape in calls)


# -- pass counts: the Plemelj pair and the stacked ladders -------------------------

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _accumulate_calls(monkeypatch):
    """Record every _accel.accum_left call, the home of every kernel sum."""
    calls = []
    original = _accel.accum_left
    monkeypatch.setattr(_accel, "accum_left", lambda *args, **kwargs: (
        calls.append(1) or original(*args, **kwargs)))
    return calls


def _passes_inside(monkeypatch, module, name, calls):
    """Per call of module.name, the number of entries it adds to calls."""
    inside = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        start = len(calls)
        out = original(*args, **kwargs)
        inside.append(len(calls) - start)
        return out

    monkeypatch.setattr(module, name, counted)
    return inside


def _run_config(name, levels):
    cfg = cli.resolve_config(cli.parse_config_file(CONFIG_DIR / name),
                             ["levels=" + levels])
    return cli.run_experiment(cfg)


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_limit_takes_one_pass(mesh, side, monkeypatch):
    # both limits of the Plemelj pair come from one ladder pass, for one
    # node or many, one density or a stack
    calls = _accumulate_calls(monkeypatch)
    fs = _densities(mesh)
    for f, t in [(fs[0], 3), (fs[0], [0, 3, 17]), (fs, [0, 3, 17])]:
        calls.clear()
        plus, minus = boundary_limit(mesh, f, t, side=side)
        assert len(calls) == 1
        assert np.shape(plus) == np.shape(minus)


@pytest.mark.parametrize("config, residual", [
    ("jump-rm.cfg", "jump_residual"),
    ("constant-gap.cfg", "constant_gap_residual")])
def test_residuals_take_one_ladder_pass_per_level(config, residual,
                                                  monkeypatch):
    calls = _accumulate_calls(monkeypatch)
    inside = _passes_inside(monkeypatch, cli, residual, calls)
    _run_config(config, "2,3")
    assert inside == [1, 1]


def test_dirichlet_runner_takes_one_ladder_call_per_level(monkeypatch):
    # every solved density's two nodes share one symmetric-difference call
    calls = _accumulate_calls(monkeypatch)
    inside = _passes_inside(monkeypatch, cli, "symmetric_difference_limit",
                            calls)
    report = _run_config("dirichlet.cfg", "3,4")
    assert inside == [1, 1]
    assert report.rows[-1].aux["verdict_agreement"] == 1.0
    # each density reads its own rows: the errors of one ladder per density
    # at the same draws
    for row in report.rows:
        mesh = build_mesh(SPECS["circle"], row.level)
        corpus = dirichlet_corpus(mesh, seed=19)
        rng = np.random.default_rng(7)
        errs = [0.0]
        for (_, f, truth), rep in zip(corpus, solve_dirichlet(
                mesh, [f for _, f, _ in corpus])):
            if truth and rep.solvable:
                idx = rng.integers(0, mesh.node_count, size=2)
                rec = symmetric_difference_limit(
                    mesh, f, idx, symmetric_difference_steps(mesh))
                errs.extend(np.abs(rec - f.samples[idx]).max(axis=1))
        assert len(errs) == 21
        assert row.error_maxnorm == pytest.approx(max(errs), rel=1e-12)


@pytest.mark.parametrize("config, levels", [("plemelj-circle.cfg", "3,4"),
                                            ("plemelj-sphere.cfg", "0,1")])
def test_plemelj_level_takes_two_passes(config, levels, monkeypatch):
    # the principal values at the sampled nodes, then the ladder pair
    calls = _accumulate_calls(monkeypatch)
    _run_config(config, levels)
    assert len(calls) == 2 * 2
