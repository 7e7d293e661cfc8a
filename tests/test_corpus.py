"""Named density families: determinism, labels and declared regularity."""

import numpy as np
import pytest

from hypercauchy.surface import DomainSpec, build_mesh, refine
from hypercauchy.cauchy import BoundaryDensity
from hypercauchy.clifford_core import batch_product
from hypercauchy.fueter import multi_indices, symmetric_power_rows
from hypercauchy._corpus import (
    DENSITY_FAMILIES,
    SMOOTH_DEGREE,
    _kernel_coeff_rows,
    _monomials,
    _unit_direction,
    dirichlet_corpus,
    exterior_pole,
    holomorphic_combo,
    interior_pole,
    inversion_corpus,
    kernel_combo,
    kernel_trace,
    make_density,
    plemelj_corpus,
    polynomial_trace,
    product_kernel,
    random_smooth,
    random_smooths,
    rough_holder,
    sie_corpus,
    symmetric_power_trace,
    symmetric_power_traces,
    trig_polynomial,
    trig_polynomial_pv,
)

from conftest import spot_check

EVAL_TOL = 1e-12

DENSITY_NAMES = [
    "constant",
    "coord:0",
    "zpow:2",
    "poly:0.5,1.0",
    "etrace:in",
    "etrace:out",
    "netrace:in",
    "ecombo:1",
    "smooth:4",
    "rough:4",
    "trig:4",
]


def test_pole_placement(circle_spec):
    p_in = interior_pole(circle_spec, seed=2, frac=0.35)
    assert abs(np.linalg.norm(p_in) - 0.35) <= 1e-12
    p_out = exterior_pole(circle_spec, seed=2)
    assert np.linalg.norm(p_out) > 1.5
    assert np.array_equal(p_in, interior_pole(circle_spec, seed=2, frac=0.35))


def test_corpus_sizes_and_determinism(circle_mesh):
    a = plemelj_corpus(circle_mesh)
    b = plemelj_corpus(circle_mesh)
    assert len(a) == 10
    for da, db in zip(a, b):
        assert np.array_equal(da.samples, db.samples)
    assert len(inversion_corpus(circle_mesh)) == 10
    assert len(sie_corpus(circle_mesh)) == 7


def test_dirichlet_corpus_labels(circle_mesh, sphere_mesh):
    for mesh in (circle_mesh, sphere_mesh):
        members = dirichlet_corpus(mesh)
        assert len(members) == 15
        labels = [solvable for _, _, solvable in members]
        assert sum(labels) == 10 and labels.count(False) == 5
        names = [name for name, _, _ in members]
        assert len(set(names)) == len(names)


def test_evaluators_match_samples_on_refined_mesh(circle_mesh):
    fine = refine(circle_mesh)
    for dens in plemelj_corpus(circle_mesh):
        if dens.evaluator is None:
            continue
        refd = BoundaryDensity.from_function(fine, dens.evaluator,
                                             regularity=dens.regularity)
        direct = np.array([np.atleast_2d(dens.evaluator(x))[0]
                           for x in fine.nodes[:8]])
        assert np.max(np.abs(refd.samples[:8] - direct)) <= EVAL_TOL


def test_corpus_members_pass_spot_check(circle_mesh):
    rng = np.random.default_rng(0)
    for dens in inversion_corpus(circle_mesh):
        spot_check(dens, rng=rng)


def test_make_density_names(circle_mesh):
    for name in DENSITY_NAMES:
        dens = make_density(circle_mesh, name, seed=3)
        assert dens.samples.shape == (circle_mesh.node_count, 2)
        assert np.isfinite(dens.samples).all()
    with pytest.raises(ValueError):
        make_density(circle_mesh, "fourier:3")
    # `hypercauchy list` prints DENSITY_FAMILIES: every family, each built
    family = lambda entry: entry.partition(":")[0]
    assert sorted({family(e) for e in DENSITY_NAMES}) == \
        sorted(family(e) for e in DENSITY_FAMILIES)


def test_regularity_tags(circle_mesh):
    assert kernel_trace(circle_mesh,
                        np.array([0.2, 0.1])).regularity[0] == "holder"
    rough = rough_holder(circle_mesh, 4, exponent=1.5)
    tag, mu, M = rough.regularity
    assert tag == "holder" and mu == 1.0
    softer = rough_holder(circle_mesh, 4, exponent=0.5)
    assert softer.regularity[1] == 0.5


def test_polynomial_and_symmetric_traces(circle_mesh):
    dens = polynomial_trace(circle_mesh, [1.0, 0.5])
    assert np.isfinite(dens.samples).all()
    sym = symmetric_power_trace(circle_mesh, (2,))
    from hypercauchy.fueter import symmetric_power_rows
    want = symmetric_power_rows(circle_mesh.context, (2,), circle_mesh.nodes)
    assert np.allclose(sym.samples, want, atol=1e-14)


def test_kernel_combo_moment_cancellation(circle_mesh):
    from hypercauchy.fueter import boundary_moment
    for N in (1, 2):
        dens = kernel_combo(circle_mesh, N)
        for k in range(N):
            m = boundary_moment(circle_mesh, dens, (k,))
            assert np.max(np.abs(m.coeffs)) <= 1e-8, (N, k)


def test_trig_polynomial_closed_form_pv(circle_fine):
    dens, coeffs = trig_polynomial(circle_fine, seed=3)
    pv_rows = trig_polynomial_pv(circle_fine, coeffs)
    from hypercauchy.cauchy import principal_value_nodes
    got = principal_value_nodes(circle_fine, dens, indices=[0, 7, 19])
    want = pv_rows(circle_fine.nodes[[0, 7, 19]])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_product_kernel_shape(circle_mesh):
    kmat = product_kernel(circle_mesh, 23)
    N = circle_mesh.node_count
    for rows in (kmat.left, kmat.right):
        assert rows.shape == (N, 2)
        assert np.isfinite(rows).all()


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
    DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0),
], ids=["circle", "sphere2", "sphere3"])
def test_product_kernel_matches_column_formula(spec):
    mesh = build_mesh(spec, 0)
    ctx = mesh.context
    fe = random_smooth(mesh, 23).evaluator
    ge = random_smooth(mesh, 24).evaluator
    kmat = product_kernel(mesh, 23)
    # k(x_j, t_i) = f(x_j) (0.2 g(t_i) + e_0), one column per node
    for i, t in enumerate(mesh.nodes):
        tail = 0.2 * np.asarray(ge(t), dtype=np.float64)
        tail[0] += 1.0
        want = batch_product(ctx, np.atleast_2d(fe(mesh.nodes)), tail)
        assert np.array_equal(batch_product(ctx, kmat.left, kmat.right[i]),
                              want)


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.3, -0.1), radius=1.2),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
    DomainSpec("sphere", 3, center=(0.1, 0.0, -0.2, 0.0), radius=0.8),
], ids=["circle", "sphere2", "sphere3"])
def test_random_smooth_matches_the_monomial_formula(spec):
    # the power table forms each monomial bitwise as prod(xh ** e), the
    # product taken left to right over the coordinates
    mesh = build_mesh(spec, 1)
    dens = random_smooth(mesh, 8)
    rng = np.random.default_rng(8)
    exps = _monomials(mesh.n + 1, SMOOTH_DEGREE)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(exps), mesh.context.dim))
    coeffs /= len(exps)
    xh = (mesh.nodes - spec.center_array) / spec.radius
    want = np.zeros_like(dens.samples)
    for e, c in zip(exps, coeffs):
        want += np.prod(xh ** np.asarray(e), axis=1)[:, None] * c[None, :]
    assert dens.samples.tobytes() == want.tobytes()


# -- one monomial table per corpus -------------------------------------------------

TABLE_SPECS = [DomainSpec("circle", 1, center=(0.3, -0.2), radius=1.7),
               DomainSpec("sphere", 2, center=(0.1, 0.0, -0.4), radius=0.8),
               DomainSpec("sphere", 3)]


def _smooth_as_formed_before(mesh, seed, pts):
    # one polynomial from its own table, every power by pow
    spec, dim = mesh.spec, mesh.context.dim
    rng = np.random.default_rng(seed)
    exps = _monomials(mesh.n + 1, SMOOTH_DEGREE)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(exps), dim)) / len(exps)
    xh = (pts - spec.center_array) / spec.radius
    powers = [xh ** np.full(xh.shape[1], d) for d in range(SMOOTH_DEGREE + 1)]
    out = np.zeros((pts.shape[0], dim))
    for e, c in zip(exps, coeffs):
        mono = powers[e[0]][:, 0]
        for col, d in enumerate(e[1:], 1):
            mono = mono * powers[d][:, col]
        out += mono[:, None] * c[None, :]
    return out


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=["circle", "sphere2",
                                                   "sphere3"])
def test_random_smooths_are_one_call_per_seed(spec):
    mesh = build_mesh(spec, 0)
    seeds = [3, 11, 12, 40]
    pts = spec.center_array + 1.3 * spec.radius * np.random.default_rng(
        5).normal(size=(6, mesh.n + 1))
    for dens, seed in zip(random_smooths(mesh, seeds), seeds):
        one = random_smooth(mesh, seed)
        assert np.array_equal(_bits(dens.samples), _bits(one.samples))
        assert np.array_equal(_bits(dens.samples),
                              _bits(_smooth_as_formed_before(mesh, seed,
                                                             mesh.nodes)))
        rows = dens.evaluator(pts)
        assert np.array_equal(_bits(rows), _bits(one.evaluator(pts)))
        assert np.array_equal(_bits(rows),
                              _bits(_smooth_as_formed_before(mesh, seed, pts)))
        assert np.array_equal(_bits(dens.evaluator(pts[2])), _bits(rows[2]))


@pytest.mark.parametrize("spec", TABLE_SPECS[1:], ids=["sphere2", "sphere3"])
def test_power_table_traces_match_one_power_each(spec):
    mesh = build_mesh(spec, 0)
    ctx = mesh.context
    alphas = [a for k in range(4) for a in multi_indices(mesh.n, k)]
    for alpha, dens in zip(alphas, symmetric_power_traces(mesh, alphas)):
        want = symmetric_power_rows(ctx, alpha, mesh.nodes)
        assert np.array_equal(_bits(dens.samples), _bits(want))
        assert np.array_equal(_bits(dens.evaluator(mesh.nodes[:5])),
                              _bits(want[:5]))
    coeffs = [0.5, 0.0, -1.25, 2.0, 0.0, 0.75, 1.5]
    want = np.zeros((mesh.node_count, ctx.dim))
    for c, alpha in zip(coeffs, _monomials(mesh.n, 6)):
        if c != 0.0:
            want += c * symmetric_power_rows(ctx, alpha, mesh.nodes)
    assert np.array_equal(_bits(polynomial_trace(mesh, coeffs).samples),
                          _bits(want))


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=["circle", "sphere2",
                                                   "sphere3"])
def test_holomorphic_combo_matches_one_power_per_part(spec):
    mesh = build_mesh(spec, 0)
    ctx = mesh.context
    rng = np.random.default_rng(29)
    alphas = _monomials(mesh.n, 2)
    pole = spec.center_array + rng.uniform(1.6, 2.4) * spec.radius * \
        _unit_direction(rng, spec.n + 1)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(alphas) + 1, ctx.dim)) \
        / (len(alphas) + 1)
    parts = [symmetric_power_rows(ctx, a, mesh.nodes) for a in alphas]
    parts.append(_kernel_coeff_rows(ctx, mesh.nodes, pole))
    want = np.zeros((mesh.node_count, ctx.dim))
    for part, c in zip(parts, coeffs):
        want += batch_product(ctx, part, c)
    got = holomorphic_combo(mesh, 29)
    assert np.array_equal(_bits(got.samples), _bits(want))
    assert np.array_equal(_bits(got.evaluator(mesh.nodes[3])), _bits(want[3]))
