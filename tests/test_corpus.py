"""Named density families: determinism, labels and declared regularity."""

import numpy as np
import pytest

from hypercauchy.surface import DomainSpec, build_mesh, refine
from hypercauchy.cauchy import BoundaryDensity
from hypercauchy.clifford_core import batch_product
from hypercauchy._corpus import (
    DENSITY_FAMILIES,
    SMOOTH_DEGREE,
    _monomials,
    dirichlet_corpus,
    exterior_pole,
    interior_pole,
    inversion_corpus,
    kernel_combo,
    kernel_trace,
    make_density,
    plemelj_corpus,
    polynomial_trace,
    product_kernel,
    random_smooth,
    rough_holder,
    sie_corpus,
    symmetric_power_trace,
    trig_polynomial,
    trig_polynomial_pv,
)

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
        dens.spot_check(rng=rng)


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
    assert kmat.shape == (N, N, 2)
    assert np.isfinite(kmat[:, :]).all()


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
        assert np.array_equal(kmat[:, i], want)


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
