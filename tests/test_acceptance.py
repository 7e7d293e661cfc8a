"""End-to-end accuracy gates.

Each test pins an independently calibrated tolerance for one headline
guarantee: principal values of constants, reproduction/annihilation of
monogenic traces, Plemelj limits, involution of the singular operator,
decaying-class jump solutions, Dirichlet verdicts, degeneration to the
classical complex formulas, orders at infinity, algebra laws, the
characteristic equation and the iterated-principal-value experiment.
"""

import numpy as np

from hypercauchy.bvp import (
    CharacteristicCoefficients,
    invert_cauchy_pv,
    poincare_bertrand_discrepancy,
    solve_characteristic_sie,
    solve_dirichlet,
    solve_jump_rm,
)
from hypercauchy.cauchy import (
    BoundaryDensity,
    boundary_limit,
    cauchy_integral,
    kernel_E,
    plemelj_values,
    principal_value_nodes,
    symmetric_difference_limit,
)
from hypercauchy.clifford_core import (
    Paravector,
    batch_product,
    conjugate,
    get_context,
)
from hypercauchy.fueter import (
    multi_indices,
    order_at_infinity,
    symmetric_power_rows,
)
from hypercauchy.surface import DomainSpec, build_mesh
from hypercauchy._corpus import (
    dirichlet_corpus,
    interior_pole,
    inversion_corpus,
    kernel_combo,
    kernel_trace,
    plemelj_corpus,
    product_kernel,
    random_smooth,
    sie_corpus,
    symmetric_power_trace,
    trig_polynomial,
    trig_polynomial_pv,
)

PV_CONST_TOL_CIRCLE = 1e-6
PV_CONST_TOL_SPHERE = 1e-3
REPRODUCTION_TOL = 1e-3
PLEMELJ_TOL_CIRCLE = 1e-4
PLEMELJ_TOL_SPHERE = 1e-2
INVERSION_TOL = 1e-3
INVERSION_MIN_ORDER = 1.0
JUMP_REL_TOL = 1e-3
DIRICHLET_RECON_TOL = 1e-2
CLASSICAL_TOL = 1e-8
SLOPE_DEV_TOL = 0.2
BLADE_DIMS = [1, 2, 3]
PARAVECTOR_INVERSE_TOL = 1e-12
PARAVECTOR_SAMPLES = 10_000
SIE_TOL_CIRCLE = 1e-4
SIE_TOL_SPHERE = 1e-2
PB_MIN_ORDER = 1.0

CIRCLE = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
SPHERE = DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0)


def _probe_nodes(mesh, count):
    return np.unique(np.linspace(0, mesh.node_count - 1, count).astype(int))


def _fitted_order(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def test_pv_of_constant_density(circle_fine):
    for mesh, tol in ((circle_fine, PV_CONST_TOL_CIRCLE),
                      (build_mesh(SPHERE, 6), PV_CONST_TOL_SPHERE)):
        ones = BoundaryDensity.constant(mesh, 1.0)
        idx = _probe_nodes(mesh, 32)
        rows = principal_value_nodes(mesh, ones, indices=idx)
        want = np.zeros(mesh.context.dim)
        want[0] = 0.5
        assert np.max(np.abs(rows - want[None, :])) <= tol


def test_reproduction_and_annihilation_of_monogenic_traces():
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((4, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    errs = []
    for level in (2, 3, 4):
        mesh = build_mesh(SPHERE, level)
        ctx = mesh.context
        worst = 0.0
        for degree in range(4):
            for alpha in multi_indices(2, degree):
                g = symmetric_power_trace(mesh, alpha)
                for v in dirs:
                    want = symmetric_power_rows(ctx, alpha, 0.55 * v)[0]
                    denom = max(1.0, float(np.abs(want).max()))
                    got = cauchy_integral(mesh, g, 0.55 * v).value.coeffs
                    worst = max(worst, np.abs(got - want).max() / denom)
                    ext = cauchy_integral(mesh, g, 1.8 * v).value.coeffs
                    worst = max(worst, np.abs(ext).max() / denom)
        errs.append(worst)
    assert errs[-1] <= REPRODUCTION_TOL
    assert all(a > b for a, b in zip(errs, errs[1:]))


def _plemelj_worst(mesh):
    rng = np.random.default_rng(3)
    idx = rng.choice(mesh.node_count, size=3, replace=False)
    worst = 0.0
    for f in plemelj_corpus(mesh):
        for i in idx:
            plus, minus = plemelj_values(mesh, f, int(i))
            lim_p, lim_m = boundary_limit(mesh, f, int(i))
            worst = max(worst,
                        float(np.abs(plus.coeffs - lim_p.coeffs).max()),
                        float(np.abs(minus.coeffs - lim_m.coeffs).max()))
    return worst


def test_plemelj_limits_circle(circle_fine):
    assert _plemelj_worst(circle_fine) <= PLEMELJ_TOL_CIRCLE


def test_plemelj_limits_sphere():
    mesh = build_mesh(SPHERE, 4)
    assert _plemelj_worst(mesh) <= PLEMELJ_TOL_SPHERE


def test_singular_operator_involution_converges():
    errs, hs = [], []
    for level in (3, 4, 5, 6):
        mesh = build_mesh(CIRCLE, level)
        worst = 0.0
        for f in inversion_corpus(mesh):
            phi = invert_cauchy_pv(mesh, f)
            back = 2.0 * principal_value_nodes(mesh, phi)
            worst = max(worst, float(np.abs(back - f.samples).max()))
        errs.append(worst)
        hs.append(mesh.h)
    assert errs[-1] <= INVERSION_TOL
    assert _fitted_order(hs, errs) >= INVERSION_MIN_ORDER


def test_jump_solution_in_decaying_class_is_the_pole_field(circle_mesh):
    pole = interior_pole(CIRCLE, seed=2, frac=0.35)
    g = kernel_trace(circle_mesh, pole, scale=-1.0)
    sol, rep = solve_jump_rm(circle_mesh, g, -1)
    assert rep.verdict == "unconditional"
    assert len(rep.residuals) == 0 and len(sol.polynomial) == 0
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((4, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for v in dirs:
        ref = kernel_E(1.9 * v, pole).as_point()
        scale = float(np.abs(ref).max())
        # interior section vanishes, exterior equals the pole field
        assert np.abs(sol.interior(0.5 * v).coeffs).max() <= JUMP_REL_TOL * scale
        ext = sol.exterior(1.9 * v).coeffs
        assert np.abs(ext - ref).max() <= JUMP_REL_TOL * scale
    # one degree more decay adds exactly one (violated) moment condition
    sol_fast, rep_fast = solve_jump_rm(circle_mesh, g, -2)
    assert sol_fast is None
    assert rep_fast.verdict == "unsolvable"
    assert len(rep_fast.residuals) == 1


def _dirichlet_agreement(mesh):
    verdicts_ok = 0
    recon_worst = 0.0
    lams = 0.35 * 2.0 ** -np.arange(4)
    for name, dens, solvable in dirichlet_corpus(mesh):
        rep = solve_dirichlet(mesh, dens)
        if rep.solvable == solvable:
            verdicts_ok += 1
        if solvable:
            rec = symmetric_difference_limit(mesh, dens, 7, lams)
            recon_worst = max(recon_worst,
                              float(np.abs(rec.coeffs
                                           - dens.samples[7]).max()))
    return verdicts_ok, recon_worst


def test_dirichlet_verdicts_and_reconstruction(circle_mesh, sphere_mesh):
    for mesh in (circle_mesh, sphere_mesh):
        verdicts_ok, recon_worst = _dirichlet_agreement(mesh)
        assert verdicts_ok == 15
        assert recon_worst <= DIRICHLET_RECON_TOL


def test_degeneration_to_classical_complex_formulas(circle_fine):
    # under e_1 <-> i the PV multiplies each circular mode e^{im theta}
    # by +1/2 (m >= 0) or -1/2 (m < 0); residue calculus gives the rows
    idx = _probe_nodes(circle_fine, 16)
    worst = 0.0
    for k in range(5):
        dens, coeffs = trig_polynomial(circle_fine, seed=100 + k)
        pv_rows = trig_polynomial_pv(circle_fine, coeffs)
        got = principal_value_nodes(circle_fine, dens, indices=idx)
        want = pv_rows(circle_fine.nodes[idx])
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= CLASSICAL_TOL


def test_order_at_infinity_of_constructed_families():
    for spec, level, n in ((CIRCLE, 5, 1), (SPHERE, 3, 2)):
        mesh = build_mesh(spec, level)
        for N in (0, 1, 2):
            g = kernel_combo(mesh, N, seed=5)
            rep = order_at_infinity(mesh, g)
            assert rep.order == -n - N
            assert rep.first_moment_degree == N
            assert not rep.undetermined
            assert abs(rep.slope_raw - round(rep.slope_raw)) <= SLOPE_DEV_TOL


def test_algebra_laws_bulk():
    for n in BLADE_DIMS:
        ctx = get_context(n)
        blades = [ctx.basis_blade(a) for a in range(ctx.dim)]
        for a in blades:
            for b in blades:
                assert np.array_equal(conjugate(a * b).coeffs,
                                      (conjugate(b) * conjugate(a)).coeffs)
                for c in blades:
                    assert np.array_equal(((a * b) * c).coeffs,
                                          (a * (b * c)).coeffs)
    ctx = get_context(3)
    rng = np.random.default_rng(9)
    coords = rng.normal(size=(PARAVECTOR_SAMPLES, 4))
    keep = np.linalg.norm(coords, axis=1) > 1e-6
    coords = coords[keep]
    rows = np.zeros((coords.shape[0], ctx.dim))
    rows[:, 0] = coords[:, 0]
    rows[:, [1, 2, 4]] = coords[:, 1:]
    inv_rows = np.zeros_like(rows)
    for i, p in enumerate(coords):
        pi = Paravector(p[0], p[1:]).inverse()
        inv_rows[i, 0] = pi.x0
        inv_rows[i, [1, 2, 4]] = pi.vec
    e0 = np.eye(ctx.dim)[0]
    for prod in (batch_product(ctx, rows, inv_rows),
                 batch_product(ctx, inv_rows, rows)):
        assert np.max(np.abs(prod - e0[None, :])) <= PARAVECTOR_INVERSE_TOL


def test_characteristic_sie_corpus_converges():
    for spec, levels, tol in ((CIRCLE, (3, 4, 5, 6), SIE_TOL_CIRCLE),
                              (SPHERE, (1, 2), SIE_TOL_SPHERE)):
        errs = []
        for level in levels:
            mesh = build_mesh(spec, level)
            co = CharacteristicCoefficients.from_ab(
                mesh, BoundaryDensity.constant(mesh, 3.0),
                BoundaryDensity.constant(mesh, 1.0))
            worst = max(solve_characteristic_sie(mesh, co, f).residual
                        for f in sie_corpus(mesh))
            errs.append(worst)
        assert errs[-1] <= tol
        assert all(x > y for x, y in zip(errs, errs[1:]))


def test_iterated_principal_values():
    # separable kernels must balance to quadrature error with a clear trend
    errs, hs = [], []
    for level in (3, 4, 5):
        mesh = build_mesh(CIRCLE, level)
        rep = poincare_bertrand_discrepancy(mesh, f=random_smooth(mesh, 31))
        errs.append(rep.discrepancy_max)
        hs.append(mesh.h)
    assert _fitted_order(hs, errs) >= PB_MIN_ORDER
    # the general-kernel commutation defect is reported as data, not gated
    general = []
    for level in (2, 3):
        mesh = build_mesh(CIRCLE, level)
        rep = poincare_bertrand_discrepancy(mesh, k=product_kernel(mesh, 23),
                                            sample_nodes=4)
        assert np.all(np.isfinite(rep.lhs)) and np.all(np.isfinite(rep.rhs))
        general.append(rep.discrepancy_max)
    assert all(v < 1.0 for v in general)
