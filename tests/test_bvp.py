"""Jump problems, gap conjugation, Dirichlet verdicts, SIE and iterated PVs."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hypercauchy import _accel, bvp, cauchy, fueter
from hypercauchy.bvp import (
    CharacteristicCoefficients,
    ProductKernel,
    _matrix_pv_rows,
    _pair_orthogonality,
    apply_characteristic_lhs,
    apply_full_sie_lhs,
    constant_gap_residual,
    invert_cauchy_pv,
    invert_rows,
    jump_residual,
    pair_orthogonality,
    poincare_bertrand_discrepancy,
    solve_characteristic_sie,
    solve_constant_gap,
    solve_dirichlet,
    solve_jump_rm,
)
from hypercauchy.cauchy import (
    BoundaryDensity,
    boundary_limit,
    gradient_stencil,
    kernel_E,
    kernel_E_rows,
    principal_value_nodes,
    symmetric_difference_limit,
    symmetric_difference_steps,
    unit_sphere_area,
)
from hypercauchy.clifford_core import (Multivector, Paravector,
                                      SingularInputError, batch_product,
                                      get_context, paravectors_as_coeffs,
                                      product, sided_sum)
from hypercauchy.fueter import (DegreeOverflowError, boundary_moment,
                                multi_indices, order_at_infinity,
                                symmetric_power_rows)
from hypercauchy.surface import (DomainSpec, build_mesh, load_mesh, refine,
                                 save_mesh)
from hypercauchy._corpus import (
    coordinate_trace,
    dirichlet_corpus,
    holomorphic_combo,
    interior_pole,
    kernel_combo,
    kernel_trace,
    product_kernel,
    random_smooth,
)

JUMP_TOL = 1e-4
MOMENT_EXACT_TOL = 1e-10
SIE_CONST_TOL = 1e-14
SIE_RESIDUAL_TOL = 1e-10
INVOLUTION_TOL = 1e-10
PB_SEPARABLE_TOL = 1e-9


def test_jump_unconditional_with_free_slots(circle_mesh):
    g = random_smooth(circle_mesh, 7)
    sol, rep = solve_jump_rm(circle_mesh, g, 1)
    assert rep.verdict == "unconditional"
    assert rep.condition_count == 0
    assert rep.freedom_count == math.comb(2, 1)
    assert [a for a, _ in sol.polynomial] == [(0,), (1,)]
    assert jump_residual(circle_mesh, sol, g) <= JUMP_TOL


def test_jump_polynomial_part_preserves_jump(circle_mesh):
    g = random_smooth(circle_mesh, 7)
    sol, _ = solve_jump_rm(circle_mesh, g, 1)
    shifted = sol.with_polynomial({(1,): np.array([0.3, -0.2])})
    base = jump_residual(circle_mesh, sol, g)
    moved = jump_residual(circle_mesh, shifted, g)
    assert abs(base - moved) <= 1e-12
    w = np.array([0.2, 0.3])
    delta = shifted.interior(w).coeffs - sol.interior(w).coeffs
    assert np.max(np.abs(delta)) > 1e-3  # the section itself does move
    with pytest.raises(KeyError):
        sol.with_polynomial({(2,): np.array([1.0, 0.0])})


@pytest.mark.parametrize("side", ["left", "right"])
def test_polynomial_part_multiplies_on_the_regularity_side(sphere_mesh, side):
    ctx = sphere_mesh.context
    rng = np.random.default_rng(3)
    sol, _ = solve_jump_rm(sphere_mesh, random_smooth(sphere_mesh, 7), 1,
                           side=side)
    coeffs = {alpha: rng.standard_normal(ctx.dim)
              for alpha, _ in sol.polynomial}
    w = np.array([0.1, 0.2, -0.3])
    want = 0.0
    for alpha, c in coeffs.items():
        Z = Multivector(ctx, symmetric_power_rows(ctx, alpha, w)[0])
        c = Multivector(ctx, c)
        want = want + (Z * c if side == "left" else c * Z).coeffs
    delta = (sol.with_polynomial(coeffs).interior(w).coeffs
             - sol.interior(w).coeffs)
    assert np.max(np.abs(delta - want)) <= 1e-12


def test_jump_and_order_share_the_refinement_threshold(sphere_spec):
    # both judge fine-mesh moment norms against max(10 * coarse-to-fine
    # change, 1e-8 * max|g|): the jump problem every alpha against the
    # largest change over its alphas, the order each degree's largest norm
    # against that norm's own change
    mesh = build_mesh(sphere_spec, 0)
    g = kernel_combo(mesh, 1)
    fine = refine(mesh)
    gf = BoundaryDensity.from_function(fine, g.evaluator,
                                       regularity=g.regularity)
    floor = 1e-8 * float(np.abs(g.samples).max())
    alphas = [a for k in range(7) for a in multi_indices(2, k)]
    norms = [{a: float(np.linalg.norm(boundary_moment(d.mesh, d, a).coeffs))
              for a in alphas} for d in (g, gf)]
    jump_alphas = [a for a in alphas if sum(a) <= 2]
    est = max(abs(norms[1][a] - norms[0][a]) for a in jump_alphas)
    _, rep = solve_jump_rm(mesh, g, -5)   # |alpha| <= -(n + m) - 1 = 2
    assert rep.residuals == {a: norms[1][a] for a in jump_alphas}
    assert rep.threshold == max(10.0 * est, floor)
    maxima = [{k: max(v[a] for a in multi_indices(2, k)) for k in range(7)}
              for v in norms]
    order = order_at_infinity(mesh, g)
    assert order.moment_norms == maxima[1]
    assert order.thresholds == {
        k: max(10.0 * abs(maxima[1][k] - maxima[0][k]), floor)
        for k in range(7)}


def test_jump_decaying_class_needs_vanishing_moments(circle_spec, circle_mesh):
    # degree-1 combo has a vanishing total charge: solvable at m = -n-1
    g = kernel_combo(circle_mesh, 1)
    sol, rep = solve_jump_rm(circle_mesh, g, -2)
    assert rep.verdict == "solvable"
    assert rep.condition_count == 1
    assert max(rep.residuals.values()) <= rep.threshold
    assert jump_residual(circle_mesh, sol, g) <= JUMP_TOL
    # a single pole has full charge: unsolvable, residual is exactly V_n
    bad = kernel_trace(circle_mesh, interior_pole(circle_spec, seed=2,
                                                  frac=0.35), scale=-1.0)
    sol_bad, rep_bad = solve_jump_rm(circle_mesh, bad, -2)
    assert sol_bad is None
    assert rep_bad.verdict == "unsolvable"
    assert rep_bad.condition_count == 1
    (residual,) = rep_bad.residuals.values()
    assert abs(residual - unit_sphere_area(1)) <= MOMENT_EXACT_TOL


def test_jump_degree_overflow(circle_mesh):
    g = random_smooth(circle_mesh, 7)
    with pytest.raises(DegreeOverflowError):
        solve_jump_rm(circle_mesh, g, -9)


def test_jump_exterior_order_controls(circle_spec, circle_mesh):
    g = kernel_combo(circle_mesh, 1)
    sol, _ = solve_jump_rm(circle_mesh, g, -2)
    w = np.array([2.5, -1.0])
    far = np.array([25.0, -10.0])
    near_mag = np.linalg.norm(sol.exterior(w).coeffs)
    far_mag = np.linalg.norm(sol.exterior(far).coeffs)
    # order <= -2: tenfold radius shrinks the field by >= ~100x
    assert far_mag <= near_mag / 50


def test_jump_continuous_density_warns(circle_mesh):
    g = BoundaryDensity(circle_mesh, random_smooth(circle_mesh, 7).samples,
                        regularity=("continuous",))
    with pytest.warns(UserWarning):
        solve_jump_rm(circle_mesh, g, 0)


LOADED_MESHES = {"sphere2-L2": (2, 2), "sphere3-L0": (3, 0)}


def _loaded_mesh_errors(name, quantity, tmp_path):
    """quantity on the built mesh and on its save_mesh/load_mesh copy, which
    has no spec, with random_smooth(., 5) at nodes 0, N // 3 and N - 1.
    References: PV + f/2 on the built mesh for boundary_limit, f for the
    symmetric difference."""
    n, level = LOADED_MESHES[name]
    built = build_mesh(DomainSpec("sphere", n, center=(0.0,) * (n + 1),
                                  radius=1.0), level)
    save_mesh(built, tmp_path / "copy.mesh")
    loaded = load_mesh(tmp_path / "copy.mesh")
    f = random_smooth(built, 5)
    N = built.node_count
    idx = np.array([0, N // 3, N - 1])
    pv = principal_value_nodes(built, f, indices=idx) + 0.5 * f.samples[idx]
    out = []
    for mesh in (built, loaded):
        g = BoundaryDensity(mesh, f.samples)
        if quantity == "jump_residual":
            out.append(jump_residual(mesh, solve_jump_rm(mesh, g, 1)[0], g))
        elif quantity == "boundary_limit":
            out.append(np.abs(boundary_limit(mesh, g, idx)[0] - pv).max())
        else:
            rec = symmetric_difference_limit(mesh, g, idx,
                                             symmetric_difference_steps(mesh))
            out.append(np.abs(rec - f.samples[idx]).max())
    return out


@pytest.mark.parametrize("quantity", ["jump_residual", "boundary_limit",
                                      "symmetric_difference"])
@pytest.mark.parametrize("name", sorted(LOADED_MESHES))
def test_loaded_meshes_take_the_subtracted_ladders(name, quantity, tmp_path):
    # a loaded copy has no spec, yet its ladders must subtract f at the
    # node as the built mesh's do, and err about as little
    built, loaded = _loaded_mesh_errors(name, quantity, tmp_path)
    assert loaded <= 1.5 * built


ROUND_TRIP_MESHES = (
    [("circle", 1, (0.4, -0.2), 0.7, level) for level in range(5)]
    + [("sphere", 2, (0.2, 0.0, 0.0), 1.3, level) for level in range(4)])


def _round_trip_values(mesh, samples):
    """Every-node PVs, "+" limits and symmetric differences at nodes 0,
    N // 3 and N - 1, and the Dirichlet exterior residual of the density
    with these samples on mesh."""
    g = BoundaryDensity(mesh, samples)
    N = mesh.node_count
    idx = np.array([0, N // 3, N - 1])
    return {"pv": principal_value_nodes(mesh, g),
            "limit": boundary_limit(mesh, g, idx)[0],
            "symmetric": symmetric_difference_limit(
                mesh, g, idx, symmetric_difference_steps(mesh)),
            "dirichlet": solve_dirichlet(mesh, g,
                                         threshold=1e-6).residual_exterior}


@pytest.mark.parametrize("kind, n, center, radius, level", ROUND_TRIP_MESHES,
                         ids=["%s%d-L%d" % (k, n, lv) for k, n, _, _, lv
                              in ROUND_TRIP_MESHES])
def test_loaded_mesh_gives_the_built_mesh_values(kind, n, center, radius,
                                                 level, tmp_path):
    # every operator reads the three arrays alone, so a save_mesh/load_mesh
    # copy of an off-centre mesh, which has no spec, gives bitwise the
    # built mesh's numbers
    built = build_mesh(DomainSpec(kind, n, center=center, radius=radius),
                       level)
    save_mesh(built, tmp_path / "copy.mesh")
    loaded = load_mesh(tmp_path / "copy.mesh")
    samples = random_smooth(built, 3).samples
    want = _round_trip_values(built, samples)
    got = _round_trip_values(loaded, samples)
    for key in want:
        assert np.asarray(got[key]).tobytes() == \
            np.asarray(want[key]).tobytes(), key


def test_invert_rows_closed_form():
    ctx = get_context(1)
    inv = invert_rows(ctx, np.array([[2.0, 1.0]]))
    # (2 + e1)^{-1} = (2 - e1)/5
    assert np.allclose(inv[0], [0.4, -0.2], atol=1e-14)


def test_invert_rows_rejects_zero_divisors():
    ctx3 = get_context(3)
    row = np.zeros(8)
    row[0] = 1.0
    row[7] = 1.0   # 1 + e123 squares to 2*(1 + e123): a zero divisor
    with pytest.raises(SingularInputError):
        invert_rows(ctx3, row[None, :])
    with pytest.raises(SingularInputError):
        invert_rows(ctx3, np.zeros((1, 8)))


def test_invert_rows_random_batch():
    ctx = get_context(2)
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(20, 4))
    inv = invert_rows(ctx, rows)
    from hypercauchy.clifford_core import batch_product
    e0 = np.eye(4)[0]
    for prod in (batch_product(ctx, rows, inv), batch_product(ctx, inv, rows)):
        assert np.max(np.abs(prod - e0[None, :])) <= 1e-9


def test_constant_gap_reduces_to_jump(circle_mesh):
    g = random_smooth(circle_mesh, 7)
    G = np.array([2.0, 1.0])
    sol, rep = solve_constant_gap(circle_mesh, g, G, 0)
    assert rep.verdict == "unconditional"
    assert sol.gap_inverse is not None
    res = constant_gap_residual(circle_mesh, sol, g, G)
    assert res <= JUMP_TOL


def test_unit_gap_residual_is_jump_residual(circle_mesh):
    # one sampler feeds both residuals; with G = 1, no gap inverse and no
    # polynomial part the two differ only by the rounding of the product
    # with G and of the final sums
    g = random_smooth(circle_mesh, 9)
    sol, rep = solve_jump_rm(circle_mesh, g, -1)
    assert rep.verdict == "unconditional" and sol.polynomial == ()
    jump = jump_residual(circle_mesh, sol, g)
    gap = constant_gap_residual(circle_mesh, sol, g, 1.0)
    scale = 3.0 * float(np.abs(g.samples).max()) + jump
    assert abs(gap - jump) <= 8.0 * 2.0 ** -53 * scale


@pytest.mark.parametrize("residual", ["jump", "constant-gap",
                                      "poincare-bertrand"])
@pytest.mark.parametrize("count", [0, -2])
def test_sampled_residuals_refuse_fewer_than_one_sample_node(circle_mesh,
                                                             residual, count):
    # a residual over no sampled node reads 0.0, a pass with no evidence
    g = random_smooth(circle_mesh, 7)
    sol, _ = solve_jump_rm(circle_mesh, g, 0)
    run = {"jump": lambda: jump_residual(circle_mesh, sol, g,
                                         sample_nodes=count),
           "constant-gap": lambda: constant_gap_residual(
               circle_mesh, sol, g, 1.0, sample_nodes=count),
           "poincare-bertrand": lambda: poincare_bertrand_discrepancy(
               circle_mesh, f=g, sample_nodes=count)}[residual]
    with pytest.raises(ValueError, match=r"^sample_nodes must be >= 1, "
                                         r"got %d$" % count):
        run()


def test_constant_gap_validates_inverse():
    # 1 + e123 is a zero divisor in C(V_3): (1 + e123)(1 - e123) = 0
    ctx3_row = np.zeros(8)
    ctx3_row[0] = ctx3_row[7] = 1.0
    sphere3 = build_mesh(DomainSpec("sphere", 3,
                                    center=(0.0,) * 4, radius=1.0), 0)
    g3 = BoundaryDensity.constant(sphere3, 1.0)
    with pytest.raises(SingularInputError):
        solve_constant_gap(sphere3, g3, ctx3_row, 0)


def test_dirichlet_verdicts(circle_spec):
    mesh = build_mesh(circle_spec, 3)
    good = holomorphic_combo(mesh, 19)
    rep = solve_dirichlet(mesh, good)
    assert rep.solvable
    assert rep.mode == "holder" and rep.criterion == "both"
    assert rep.solution is not None
    bad = kernel_trace(mesh, interior_pole(circle_spec, seed=4, frac=0.3))
    rep_bad = solve_dirichlet(mesh, bad)
    assert not rep_bad.solvable
    assert rep_bad.solution is None


def test_dirichlet_solution_reproduces_data(circle_spec):
    mesh = build_mesh(circle_spec, 3)
    good = holomorphic_combo(mesh, 19)
    rep = solve_dirichlet(mesh, good)
    i = 11
    lam0 = 0.35
    vals = []
    for k in range(4):
        w = mesh.nodes[i] - (lam0 / 2.0 ** k) * mesh.normals[i]
        vals.append(rep.solution.interior(w, method="subtract").coeffs)
    from hypercauchy.cauchy import richardson_limit
    lim = richardson_limit(2.0, vals)
    assert np.max(np.abs(lim - good.samples[i])) <= 1e-3
    with pytest.raises(ValueError):
        rep.solution.exterior(np.array([2.0, 0.0]))


def test_dirichlet_explicit_threshold_and_guards(circle_mesh):
    good = holomorphic_combo(circle_mesh, 19)
    raw = BoundaryDensity(circle_mesh, good.samples)  # no evaluator attached
    rep = solve_dirichlet(circle_mesh, raw, threshold=1e-6)
    assert rep.solvable
    with pytest.raises(ValueError):
        solve_dirichlet(circle_mesh, raw)  # auto threshold needs evaluator


def test_dirichlet_continuous_mode(circle_spec):
    mesh = build_mesh(circle_spec, 3)
    good = holomorphic_combo(mesh, 19)
    cont = BoundaryDensity(mesh, good.samples, evaluator=good.evaluator,
                           regularity=("continuous",))
    rep = solve_dirichlet(mesh, cont)
    assert rep.mode == "continuous" and rep.criterion == "exterior"
    assert rep.solvable
    assert np.isfinite(rep.attainment_error)
    # the principal-value criterion is justified for Holder data only
    assert math.isnan(rep.residual_pv)


@pytest.mark.parametrize("kw", [{"mode": "holder"}, {"criterion": "pv"},
                                {"seed": 0}], ids=lambda kw: next(iter(kw)))
def test_dirichlet_settings_come_from_the_density(circle_mesh, kw):
    # the regularity tag decides mode and criterion; the probe seed is 0
    good = holomorphic_combo(circle_mesh, 19)
    with pytest.raises(TypeError):
        solve_dirichlet(circle_mesh, good, threshold=1e-6, **kw)


def _counted(fn, calls):
    def wrapper(mesh):
        calls.append(mesh)
        return fn(mesh)
    return wrapper


def test_dirichlet_refines_each_mesh_once(circle_spec, monkeypatch):
    # the refined mesh is kept in the mesh's cache, and its own stencil
    # serves every density
    refined, stencils = [], []
    monkeypatch.setattr(fueter, "refine", _counted(fueter.refine, refined))
    monkeypatch.setattr(cauchy, "_build_gradient_stencil",
                        _counted(cauchy._build_gradient_stencil, stencils))
    mesh = build_mesh(circle_spec, 3)
    corpus = dirichlet_corpus(mesh, seed=19)
    verdicts = [solve_dirichlet(mesh, dens).solvable for _, dens, _ in corpus]
    assert verdicts == [truth for _, _, truth in corpus]
    assert len(corpus) > 2
    assert len(refined) == 1 and refined[0] is mesh
    fine = mesh.cache["refined"]
    assert [m.level for m in stencils] == [mesh.level, fine.level]


def test_sie_constant_coefficient_oracle(circle_mesh):
    # phi a + 2 PV C[phi] b = f with a = 3, b = 1, f = 1 has phi = 1/4:
    # the PV of a constant is the half charge, so lhs = phi (a + b)
    a = BoundaryDensity.constant(circle_mesh, 3.0)
    b = BoundaryDensity.constant(circle_mesh, 1.0)
    f = BoundaryDensity.constant(circle_mesh, 1.0)
    co = CharacteristicCoefficients.from_ab(circle_mesh, a, b)
    sie = solve_characteristic_sie(circle_mesh, co, f)
    want = np.zeros(2)
    want[0] = 0.25
    assert np.max(np.abs(sie.phi.samples - want[None, :])) <= SIE_CONST_TOL
    assert sie.residual <= 1e-12


def test_sie_scaled_coefficient_family(circle_mesh):
    # a = 3u, b = u with a varying scalar u keeps the right quotient constant
    u = 2.0 + circle_mesh.nodes[:, 0][:, None] * np.array([1.0, 0.0])
    a = BoundaryDensity(circle_mesh, 3.0 * u)
    b = BoundaryDensity(circle_mesh, u.copy())
    co = CharacteristicCoefficients.from_ab(circle_mesh, a, b)
    assert co.quotient_spread <= 1e-12
    f = random_smooth(circle_mesh, 9)
    sie = solve_characteristic_sie(circle_mesh, co, f)
    assert sie.residual <= SIE_RESIDUAL_TOL


def test_sie_rejects_varying_quotient(circle_mesh):
    a = coordinate_trace(circle_mesh, 0)
    b = BoundaryDensity.constant(circle_mesh, 1.0)
    with pytest.raises(ValueError):
        CharacteristicCoefficients.from_ab(circle_mesh, a, b)


def test_full_sie_matches_characteristic_for_constant_kernel(circle_spec):
    mesh = build_mesh(circle_spec, 2)
    phi = random_smooth(mesh, 3)
    a = BoundaryDensity.constant(mesh, 3.0)
    b = BoundaryDensity.constant(mesh, 1.0)

    one = np.zeros((mesh.node_count, 2))
    one[:, 0] = 1.0
    lhs_full = apply_full_sie_lhs(mesh, a, ProductKernel(mesh, one, one), phi)
    lhs_char = apply_characteristic_lhs(mesh, a, b, phi)
    assert np.max(np.abs(lhs_full - lhs_char)) <= 1e-12


def _counted_sums(monkeypatch):
    """Record every _accel._accumulate call, the home of every kernel sum."""
    calls = []
    original = _accel._accumulate
    monkeypatch.setattr(_accel, "_accumulate",
                        lambda *args: calls.append(1) or original(*args))
    return calls


@pytest.mark.parametrize("caller", ["full-sie", "poincare-bertrand"])
@pytest.mark.parametrize("form", ["held", "callable", "held-right"])
def test_kernels_other_than_factor_rows_are_refused(circle_spec, form,
                                                    caller, monkeypatch):
    # a held array, a callable and a held right factor each raise a
    # ValueError naming k or the factor before any kernel sum is taken
    mesh = build_mesh(circle_spec, 0)
    N = mesh.node_count
    k = product_kernel(mesh, 23)
    held = _held(k)
    a, phi = random_smooth(mesh, 3), random_smooth(mesh, 5)
    run = {"full-sie": lambda kernel: apply_full_sie_lhs(mesh, a, kernel, phi),
           "poincare-bertrand": lambda kernel: poincare_bertrand_discrepancy(
               mesh, k=kernel, sample_nodes=4)}[caller]
    if form == "held-right":
        message = (r"kernel right factor must have shape \(N, 2\^n\) = "
                   r"\(%d, 2\), got \(%d, %d, 2\)" % (N, N, N))
        for factors in ((k.left, k), (k, k.right)):
            with pytest.raises(ValueError, match="another ProductKernel"):
                ProductKernel(mesh, *factors)
    else:
        message = r"^k must be a ProductKernel .*, got %s$" % (
            "ndarray" if form == "held" else "function")
    calls = _counted_sums(monkeypatch)
    with pytest.raises(ValueError, match=message):
        if form == "held-right":
            # refused when it is made, so no such kernel reaches a sum
            run(ProductKernel(mesh, k.left, held))
        else:
            run(held if form == "held" else (lambda x_rows, t: k.left))
    assert calls == []
    # the counter sees the sums of the factor rows themselves
    run(k)
    assert calls


def _unit_and_wide_densities():
    """(mesh, same, moved): a radius-1 circle L3 mesh, a density on another
    mesh object with the same nodes and one on a radius-2 circle."""
    unit = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
    wide = DomainSpec("circle", 1, center=(0.0, 0.0), radius=2.0)
    return (build_mesh(unit, 3), random_smooth(build_mesh(unit, 3), 1),
            random_smooth(build_mesh(wide, 3), 1))


def test_jump_rm_rejects_density_from_another_mesh():
    mesh, same, moved = _unit_and_wide_densities()
    with pytest.raises(ValueError, match=r"^density is sampled on another"):
        solve_jump_rm(mesh, moved, -3)
    assert solve_jump_rm(mesh, same, -3)[1].residuals


def test_full_sie_lhs_rejects_densities_from_another_mesh(monkeypatch):
    mesh, same, moved = _unit_and_wide_densities()
    k = product_kernel(mesh, 23)
    calls = _counted_sums(monkeypatch)
    # both densities are checked before any kernel sum is taken
    for a, phi in ((same, moved), (moved, same)):
        with pytest.raises(ValueError,
                           match=r"^density is sampled on another"):
            apply_full_sie_lhs(mesh, a, k, phi)
    assert calls == []
    assert np.all(np.isfinite(apply_full_sie_lhs(mesh, same, k, same)))


def _sie_coefficients(mesh):
    return (BoundaryDensity.constant(mesh, 3.0),
            BoundaryDensity.constant(mesh, 1.0))


def _wide_sie_coefficients():
    wide = DomainSpec("circle", 1, center=(0.0, 0.0), radius=2.0)
    return _sie_coefficients(build_mesh(wide, 3))


def test_sie_coefficients_reject_another_mesh():
    mesh = _unit_and_wide_densities()[0]
    with pytest.raises(ValueError, match=r"^density is sampled on another"):
        CharacteristicCoefficients.from_ab(mesh, *_wide_sie_coefficients())
    co = CharacteristicCoefficients.from_ab(mesh, *_sie_coefficients(
        build_mesh(mesh.spec, 3)))
    assert co.quotient_spread == 0.0


def test_characteristic_lhs_rejects_coefficients_from_another_mesh(
        monkeypatch):
    mesh, same, _ = _unit_and_wide_densities()
    calls = []
    monkeypatch.setattr("hypercauchy.bvp.principal_value_nodes",
                        lambda *args, **kw: calls.append(1))
    wide_a, wide_b = _wide_sie_coefficients()
    a, b = _sie_coefficients(mesh)
    # both coefficients are checked before the principal-value pass
    for ca, cb in ((wide_a, b), (a, wide_b)):
        with pytest.raises(ValueError,
                           match=r"^density is sampled on another"):
            apply_characteristic_lhs(mesh, ca, cb, same)
    assert calls == []


def test_characteristic_sie_rejects_coefficients_from_another_mesh(
        monkeypatch):
    mesh, same, _ = _unit_and_wide_densities()
    wide_a, wide_b = _wide_sie_coefficients()
    wide = CharacteristicCoefficients.from_ab(wide_a.mesh, wide_a, wide_b)
    calls = []
    original = cauchy.principal_value_nodes
    monkeypatch.setattr("hypercauchy.bvp.principal_value_nodes",
                        lambda *args, **kw: calls.append(1)
                        or original(*args, **kw))
    # a validated pair from the other mesh (from_ab refuses such a pair on
    # this mesh: test_sie_coefficients_reject_another_mesh)
    with pytest.raises(ValueError, match=r"^density is sampled on another"):
        solve_characteristic_sie(mesh, wide, same)
    assert calls == []
    co = CharacteristicCoefficients.from_ab(mesh, *_sie_coefficients(mesh))
    assert solve_characteristic_sie(mesh, co, same).residual <= \
        SIE_RESIDUAL_TOL


def test_kernel_matrix_rejects_non_finite_entries(circle_spec, monkeypatch):
    # the factor rows are checked when the kernel is made, so
    # apply_full_sie_lhs never reaches a kernel sum with them
    mesh = build_mesh(circle_spec, 0)
    k = product_kernel(mesh, 23)
    calls = _counted_sums(monkeypatch)
    for factor in ("left", "right"):
        rows = {"left": k.left, "right": k.right}
        rows[factor] = rows[factor].copy()
        rows[factor][5, 1] = np.inf
        with pytest.raises(ValueError, match=r"kernel %s factor is not "
                                             r"finite at row 5\b" % factor):
            apply_full_sie_lhs(mesh, BoundaryDensity.constant(mesh, 1.0),
                               ProductKernel(mesh, **rows),
                               random_smooth(mesh, 3))
    assert calls == []


def _column_loop(ctx, left, right):
    """held[j, i] = left[j] right[j, i], one batch_product per column i."""
    N = left.shape[0]
    held = np.empty((N, N, ctx.dim))
    for i in range(N):
        held[:, i] = batch_product(ctx, left, right[:, i])
    return held


def _held(k):
    """The (N, N, dim) array k[j, i] = left[j] right[i] of a ProductKernel,
    built from its factor rows as a test reference."""
    N = k.mesh.node_count
    return _column_loop(k.mesh.context, k.left,
                        np.broadcast_to(k.right, (N,) + k.right.shape))


UNIT_ROUNDOFF = 2.0 ** -53
TERM_ROUNDINGS = 32


def _separable_bounds(mesh, left_l1, right_l1, core, rows):
    """Rounding bounds on separable against tile core sums and rows.

    For a kernel left[j] right[i] whose factor rows have the l1 norms
    left_l1 and right_l1, each route's core sum at node i has N (n+1)
    kernel terms and a few products per term; as in test_cauchy's
    _core_bound, its error is at most 2 gamma_m times sum_j l1(E_ij)
    l1(nu_j w_j) (l1(L_j) + l1(L_i)) l1(R_i), and the two routes differ
    by at most twice that.  The rows add the same diagonal term and cell
    correction to either core, two more roundings on each side.  core and
    rows are the tile route's, shape (N, dim); returns bounds of that
    shape.
    """
    N = mesh.node_count
    m = N * (mesh.n + 1) + TERM_ROUNDINGS
    gamma = m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)
    nuw_l1 = np.abs(mesh.measure_coeffs()).sum(axis=1)
    out = np.empty(N)
    for i in range(N):
        e_l1 = np.abs(kernel_E_rows(mesh.nodes, mesh.nodes[i])).sum(axis=1)
        e_l1[i] = 0.0
        out[i] = e_l1 @ (nuw_l1 * (left_l1 + left_l1[i])) * right_l1[i]
    core_tol = 4.0 * gamma * np.broadcast_to(out[:, None], core.shape)
    half = 0.5 * unit_sphere_area(mesh.n) * right_l1 * left_l1
    rows_tol = core_tol + 4.0 * UNIT_ROUNDOFF * (
        np.abs(core) + half[:, None] + np.abs(rows))
    return core_tol, rows_tol


def _l1(rows):
    return np.abs(rows).sum(axis=-1)


def _tile_pv_rows(mesh, held):
    """(rows, core) of _matrix_pv_rows for a held (N, N, dim) density
    matrix, its core by the per-target rows of _accel.pv_matrix: the
    parity reference of the separable route."""
    N = mesh.node_count
    core = _accel.pv_matrix(mesh.context, mesh.nodes, mesh.measure_coeffs(),
                            held)
    nb, wts, frame = gradient_stencil(mesh)
    derivs = np.einsum("ank,nkm->anm", wts, held[nb, np.arange(N)[:, None]])
    rows = (core + 0.5 * unit_sphere_area(mesh.n)
            * held[np.arange(N), np.arange(N)])
    return rows + cauchy._cell_corrections(mesh, derivs, frame, "left"), core


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
    DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0),
], ids=["circle", "sphere2", "sphere3"])
def test_separable_pv_rows_match_tiles(spec, level):
    # a ProductKernel takes the two shared-density sums; its held array,
    # summed by the per-target rows of pv_matrix, is the reference
    mesh = build_mesh(spec, level)
    k = product_kernel(mesh, 23)
    rows, shifted = _matrix_pv_rows(mesh, k.left, k.right)
    core = batch_product(mesh.context, shifted, k.right)
    tile_rows, tile_core = _tile_pv_rows(mesh, _held(k))
    core_tol, rows_tol = _separable_bounds(mesh, _l1(k.left), _l1(k.right),
                                           tile_core, tile_rows)
    assert np.all(np.abs(core - tile_core) <= core_tol)
    assert np.all(np.abs(rows - tile_rows) <= rows_tol)
    # a few ulps relative, as the bound allows
    assert np.abs(rows - tile_rows).max() <= 1e-13 * np.abs(tile_rows).max()


def test_separable_kernels_take_no_pv_matrix_tiles(circle_spec, monkeypatch):
    mesh = build_mesh(circle_spec, 0)
    k = product_kernel(mesh, 23)
    a = random_smooth(mesh, 3)
    phi = random_smooth(mesh, 5)
    calls = []
    original = _accel.pv_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_accel, "pv_matrix", counted)
    _matrix_pv_rows(mesh, k.left, k.right)
    assert len(calls) == 0
    # (phi f)_j g_i: apply_full_sie_lhs folds phi into the left factor
    apply_full_sie_lhs(mesh, a, k, phi)
    assert len(calls) == 0


def test_full_sie_lhs_takes_product_kernel_like_its_array(circle_mesh):
    # the held density matrix phi_j k[j, i] on the tiles differs from the
    # separable sums by their rounding only
    ctx = circle_mesh.context
    k = product_kernel(circle_mesh, 23)
    a = random_smooth(circle_mesh, 3)
    phi = random_smooth(circle_mesh, 5)
    got = apply_full_sie_lhs(circle_mesh, a, k, phi)
    tile_rows, tile_core = _tile_pv_rows(
        circle_mesh, _column_loop(ctx, phi.samples, _held(k)))
    want = (batch_product(ctx, phi.samples, a.samples)
            + 2.0 * (tile_rows / unit_sphere_area(circle_mesh.n)))
    _, rows_tol = _separable_bounds(
        circle_mesh, _l1(phi.samples) * _l1(k.left), _l1(k.right),
        tile_core, tile_rows)
    tol = (2.0 / unit_sphere_area(circle_mesh.n) * rows_tol
           + 4.0 * UNIT_ROUNDOFF * np.abs(want))
    assert np.all(np.abs(got - want) <= tol)


def test_product_kernel_is_never_held_whole(circle_spec):
    mesh = build_mesh(circle_spec, 5)
    held = mesh.node_count ** 2 * 2 * 8
    assert held == 67_108_864
    tracemalloc.start()
    try:
        poincare_bertrand_discrepancy(mesh, k=product_kernel(mesh, 23))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


def test_full_sie_lhs_never_holds_the_density_matrix(circle_spec):
    mesh = build_mesh(circle_spec, 5)
    held = mesh.node_count ** 2 * 2 * 8
    assert held == 67_108_864
    a = random_smooth(mesh, 3)
    phi = random_smooth(mesh, 5)
    k = product_kernel(mesh, 23)
    tracemalloc.start()
    try:
        apply_full_sie_lhs(mesh, a, k, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


def test_product_kernel_from_another_mesh_is_refused(circle_spec):
    mesh = build_mesh(circle_spec, 2)
    other = build_mesh(DomainSpec("circle", 1, center=(0.0, 0.0),
                                  radius=2.0), 2)
    assert other.node_count == mesh.node_count
    with pytest.raises(ValueError, match="kernel is sampled on another mesh"):
        poincare_bertrand_discrepancy(mesh, k=product_kernel(other, 23))


@pytest.mark.parametrize("factor", ["left", "right"])
def test_product_kernel_factor_rows_must_be_finite(circle_mesh, factor):
    # refused when the kernel is made, naming the factor and its first
    # non-finite row
    k = product_kernel(circle_mesh, 23)
    rows = {"left": k.left.copy(), "right": k.right.copy()}
    rows[factor][7, 1] = np.nan
    rows[factor][20, 0] = np.inf
    with pytest.raises(ValueError,
                       match=r"kernel %s factor is not finite at row 7\b"
                       % factor):
        ProductKernel(circle_mesh, rows["left"], rows["right"])


def test_product_kernel_is_read_only(circle_mesh):
    N = circle_mesh.node_count
    samples = random_smooth(circle_mesh, 23).samples
    right = np.ones((N, 2))
    k = ProductKernel(circle_mesh, samples, right)
    # the kernel holds copies: the caller's rows stay its own and writeable
    assert samples.flags.writeable and right.flags.writeable
    assert not np.shares_memory(k.left, samples)
    samples[0, 0] = 7.0
    assert k.left[0, 0] != 7.0
    for name in ("left", "right"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(k, name)[3, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(k, name, right)
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.mesh = build_mesh(circle_mesh.spec, 1)
    assert k.nbytes == k.left.nbytes + k.right.nbytes
    # equality and hashing stay by identity, never over the factor arrays
    twin = ProductKernel(circle_mesh, k.left, k.right)
    assert k == k and k != twin and hash(k) != hash(twin)
    for name in ("shape", "ndim", "__getitem__"):
        assert not hasattr(k, name)


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
    DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0),
], ids=["circle", "sphere2", "sphere3"])
def test_full_sie_lhs_is_the_left_factors_principal_value(spec):
    # phi a + 2 PV C[phi f] g: the kernel's principal value is that of the
    # ordinary density phi f, right-multiplied by g
    mesh = build_mesh(spec, 0)
    ctx = mesh.context
    k = product_kernel(mesh, 23)
    a, phi = random_smooth(mesh, 3), random_smooth(mesh, 5)
    got = apply_full_sie_lhs(mesh, a, k, phi)
    pv = principal_value_nodes(
        mesh, BoundaryDensity(mesh, batch_product(ctx, phi.samples, k.left)))
    want = (batch_product(ctx, phi.samples, a.samples)
            + 2.0 * batch_product(ctx, pv, k.right))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
], ids=["circle", "sphere2"])
def test_pair_orthogonality_matches_pair_loop(spec):
    mesh = build_mesh(spec, 0)
    ctx = mesh.context
    nodes, nuw = mesh.nodes, mesh.measure_coeffs()
    N = mesh.node_count
    it, jt = 1, N // 3

    def mv(p):
        return p.as_multivector(ctx)

    # density d(x_l) = E(tau - x_l), tau = x_jt; both nodes are dropped
    d_t = mv(-kernel_E(nodes[it], nodes[jt]))
    total = Multivector.zero(ctx)
    abs_sum = 0.0
    for l in range(N):
        if l in (it, jt):
            continue
        A = product(mv(kernel_E(nodes[l], nodes[it])),
                    mv(Paravector(nuw[l, 0], nuw[l, 1:])))
        d = mv(-kernel_E(nodes[l], nodes[jt])) - d_t
        total = total + product(A, d)
        abs_sum += np.abs(A.coeffs).sum() * np.abs(d.coeffs).sum()
    half = 0.5 * unit_sphere_area(mesh.n) * d_t.coeffs
    want = total.coeffs + half
    # a sum of N products of dim terms, each with a few roundings
    abs_sum += np.abs(half).sum()
    tol = 4.0 * (N * ctx.dim + 32) * 2.0 ** -53 * abs_sum
    got = _pair_orthogonality(mesh, np.array([it]), np.array([jt]))[0]
    assert np.max(np.abs(got - want)) <= tol


def _orthogonality_per_probe(mesh, it, jt):
    # one probe with its own kernel rows, as the probes were taken one by one
    ctx = mesh.context
    nodes = mesh.nodes
    dens = paravectors_as_coeffs(ctx, -kernel_E_rows(nodes, nodes[jt]))
    A = batch_product(ctx, kernel_E_rows(nodes, nodes[it]),
                      mesh.measure_coeffs())
    diff = dens - dens[it][None, :]
    diff[[it, jt]] = 0.0
    return sided_sum(ctx, "left", A, diff) + \
        0.5 * unit_sphere_area(mesh.n) * dens[it]


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.2, -0.1), radius=1.3),
    DomainSpec("sphere", 2),
    DomainSpec("sphere", 3),
], ids=["circle", "sphere2", "sphere3"])
def test_stacked_orthogonality_is_per_probe(spec):
    mesh = build_mesh(spec, 0)
    N = mesh.node_count
    its = np.array([0, 5, N // 2, N - 1])
    jts = (its + N // 3) % N
    got = _pair_orthogonality(mesh, its, jts)
    assert got.shape == (4, mesh.context.dim)
    for row, it, jt in zip(got, its, jts):
        one = _pair_orthogonality(mesh, np.array([it]), np.array([jt]))[0]
        assert np.array_equal(row.view(np.int64), one.view(np.int64))
        want = _orthogonality_per_probe(mesh, int(it), int(jt))
        assert np.array_equal(row.view(np.int64), want.view(np.int64))


def test_discrepancy_takes_one_orthogonality_call(circle_spec, monkeypatch):
    # the discrepancy takes no pair probe; pair_orthogonality probes every
    # node the discrepancy samples at its seed, in one call
    mesh = build_mesh(circle_spec, 2)
    calls = []
    original = bvp._pair_orthogonality

    def counted(mesh, its, jts):
        calls.append(len(its))
        return original(mesh, its, jts)

    monkeypatch.setattr(bvp, "_pair_orthogonality", counted)
    rep = poincare_bertrand_discrepancy(mesh, k=product_kernel(mesh),
                                        sample_nodes=6, seed=2)
    assert calls == []
    got = pair_orthogonality(mesh, 6, 2)
    assert calls == [6]
    N = mesh.node_count
    want = max(float(np.linalg.norm(_orthogonality_per_probe(
        mesh, int(it), int((it + N // 3) % N)))) for it in rep.sample_indices)
    assert got == want


def test_product_kernel_makes_one_pv_rows_and_one_pb_rhs_call(circle_spec,
                                                              monkeypatch):
    # no pv_matrix tiles; one _matrix_pv_rows and one pb_rhs call, which
    # takes the factor rows and S1 from the shifted sums of the first
    mesh = build_mesh(circle_spec, 0)
    k = product_kernel(mesh, 23)
    calls = {"pv_matrix": [], "pb_rhs": [], "_matrix_pv_rows": []}
    for name, seen in calls.items():
        owner = bvp if name == "_matrix_pv_rows" else _accel
        original = getattr(owner, name)

        def counted(*args, _original=original, _seen=seen, **kwargs):
            out = _original(*args, **kwargs)
            _seen.append((args, out))
            return out

        monkeypatch.setattr(owner, name, counted)
    rep = poincare_bertrand_discrepancy(mesh, k=k, sample_nodes=6)
    assert len(calls["pv_matrix"]) == 0
    assert len(calls["_matrix_pv_rows"]) == 1
    assert len(calls["pb_rhs"]) == 1
    pb_args = calls["pb_rhs"][0][0]
    assert pb_args[3] is k.left and pb_args[4] is k.right
    assert np.array_equal(pb_args[5], rep.sample_indices)
    # S1 = (S1 - S2 L) + S2 L, not a recomputation
    shifted = calls["_matrix_pv_rows"][0][1][1]
    S2 = mesh.cache[("self_sums", "left")]
    assert pb_args[6].tobytes() == (
        shifted + batch_product(mesh.context, S2, k.left)).tobytes()


_PB_SPECS = {
    "circle": DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    "sphere2": DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0),
}


def _measure_sums(monkeypatch, mesh):
    """Record, per side, each _accel._accumulate call with every node as a
    target whose stack holds the measure density nu w."""
    measure = paravectors_as_coeffs(mesh.context, mesh.measure_coeffs())
    N = mesh.node_count
    seen = []
    original = _accel._accumulate

    def counted(ctx, targets, nodes, g, excl, side, circle):
        if np.array_equal(np.atleast_2d(targets), mesh.nodes):
            G = np.reshape(g, (-1, N, ctx.dim))
            seen.extend(side for Gk in G if np.array_equal(Gk, measure))
        return original(ctx, targets, nodes, g, excl, side, circle)

    monkeypatch.setattr(_accel, "_accumulate", counted)
    return seen


@pytest.mark.parametrize("spec, level", [("circle", 2), ("sphere2", 0)])
def test_self_sums_are_summed_once_per_mesh_and_side(spec, level,
                                                     monkeypatch):
    # one poincare-bertrand level: the separable case f, then the kernel
    # k; S2 is summed once, by f's full-mesh principal values, and the
    # kernel's shifted sums and its S1 read it from the mesh's cache
    mesh = build_mesh(_PB_SPECS[spec], level)
    seen = _measure_sums(monkeypatch, mesh)
    poincare_bertrand_discrepancy(mesh, f=random_smooth(mesh, 31))
    poincare_bertrand_discrepancy(mesh, k=product_kernel(mesh, 23),
                                  sample_nodes=4)
    assert seen == ["left"]
    # that S2 is bitwise a pass of the measure alone
    S2 = mesh.cache[("self_sums", "left")]
    fresh = build_mesh(_PB_SPECS[spec], level)
    measure = paravectors_as_coeffs(fresh.context, fresh.measure_coeffs())
    assert S2.tobytes() == _accel.accum_left(
        fresh.context, fresh.nodes, fresh.nodes, measure,
        np.arange(fresh.node_count),
        circle=_accel.uniform_circle(fresh.nodes)).tobytes()
    # the kernel on a cold cache takes one pass of the measure alone
    mesh = build_mesh(_PB_SPECS[spec], level)
    seen = _measure_sums(monkeypatch, mesh)
    poincare_bertrand_discrepancy(mesh, k=product_kernel(mesh, 23),
                                  sample_nodes=4)
    assert seen == ["left"]


@pytest.mark.parametrize("spec, level", [("circle", 2), ("sphere2", 0)])
def test_general_kernel_report_is_bitwise_on_cold_and_warm_cache(spec, level):
    reports = []
    for warm in (False, True):
        mesh = build_mesh(_PB_SPECS[spec], level)
        assert ("self_sums", "left") not in mesh.cache
        if warm:
            principal_value_nodes(mesh, random_smooth(mesh, 31))
        reports.append(poincare_bertrand_discrepancy(
            mesh, k=product_kernel(mesh, 23), sample_nodes=4))
    cold, warm = reports
    for field in ("lhs", "rhs", "discrepancy"):
        assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()


def test_invert_cauchy_pv_involution(circle_mesh):
    f = random_smooth(circle_mesh, 13)
    phi = invert_cauchy_pv(circle_mesh, f)
    applied = 2.0 * principal_value_nodes(circle_mesh, phi)
    assert np.max(np.abs(applied - f.samples)) <= INVOLUTION_TOL


def test_poincare_bertrand_separable(circle_mesh):
    f = random_smooth(circle_mesh, 21)
    rep = poincare_bertrand_discrepancy(circle_mesh, f=f)
    assert rep.separable_error <= PB_SEPARABLE_TOL
    assert rep.discrepancy_max == rep.separable_error
    assert pair_orthogonality(circle_mesh, 8, 0) <= 0.05  # O(h) pair integral
    assert rep.lhs.shape == rep.rhs.shape


def test_poincare_bertrand_general_kernel(circle_spec):
    mesh = build_mesh(circle_spec, 0)
    f = random_smooth(mesh, 21)
    one = np.zeros_like(f.samples)
    one[:, 0] = 1.0
    # k(x, t) = f(x)
    rep = poincare_bertrand_discrepancy(
        mesh, k=ProductKernel(mesh, f.samples, one), sample_nodes=4)
    assert math.isnan(rep.separable_error)
    assert np.all(np.isfinite(rep.discrepancy))
    assert rep.sample_indices.size == 4


def test_poincare_bertrand_argument_validation(circle_mesh):
    f = random_smooth(circle_mesh, 21)
    with pytest.raises(ValueError):
        poincare_bertrand_discrepancy(circle_mesh)
    with pytest.raises(ValueError):
        poincare_bertrand_discrepancy(circle_mesh, k=lambda x, t: None, f=f)
