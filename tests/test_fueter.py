"""Fueter polynomials, moments, Taylor/Laurent machinery, order at infinity."""

import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest

from hypercauchy.cauchy import BoundaryDensity, cauchy_integral, unit_sphere_area
from hypercauchy.clifford_core import (Multivector, SingularInputError,
                                       as_coeffs, batch_product, get_context,
                                       sided_sum)
from hypercauchy.fueter import (
    DegreeOverflowError,
    MAX_DEGREE,
    QuadratureDegeneracyError,
    boundary_moment,
    build_moment_table,
    cauchy_derivative,
    hyper_variable,
    kernel_derivative,
    laurent_term,
    line_fit,
    multi_indices,
    order_at_infinity,
    surface_hull_radius,
    symmetric_power_rows,
    taylor_component,
)
from hypercauchy import fueter
from hypercauchy.bvp import SectionalSolution
from hypercauchy.surface import DomainSpec, build_mesh, refine
from hypercauchy._corpus import (interior_pole, kernel_combo, kernel_trace,
                                 random_smooth)

MONOGENIC_TOL = 1e-6        # central-difference truncation at step 1e-4
MONOGENIC_TOL_KERNEL = 1e-6  # kernel has large higher derivatives
MOMENT_TOL = 1e-14
LAURENT_TOL = 1e-5
SLOPE_DEV = 0.2


def dirac_apply(ctx, f, x, side="left") -> Multivector:
    """Central-difference Dirac operator D[f] = sum_k e_k d_k f at x.

    The step is 1e-4.  side 'left' applies e_k from the left (left
    regularity oracle), 'right' from the right.  Near 0 for (bi)regular f.
    """
    x = np.asarray(x, dtype=np.float64)
    step = 1e-4
    derivs = np.empty((ctx.n + 1, ctx.dim))
    for k in range(ctx.n + 1):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        d = as_coeffs(ctx, f(xp)) - as_coeffs(ctx, f(xm))
        derivs[k] = d / (2.0 * step)
    # row k of the identity is e_k in paravector layout; the library takes
    # left sums only, so the right sum swaps the factors
    e = np.eye(ctx.n + 1)
    pair = (e, derivs) if side == "left" else (derivs, e)
    return Multivector(ctx, sided_sum(ctx, *pair))


def _sym_density(mesh, alpha, coeff=None):
    ctx = mesh.context
    coeff = np.eye(ctx.dim)[0] if coeff is None else coeff

    def fn(pts):
        p = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        rows = symmetric_power_rows(ctx, alpha, p)
        out = batch_product(ctx, rows, np.broadcast_to(coeff, rows.shape).copy())
        return out if np.asarray(pts).ndim == 2 else out[0]

    return BoundaryDensity.from_function(mesh, fn)


def test_multi_index_validation():
    assert fueter._as_alpha([2, 1], 2) == (2, 1)
    with pytest.raises(ValueError):
        fueter._as_alpha((-1, 2), 2)
    with pytest.raises(DegreeOverflowError):
        fueter._as_alpha((MAX_DEGREE, 1), 2)
    assert fueter._as_alpha(np.array([2, 1]), 2) == (2, 1)


@pytest.mark.parametrize("alpha, bad", [
    ((1.7, True), "1.7"), ((1, True), "True"), ((-0.5, 1), "-0.5"),
    ((np.float64(1.0), 0), "1.0"), (("2", 0), "'2'"), ((1, -1), "-1")])
def test_multi_index_entries_must_be_nonnegative_integers(alpha, bad):
    # int() once converted each entry: (1.7, True) gave (1, 1), ("2", 0)
    # gave (2, 0) and -0.5 got past the negative check as 0
    with pytest.raises(ValueError, match=r"multi-index entry .*%s"
                       % re.escape(bad)) as err:
        fueter._as_alpha(alpha, 2)
    assert err.type is ValueError


def test_kernel_derivative_refuses_a_fractional_order():
    # (0.9, 0) once gave d^0 E
    with pytest.raises(ValueError, match="0.9"):
        kernel_derivative(get_context(2), (0.9, 0))


# each public multi-index argument: (call(mesh, alpha), cap on |alpha|, the
# error past the cap); cauchy_derivative's cap is 4
_ALPHA_CALLS = {
    "symmetric_power_rows": (
        lambda mesh, alpha: symmetric_power_rows(mesh.context, alpha,
                                                 mesh.nodes[:2]),
        MAX_DEGREE, DegreeOverflowError),
    "boundary_moment": (
        lambda mesh, alpha: boundary_moment(
            mesh, BoundaryDensity.constant(mesh), alpha),
        MAX_DEGREE, DegreeOverflowError),
    "kernel_derivative": (
        lambda mesh, alpha: kernel_derivative(mesh.context, alpha),
        MAX_DEGREE, DegreeOverflowError),
    "cauchy_derivative": (
        lambda mesh, alpha: cauchy_derivative(
            mesh, BoundaryDensity.constant(mesh), np.zeros(3), alpha),
        4, ValueError),
}


@pytest.mark.parametrize("name", sorted(_ALPHA_CALLS))
def test_multi_index_arguments_take_one_check(name, sphere_mesh):
    call, cap, too_deep = _ALPHA_CALLS[name]
    for bad in [(-1, 1), (0, 2, -1), (1,), (1, 0, 0)]:
        # a negative entry or a wrong length: a plain ValueError
        with pytest.raises(ValueError) as err:
            call(sphere_mesh, bad)
        assert err.type is ValueError, bad
    with pytest.raises(too_deep):
        call(sphere_mesh, (cap, 1))
    call(sphere_mesh, (cap, 0))


def test_multi_indices_enumeration():
    got = list(multi_indices(2, 2))
    assert got == [(2, 0), (1, 1), (0, 2)]
    assert list(multi_indices(2, np.int64(2))) == got
    # count is C(k + n - 1, n - 1)
    assert len(list(multi_indices(3, 4))) == math.comb(4 + 2, 2)


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2", None], ids=repr)
def test_multi_indices_refuse_a_bad_entry_count(n):
    # n < 1 recursed without end; a bool or non-integer is refused as in
    # _check_degree
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
        multi_indices(n, 2)


# each public expansion-degree argument, called with the mesh and a degree
_DEGREE_CALLS = {
    "laurent_term": lambda mesh, k: laurent_term(
        mesh, random_smooth(mesh, 4), k),
    "taylor_component": lambda mesh, k: taylor_component(
        random_smooth(mesh, 4), k, mesh),
    "build_moment_table": lambda mesh, k: build_moment_table(
        mesh, random_smooth(mesh, 4), k),
    "multi_indices": lambda mesh, k: multi_indices(mesh.n, k),
}


@pytest.mark.parametrize("bad", [-1, True, 2.5], ids=repr)
@pytest.mark.parametrize("name", sorted(_DEGREE_CALLS))
@pytest.mark.parametrize("surface", ["circle_mesh", "sphere_mesh"])
def test_degrees_are_checked_where_they_enter(surface, name, bad, request):
    # a negative, bool or non-integer degree is refused at the call, naming
    # the degree, before any evaluator or enumeration is returned
    mesh = request.getfixturevalue(surface)
    with pytest.raises(ValueError, match="got %s$" % re.escape(repr(bad))):
        _DEGREE_CALLS[name](mesh, bad)


@pytest.mark.parametrize("j", [True, 1.0, 0, "n+1"], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_hyper_variable_takes_an_int_generator_index(n, j):
    ctx = get_context(n)
    x = np.linspace(0.5, 1.0, n + 1)
    with pytest.raises(ValueError, match="^j must be"):
        hyper_variable(ctx, n + 1 if j == "n+1" else j, x)
    assert np.array_equal(hyper_variable(ctx, np.int64(n), x).coeffs,
                          hyper_variable(ctx, n, x).coeffs)


def test_hyper_variable_components():
    ctx = get_context(2)
    x = np.array([0.5, -1.0, 2.0])
    z1 = hyper_variable(ctx, 1, x)
    assert z1.coeffs[0] == x[1] and z1.coeffs[1] == -x[0]
    with pytest.raises(ValueError):
        hyper_variable(ctx, 3, x)


def test_symmetric_power_is_symmetrized_product():
    ctx = get_context(2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=3)
    z1 = hyper_variable(ctx, 1, x)
    z2 = hyper_variable(ctx, 2, x)
    # arrangement-sum convention: Z^{(1,1)} = z1 z2 + z2 z1
    want = ((z1 * z2) + (z2 * z1)).coeffs
    rows = symmetric_power_rows(ctx, (1, 1), np.atleast_2d(x))
    assert np.allclose(rows[0], want, atol=1e-14)


def _arrangement_sum(ctx, alpha, points):
    """Z^alpha as the sum over every distinct arrangement of its z_j
    factors, each multiplied out from the left; also each row's largest
    entry of the arrangements' absolute sum, which scales their rounding."""
    letters = [j for j, a in enumerate(alpha, start=1) for _ in range(a)]
    out = np.zeros((points.shape[0], ctx.dim))
    if not letters:
        out[:, 0] = 1.0
        return out, out
    z = {j: np.array([hyper_variable(ctx, j, x).coeffs for x in points])
         for j in set(letters)}
    mag = np.zeros_like(out)
    for word in sorted(set(itertools.permutations(letters))):
        acc = z[word[0]]
        for j in word[1:]:
            acc = batch_product(ctx, acc, z[j])
        out += acc
        mag += np.abs(acc)
    return out, mag.max(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_powers_match_arrangement_sum(n):
    # Z^alpha = sum_j Z^{alpha - e_j} z_j groups the arrangements by their
    # last factor; for n = 1 that is the same product chain, and sums of
    # degree <= 2 add the same two terms, so those agree bitwise
    ctx = get_context(n)
    rng = np.random.default_rng(n)
    points = rng.standard_normal((16, n + 1))
    points[::5, 0] = 0.0
    for k in range(MAX_DEGREE + 1):
        for alpha in multi_indices(n, k):
            got = symmetric_power_rows(ctx, alpha, points)
            want, mag = _arrangement_sum(ctx, alpha, points)
            if n == 1 or k <= 2:
                assert np.array_equal(got, want), alpha
            bound = 4 * k * ctx.dim * np.finfo(float).eps * mag
            assert np.all(np.abs(got - want) <= bound), alpha


def test_derivative_at_origin_is_cauchy_derivative_at_origin(sphere_mesh):
    # taylor_component's coefficients [d^alpha f](0) are the kernel
    # derivative sums of cauchy_derivative at the origin, bitwise
    f = random_smooth(sphere_mesh, 3)
    origin = np.zeros(3)
    for k in range(5):
        for side in ("left", "right"):
            coeffs = taylor_component(f, k, sphere_mesh, side).coefficients
            assert list(coeffs) == list(multi_indices(2, k))
            for alpha, got in coeffs.items():
                want = cauchy_derivative(sphere_mesh, f, origin, alpha, side)
                assert np.array_equal(got, want.coeffs)


@pytest.mark.parametrize("n,alpha", [
    (1, (3,)),
    (2, (2, 1)),
    (3, (1, 0, 1)),
])
def test_fueter_polynomials_two_sided_monogenic(n, alpha):
    ctx = get_context(n)
    rng = np.random.default_rng(4)
    f = lambda x: symmetric_power_rows(ctx, alpha, x)[0]
    for _ in range(3):
        x = rng.normal(size=n + 1)
        for side in ("left", "right"):
            got = dirac_apply(ctx, f, x, side=side)
            assert np.max(np.abs(got.coeffs)) <= MONOGENIC_TOL


def test_kernel_trace_monogenic(circle_spec, circle_mesh):
    ctx = circle_mesh.context
    pole = interior_pole(circle_spec, seed=2, frac=0.35)
    ker = kernel_trace(circle_mesh, pole)
    x = np.array([0.9, 0.35])
    got = dirac_apply(ctx, ker.evaluator, x)
    assert np.max(np.abs(got.coeffs)) <= MONOGENIC_TOL_KERNEL


def test_kernel_derivative_matches_difference_quotients():
    from hypercauchy.cauchy import kernel_E
    for n, alpha in itertools.chain(
            ((2, a) for a in [(1, 0), (0, 1), (1, 1), (2, 0)]),
            ((3, a) for a in multi_indices(3, 3))):
        ctx = get_context(n)
        y = np.random.default_rng(5).normal(size=n + 1) * 2.0
        kd = kernel_derivative(ctx, alpha)
        got = kd.evaluate_components(y)[0]
        step = 1e-3

        def fd(point, a):
            if sum(a) == 0:
                return kernel_E(point, np.zeros(n + 1)).as_point()
            j = next(i for i, v in enumerate(a) if v > 0)
            down = tuple(v - (1 if i == j else 0) for i, v in enumerate(a))
            ep = np.zeros(n + 1)
            ep[j + 1] = step
            return (fd(point + ep, down) - fd(point - ep, down)) / (2 * step)

        # central differences at step 1e-3 are good to a few 1e-6 relative
        assert np.max(np.abs(got - fd(y, alpha))) <= 1e-5 * np.abs(got).max()


def test_kernel_derivative_is_the_complex_derivative_on_the_plane():
    # n = 1 with e1 <-> i: E(x) = conj(x)/|x|^2 = 1/z, and d/dx1 = i d/dz,
    # so d^k E / dx1^k = (-i)^k k! / z^(k+1) exactly
    ctx = get_context(1)
    pts = np.random.default_rng(8).normal(size=(32, 2)) * 2.0
    z = pts[:, 0] + 1j * pts[:, 1]
    for k in range(MAX_DEGREE + 1):
        vals = kernel_derivative(ctx, (k,)).evaluate_components(pts)
        want = (-1j) ** k * math.factorial(k) / z ** (k + 1)
        got = vals[:, 0] + 1j * vals[:, 1]
        assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))


def test_boundary_moment_reproduces_pole(circle_spec, circle_mesh):
    # (1/V) int Z^alpha dsigma E(. - a) = Z^alpha(a) for interior poles
    ctx = circle_mesh.context
    pole = interior_pole(circle_spec, seed=2, frac=0.35)
    ker = kernel_trace(circle_mesh, pole)
    V = unit_sphere_area(1)
    for alpha in [(0,), (1,), (2,), (3,)]:
        m = boundary_moment(circle_mesh, ker, alpha)
        want = symmetric_power_rows(ctx, alpha, pole)[0]
        assert np.max(np.abs(m.coeffs / V - want)) <= MOMENT_TOL


def test_boundary_moment_reproduces_pole_sphere(sphere_spec, sphere_mesh):
    ctx = sphere_mesh.context
    pole = interior_pole(sphere_spec, seed=2, frac=0.35)
    ker = kernel_trace(sphere_mesh, pole)
    V = unit_sphere_area(2)
    for alpha in [(0, 0), (1, 0), (1, 1)]:
        m = boundary_moment(sphere_mesh, ker, alpha)
        want = symmetric_power_rows(ctx, alpha, pole)[0]
        assert np.max(np.abs(m.coeffs / V - want)) <= 1e-4


def test_moment_table(circle_mesh):
    f = _sym_density(circle_mesh, (2,))
    table = build_moment_table(circle_mesh, f, 3)
    # degrees 0..3; the left moments, as boundary_moment's default side
    assert list(table) == [a for k in range(4) for a in multi_indices(1, k)]
    for k in range(4):
        for alpha in multi_indices(1, k):
            want = boundary_moment(circle_mesh, f, alpha).coeffs
            assert np.array_equal(table[alpha], want)
    with pytest.raises(DegreeOverflowError):
        build_moment_table(circle_mesh, f, MAX_DEGREE + 1)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("spec", [DomainSpec("circle", 1),
                                  DomainSpec("sphere", 2)],
                         ids=["circle", "sphere2"])
def test_moment_table_equals_per_alpha_moments_bitwise(spec, side):
    mesh = build_mesh(spec, 0)
    f = random_smooth(mesh, 5)
    table = build_moment_table(mesh, f, 4, side)
    assert list(table) == [a for k in range(5)
                           for a in multi_indices(mesh.n, k)]
    for alpha, m in table.items():
        assert np.array_equal(m, boundary_moment(mesh, f, alpha, side).coeffs)


def test_derivative_at_origin_orthogonality(circle_mesh):
    # [d^alpha Z^beta](0) = |alpha|! delta_{alpha beta}
    f = _sym_density(circle_mesh, (2,))
    for alpha, want in [((1,), 0.0), ((2,), 2.0), ((3,), 0.0)]:
        got = taylor_component(f, alpha[0], circle_mesh).coefficients[alpha]
        ref = np.zeros(2)
        ref[0] = want
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_taylor_component_recovers_coefficients(circle_mesh):
    ctx = circle_mesh.context
    rng = np.random.default_rng(2)
    coeffs = {0: rng.normal(size=2), 1: rng.normal(size=2),
              2: rng.normal(size=2)}

    def fn(pts):
        p = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = np.zeros((p.shape[0], 2))
        for k, c in coeffs.items():
            rows = symmetric_power_rows(ctx, (k,), p)
            out += batch_product(ctx, rows,
                                 np.broadcast_to(c, rows.shape).copy())
        return out if np.asarray(pts).ndim == 2 else out[0]

    f = BoundaryDensity.from_function(circle_mesh, fn)
    x = np.array([0.3, -0.2])
    total = np.zeros(2)
    for k, c in coeffs.items():
        ev = taylor_component(f, k, circle_mesh)
        # stored raw derivatives carry the |alpha|! normalization
        assert np.allclose(ev.coefficients[(k,)],
                           math.factorial(k) * c, atol=1e-12)
        total += ev(x).coeffs
    assert np.max(np.abs(total - fn(x))) <= 1e-12


@pytest.mark.parametrize("side", ["left", "right"])
def test_taylor_evaluator_multiplies_on_the_regularity_side(sphere_mesh,
                                                           side):
    ctx = sphere_mesh.context
    ev = taylor_component(random_smooth(sphere_mesh, 4), 2, sphere_mesh,
                          side=side)
    w = np.array([0.1, 0.2, -0.3])
    want = 0.0
    for alpha, c in ev.coefficients.items():
        Z = Multivector(ctx, symmetric_power_rows(ctx, alpha, w)[0])
        c = Multivector(ctx, c)
        want = want + (Z * c if side == "left" else c * Z).coeffs / 2.0
    assert np.max(np.abs(ev(w).coeffs - want)) <= 1e-12


def test_taylor_component_degeneracy_guards(sphere_spec):
    # sphere2 L0: h = 0.193, so degree 5 needs 6 h > R = 1, the hull radius
    coarse = build_mesh(sphere_spec, 0)
    f = BoundaryDensity.constant(coarse, 1.0)
    assert 5 * coarse.h <= surface_hull_radius(coarse) < 6 * coarse.h
    taylor_component(f, 4, coarse)
    with pytest.raises(QuadratureDegeneracyError):
        taylor_component(f, 5, coarse)
    with pytest.raises(DegreeOverflowError):
        taylor_component(f, MAX_DEGREE + 1, coarse)
    with pytest.raises(TypeError):
        taylor_component(f, 0, coarse, R=1.0)  # R is the mesh's hull radius


def test_laurent_terms_sum_to_exterior_field(circle_spec, circle_mesh):
    pole = interior_pole(circle_spec, seed=2, frac=0.35)
    g = kernel_trace(circle_mesh, pole)
    w = np.array([2.5, 1.0])
    want = cauchy_integral(circle_mesh, g, w).value.coeffs
    total = np.zeros(2)
    for k in range(MAX_DEGREE + 1):
        ev = laurent_term(circle_mesh, g, k)
        total += ev(w).coeffs
    assert np.max(np.abs(-total - want)) <= LAURENT_TOL


def test_laurent_evaluator_rejects_hull(circle_spec, circle_mesh):
    pole = interior_pole(circle_spec, seed=2, frac=0.35)
    g = kernel_trace(circle_mesh, pole)
    ev = laurent_term(circle_mesh, g, 0)
    assert ev.rho == pytest.approx(surface_hull_radius(circle_mesh))
    with pytest.raises(ValueError):
        ev(np.array([0.5, 0.0]))
    with pytest.raises(DegreeOverflowError):
        laurent_term(circle_mesh, g, MAX_DEGREE + 1)


def test_order_at_infinity_moment_and_slope(circle_spec, circle_mesh):
    pole = interior_pole(circle_spec, seed=2, frac=0.35)
    g = kernel_trace(circle_mesh, pole)
    rep = order_at_infinity(circle_mesh, g)
    assert rep.order == -1
    assert rep.first_moment_degree == 0
    assert not rep.undetermined
    assert abs(rep.slope_raw - round(rep.slope_raw)) <= SLOPE_DEV


def test_order_at_infinity_refines_each_mesh_once(circle_spec, monkeypatch):
    built = []

    def counted(mesh, _refine=fueter.refine):
        built.append(mesh)
        return _refine(mesh)

    monkeypatch.setattr(fueter, "refine", counted)
    mesh = build_mesh(circle_spec, 4)
    routes = [order_at_infinity(mesh, kernel_combo(mesh, N)).order
              for N in (0, 1, 2)]
    assert routes == [-1, -2, -3]
    assert len(built) == 1 and built[0] is mesh
    assert mesh.cache["refined"].level == mesh.level + 1


@pytest.mark.parametrize("radius", [500.0, 1000.0], ids=["500", "1000"])
def test_order_at_infinity_holds_at_large_radii(radius):
    # each moment degree is judged against its own refinement change; one
    # threshold for all degrees grew like radius^6 and buried degree 0
    for level in (4, 5):
        mesh = build_mesh(DomainSpec("circle", radius=radius), level)
        orders = [order_at_infinity(mesh, kernel_combo(mesh, N)).order
                  for N in (0, 1, 2)]
        assert orders == [-1, -2, -3], (level, orders)


def test_order_at_infinity_zero_density(circle_mesh):
    zero = BoundaryDensity(circle_mesh,
                           np.zeros((circle_mesh.node_count, 2)))
    rep = order_at_infinity(circle_mesh, zero)
    assert rep.order == -math.inf
    assert not rep.undetermined


def test_dirac_apply_detects_non_monogenic():
    ctx = get_context(2)
    f = lambda x: ctx.scalar(x[1] ** 2)  # not in the kernel of D
    got = dirac_apply(ctx, f, np.array([0.3, 0.7, -0.2]))
    assert np.max(np.abs(got.coeffs)) > 1e-2


def test_dirac_apply_tells_the_sides_apart():
    # z_1 e_2 is left-regular, D(z_1 e_2) = (-e_1 + e_1) e_2 = 0, but
    # (z_1 e_2) D = -e_1 e_2 + e_2 e_1 = -2 e_12 is not zero
    ctx = get_context(2)
    e2 = ctx.basis_blade(2)
    f = lambda x: hyper_variable(ctx, 1, x) * e2
    x = np.array([0.3, 0.7, -0.2])
    left = dirac_apply(ctx, f, x, side="left")
    assert np.max(np.abs(left.coeffs)) <= MONOGENIC_TOL
    right = dirac_apply(ctx, f, x, side="right")
    want = np.zeros(ctx.dim)
    want[3] = -2.0
    assert np.max(np.abs(right.coeffs - want)) <= MONOGENIC_TOL


def test_polynomial_rows_reject_unknown_side(sphere_mesh):
    # fueter._polynomial takes left sums only; the public calls that own
    # polynomial rows mirror a right-sided one, and refuse an unknown side
    # before any sum or point
    ctx = sphere_mesh.context
    f = random_smooth(sphere_mesh, 3)
    terms = (((1, 0), np.ones(ctx.dim)),)
    for side in ("up", "Left", None):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            taylor_component(f, 1, sphere_mesh, side)
        # an empty polynomial part is rejected the same way
        for poly in (terms, ()):
            with pytest.raises(ValueError,
                               match="side must be 'left' or 'right'"):
                SectionalSolution(sphere_mesh, f, side, poly)


@pytest.mark.parametrize("call", [
    lambda mesh, f: cauchy_derivative(mesh, f, np.array([0.2, 0.1]),
                                      (1,)).coeffs,
    lambda mesh, f: taylor_component(f, 1, mesh).coefficients[(1,)],
    lambda mesh, f: boundary_moment(mesh, f, (2,)).coeffs,
    lambda mesh, f: build_moment_table(mesh, f, 2)[(2,)],
], ids=["cauchy_derivative", "derivative_at_origin", "boundary_moment",
        "build_moment_table"])
def test_moments_and_derivatives_reject_density_from_another_mesh(call):
    unit = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
    wide = DomainSpec("circle", 1, center=(0.0, 0.0), radius=2.0)
    mesh = build_mesh(unit, 3)
    with pytest.raises(ValueError, match=r"^density is sampled on another"):
        call(mesh, random_smooth(build_mesh(wide, 3), 1))
    # another mesh object with the same nodes is accepted
    same = random_smooth(build_mesh(unit, 3), 1)
    assert np.all(np.isfinite(call(mesh, same)))


# -- the closed-form line fit --------------------------------------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _lstsq_fit(x, y):
    """The fit by LAPACK, the oracle: np.polyfit's slope and the 2 sigma
    width var * inv(A^T A)[0, 0] of an SVD least-squares solve, NaN for
    two points."""
    slope = float(np.polyfit(x, y, 1)[0])
    if x.size == 2:
        return slope, math.nan
    A = np.vstack([x, np.ones_like(x)]).T
    res = np.linalg.lstsq(A, y, rcond=None)[1]
    var = float(res[0]) / (x.size - 2)
    return slope, 2.0 * math.sqrt(var * np.linalg.inv(A.T @ A)[0, 0])


def _golden_lines():
    """(name, log h, log error_maxnorm) of every recorded run's table, over
    the rows with positive h and error, as the CLI fits them."""
    lines = []
    for path in sorted(GOLDEN.glob("*/*.json")):
        rows = [(r["h"], r["error_maxnorm"])
                for r in json.loads(path.read_text())["table"]
                if r["h"] > 0.0 and r["error_maxnorm"] > 0.0]
        if len(rows) >= 2:
            x, y = np.log(np.array(rows)).T
            lines.append((path.parent.name, x, y))
    return lines


def _seeded_lines(count=20):
    rng = np.random.default_rng(11)
    lines = []
    for k in range(count):
        m = int(rng.integers(3, 12))
        x = rng.uniform(-8.0, 2.0, m)
        y = rng.normal(0.0, 3.0) * x + rng.normal(0.0, 5.0) \
            + rng.normal(0.0, 10.0 ** rng.uniform(-8, 0), m)
        lines.append(("seeded-%d" % k, x, y))
    return lines


@pytest.mark.parametrize("x, y", [
    pytest.param(x, y, id=name)
    for name, x, y in _golden_lines() + _seeded_lines()])
def test_line_fit_matches_lapack_least_squares(x, y):
    # both are rounding-accurate: the slope's rounding error scales with
    # the data, max|y| / |x - mean x|, which a near-zero slope (a constant
    # error column) does not shrink
    slope, width = line_fit(x, y)
    want_slope, want_width = _lstsq_fit(x, y)
    scale = float(np.abs(y).max() / np.linalg.norm(x - x.mean()))
    assert abs(slope - want_slope) <= 1e-12 * max(abs(want_slope), scale)
    if math.isnan(want_width):
        assert math.isnan(width)
    else:
        assert abs(width - want_width) <= 1e-12 * max(want_width, scale)


def test_golden_lines_cover_every_config_on_a_mesh():
    # algebra-laws runs no mesh: its rows have h = 0 and are not fitted
    names = {name.rsplit("-seed", 1)[0] for name, _, _ in _golden_lines()}
    configs = {p.name.rsplit("-seed", 1)[0] for p in GOLDEN.iterdir()
               if p.is_dir()}
    assert names == configs - {"algebra-laws"}


def test_line_fit_of_two_points_has_no_width():
    slope, width = line_fit([1.0, 3.0], [2.0, -2.0])
    assert slope == -2.0 and math.isnan(width)
    assert all(math.isnan(v) for v in line_fit([1.0], [2.0]))
    assert all(math.isnan(v) for v in line_fit([1.0, 1.0, 1.0], [1.0, 2.0,
                                                                 3.0]))


def test_line_fit_of_an_exact_line_is_exact():
    slope, width = line_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert slope == 2.0 and width == 0.0


# -- arguments named in their TypeErrors ----------------------------------------------

@pytest.mark.parametrize("call, name", [
    (lambda mesh: refine(None), "mesh"),
    (lambda mesh: taylor_component(lambda x: x, 1, None), "mesh"),
    (lambda mesh: order_at_infinity(mesh, None), "g"),
    (lambda mesh: laurent_term(mesh, None, 1), "g"),
], ids=["refine", "taylor_component", "order_at_infinity", "laurent_term"])
def test_a_missing_argument_raises_a_type_error_naming_it(circle_mesh, call,
                                                          name):
    with pytest.raises(TypeError, match="^%s must be a " % name):
        call(circle_mesh)


def test_cauchy_derivative_refuses_a_target_on_the_surface(circle_mesh):
    # the kernel derivatives are singular at a node: a target at boundary
    # distance below 1e-12 is refused before any sum
    with pytest.raises(SingularInputError,
                       match="^derivative target lies on the surface$"):
        cauchy_derivative(circle_mesh, random_smooth(circle_mesh, 3),
                          circle_mesh.nodes[5], (1,))
