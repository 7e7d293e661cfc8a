"""Cauchy integrals, principal values and boundary limits.

The circle (n = 1) doubles as an exact oracle: paravectors are complex
numbers there, so monomial traces z^k reproduce w^k inside and 0 outside.
"""

import dataclasses
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hypercauchy
from hypercauchy import _accel, bvp, cauchy, clifford_core, surface
from hypercauchy.cauchy import (
    BoundaryDensity,
    DegenerateStencilError,
    InconclusiveSpanError,
    SideTaggedPoint,
    boundary_limit,
    cauchy_integral,
    gradient_stencil,
    kernel_E,
    kernel_E_rows,
    plemelj_values,
    principal_value,
    principal_value_nodes,
    richardson_limit,
    side_of,
    span_indicator,
    symmetric_difference_limit,
    symmetric_difference_steps,
    tangential_gradient,
    unit_sphere_area,
    _integral_rows,
    _scale,
    _singular_cell_corrections,
)
from hypercauchy.clifford_core import (SingularInputError, batch_product,
                                       embed_point, paravectors_as_coeffs,
                                       sided_sum)
from hypercauchy import fueter
from hypercauchy.fueter import cauchy_derivative
from hypercauchy.surface import (DomainSpec, NodeIndexError, SurfaceMesh,
                                 build_mesh, load_mesh, refine, save_mesh)
from hypercauchy._corpus import (kernel_trace, product_kernel, random_smooth,
                                 rough_holder, symmetric_power_trace,
                                 trig_polynomial, trig_polynomial_pv)

from conftest import coordinate_sums, spot_check

ORACLE_TOL = 1e-12          # circle quadrature of low-degree traces is spectral
PV_CONST_TOL = 1e-14        # regularized principal value is exact for constants
PV_DELTA_TOL = 1e-3         # shrinking-cap cross-validation path
PLEMELJ_TOL = 1e-6          # tuned Richardson limits on the fine circle
SYMDIFF_TOL = 1e-5
SPAN_RAW_TOL = 1e-12
GRAD_TOL_CIRCLE = 1e-6
GRAD_TOL_SPHERE = 1e-3


def _z_trace(k):
    def fn(pts):
        p = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        z = p[:, 0] + 1j * p[:, 1]
        v = z ** k
        out = np.stack([v.real, v.imag], axis=1)
        return out if np.asarray(pts).ndim == 2 else out[0]
    return fn


def _complex_pow(w, k):
    z = (w[0] + 1j * w[1]) ** k
    return np.array([z.real, z.imag])


def test_unit_sphere_area_values():
    assert abs(unit_sphere_area(1) - 2 * math.pi) <= 1e-15
    assert abs(unit_sphere_area(2) - 4 * math.pi) <= 1e-14
    assert abs(unit_sphere_area(3) - 2 * math.pi ** 2) <= 1e-14
    with pytest.raises(ValueError):
        unit_sphere_area(0)


def test_kernel_E_complex_oracle():
    # for n = 1 the kernel is conj(z_x - z_w) / |z_x - z_w|^2 = 1/(z_x - z_w)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, w = rng.normal(size=2), rng.normal(size=2)
        E = kernel_E(x, w)
        zinv = 1.0 / ((x[0] - w[0]) + 1j * (x[1] - w[1]))
        assert abs(E.x0 - zinv.real) <= 1e-14
        assert abs(E.vec[0] - zinv.imag) <= 1e-14


def test_kernel_E_homogeneity():
    # E(s y) = s^{-n} E(y) for s > 0
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        y = rng.normal(size=n + 1)
        E1 = kernel_E(y, np.zeros(n + 1))
        E2 = kernel_E(2.0 * y, np.zeros(n + 1))
        assert np.allclose(2.0 ** (-n) * E1.as_point(), E2.as_point(),
                           atol=1e-14)


def test_kernel_E_coincident_raises():
    x = np.array([0.3, 0.4])
    with pytest.raises(SingularInputError):
        kernel_E(x, x)


def test_kernel_E_rows_matches_scalar(circle_mesh):
    w = np.array([0.2, -0.1])
    rows = kernel_E_rows(circle_mesh.nodes[:5], w)
    for i in range(5):
        assert np.allclose(rows[i], kernel_E(circle_mesh.nodes[i], w).as_point())


def test_density_shape_and_regularity_validated(circle_mesh):
    N = circle_mesh.node_count
    with pytest.raises(ValueError):
        BoundaryDensity(circle_mesh, np.ones((N, 3)))
    with pytest.raises(ValueError):
        BoundaryDensity(circle_mesh, np.ones((N, 2)),
                        regularity=("holder", 1.5, None))
    with pytest.raises(ValueError):
        BoundaryDensity(circle_mesh, np.ones((N, 2)), regularity=("smooth",))
    # a tag is checked whole: a short or long tuple, a non-tuple, a bad
    # exponent or a negative or non-finite Holder constant, or a bool for
    # either number
    for bad in [("holder",), ("holder", 1.0), ("holder", 1.0, None, 0),
                ("holder", True, None), ("holder", 1.0, True),
                ("holder", 1.0, False),
                ("continuous", 1.0), ["holder", 1.0, None], "continuous",
                ("holder", 0.0, None), ("holder", np.nan, None),
                ("holder", "1", None), ("holder", 1.0, -3.0),
                ("holder", 1.0, np.inf), ("holder", 1.0, np.nan)]:
        with pytest.raises(ValueError, match="^regularity must be"):
            BoundaryDensity(circle_mesh, np.ones((N, 2)), regularity=bad)
    for good in [("holder", 0.5, None), ("holder", np.float64(1.0), 0.0),
                 ("holder", 1, 2), ("continuous",)]:
        BoundaryDensity(circle_mesh, np.ones((N, 2)), regularity=good)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_density_rejects_nonfinite_samples(circle_mesh, bad):
    samples = np.ones((circle_mesh.node_count, 2))
    samples[4, 1] = bad
    samples[30, 0] = bad
    with pytest.raises(ValueError, match=r"samples row 4\b"):
        BoundaryDensity(circle_mesh, samples)


def test_from_function_batch_and_rowwise_agree(circle_mesh):
    batch = BoundaryDensity.from_function(circle_mesh, _z_trace(2))
    fn = _z_trace(2)
    rowwise = BoundaryDensity.from_function(
        circle_mesh, lambda x: fn(np.atleast_2d(x))[0])
    assert np.allclose(batch.samples, rowwise.samples, atol=1e-15)


def test_from_function_keeps_a_batch_calls_scalar_parts(sphere_mesh):
    # an (N,) result of the batch call is the scalar parts, in one call
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return x[..., 0]

    def pointwise(x):
        if np.ndim(x) != 1:
            raise TypeError("one point at a time")
        return x[0]

    f = BoundaryDensity.from_function(sphere_mesh, fn)
    assert calls == [sphere_mesh.nodes.shape]
    want = BoundaryDensity.from_function(sphere_mesh, pointwise).samples
    assert np.array_equal(f.samples, want)
    # with N = 2^n an (N,) result could be one coefficient row: per node
    pair = SurfaceMesh([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]],
                       [np.pi, np.pi])
    row = BoundaryDensity.from_function(pair, lambda x: np.array([1.0, 2.0]))
    assert np.array_equal(row.samples, [[1.0, 2.0], [1.0, 2.0]])


def test_from_function_accepts_paravector_values(circle_mesh):
    # evaluated per node, like any evaluator that returns one value
    f = BoundaryDensity.from_function(
        circle_mesh, lambda x: embed_point(2.0 * np.atleast_2d(x)[0]))
    want = paravectors_as_coeffs(circle_mesh.context, 2.0 * circle_mesh.nodes)
    assert np.array_equal(f.samples, want)
    spot_check(f)


def test_from_function_takes_pointwise_evaluator_per_node():
    # embed_point cannot take the whole node array; it is asked per node
    mesh = build_mesh(DomainSpec("circle", 1), 0)
    f = BoundaryDensity.from_function(mesh, embed_point)
    want = paravectors_as_coeffs(mesh.context, mesh.nodes)
    assert np.array_equal(f.samples, want)


def test_spot_check_accepts_and_rejects(circle_mesh):
    f = BoundaryDensity.from_function(circle_mesh, _z_trace(1),
                                      regularity=("holder", 1.0, 1.0))
    assert spot_check(f) <= 1.0 + 1e-12
    lying = BoundaryDensity(circle_mesh, f.samples,
                            regularity=("holder", 1.0, 1e-3))
    with pytest.raises(ValueError):
        spot_check(lying)
    # evaluator/sample mismatch is caught too
    broken = BoundaryDensity(circle_mesh, 2.0 * f.samples, evaluator=f.evaluator)
    with pytest.raises(ValueError):
        spot_check(broken)


def test_reproduction_complex_oracle(circle_mesh):
    for k in (0, 1, 2, 3):
        f = BoundaryDensity.from_function(circle_mesh, _z_trace(k))
        w = np.array([0.3, 0.25])
        got = cauchy_integral(circle_mesh, f, w)
        assert got.reliable
        assert np.max(np.abs(got.value.coeffs - _complex_pow(w, k))) <= ORACLE_TOL
        ext = cauchy_integral(circle_mesh, f, np.array([1.7, 0.4]))
        assert ext.side == "exterior"
        assert np.max(np.abs(ext.value.coeffs)) <= ORACLE_TOL


def test_near_boundary_subtract_beats_raw(circle_mesh):
    f = BoundaryDensity.from_function(circle_mesh, _z_trace(2))
    t = circle_mesh.nodes[3]
    w = t - 0.5 * circle_mesh.h * circle_mesh.normals[3]
    want = _complex_pow(w, 2)
    raw = cauchy_integral(circle_mesh, f, w, method="raw")
    sub = cauchy_integral(circle_mesh, f, w, method="subtract")
    assert not raw.reliable
    assert sub.reliable
    err_raw = np.max(np.abs(raw.value.coeffs - want))
    err_sub = np.max(np.abs(sub.value.coeffs - want))
    assert err_sub < err_raw / 10
    with pytest.raises(ValueError):
        cauchy_integral(circle_mesh, f, w, method="midpoint")


def test_scaled_copy_takes_its_side_from_a_tag(sphere_mesh):
    # a radius-2 copy of the unit sphere carries no spec, so a plain point
    # gets no side from the unit sphere's; tagged, C[1] is 1 inside it
    copy = dataclasses.replace(sphere_mesh, nodes=2.0 * sphere_mesh.nodes,
                               weights=4.0 * sphere_mesh.weights)
    ones = BoundaryDensity.constant(copy, 1.0)
    w = (1.5, 0.0, 0.0)
    assert cauchy_integral(copy, ones, w).side == "unknown"
    with pytest.raises(ValueError, match="^subtract method needs"):
        cauchy_integral(copy, ones, w, method="subtract")
    got = cauchy_integral(copy, ones, SideTaggedPoint(w, "interior"),
                          method="subtract")
    assert got.side == "interior" and got.reliable
    assert np.max(np.abs(got.value.coeffs - [1.0, 0.0, 0.0, 0.0])) <= 1e-12


def test_constant_evaluator_is_vectorized(sphere_mesh):
    # M points give M rows, one point one row: from_function samples the
    # constant in one call, bitwise as per point
    value = [0.5, -1.0, 2.0, 0.25]
    ones = BoundaryDensity.constant(sphere_mesh, value)
    rows = ones.evaluator(sphere_mesh.nodes)
    assert rows.shape == (sphere_mesh.node_count, 4)
    per_point = np.array([ones.evaluator(x) for x in sphere_mesh.nodes])
    assert rows.tobytes() == per_point.tobytes() == ones.samples.tobytes()
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return ones.evaluator(x)

    again = BoundaryDensity.from_function(sphere_mesh, counted)
    assert calls == [sphere_mesh.nodes.shape]
    assert again.samples.tobytes() == ones.samples.tobytes()


def _shrinking_cap_pv(mesh, f, i):
    """PV C[f] at node i as the Richardson limit of the plain sums over the
    nodes outside caps of radius 16 h / 2^k about it, k < RICHARDSON_TERMS:
    an estimate independent of the regularized form, to its own (coarser)
    accuracy."""
    g, = cauchy._measure_density(mesh, (f.samples,))
    dist = np.linalg.norm(mesh.nodes - mesh.nodes[i], axis=1)
    vals = []
    for k in range(cauchy.RICHARDSON_TERMS):
        keep = dist > 16.0 * mesh.h / cauchy.RICHARDSON_RATIO ** k
        vals.append(_accel.accum_left(mesh.context, mesh.nodes[i:i + 1],
                                      mesh.nodes[keep], g[keep],
                                      circle=None)[0]
                    / unit_sphere_area(mesh.n))
    return richardson_limit(cauchy.RICHARDSON_RATIO, vals)


def test_pv_constant_is_half(circle_mesh, sphere_mesh):
    for mesh in (circle_mesh, sphere_mesh):
        ones = BoundaryDensity.constant(mesh, 1.0)
        want = np.zeros(mesh.context.dim)
        want[0] = 0.5
        pv = principal_value(mesh, ones, 0)
        assert np.max(np.abs(pv.coeffs - want)) <= PV_CONST_TOL
    # shrinking-cap extrapolation agrees to its own (coarser) accuracy
    ones = BoundaryDensity.constant(circle_mesh, 1.0)
    pv_delta = _shrinking_cap_pv(circle_mesh, ones, 0)
    assert abs(pv_delta[0] - 0.5) <= PV_DELTA_TOL


def test_pv_methods_cross_validate(circle_mesh):
    f = random_smooth(circle_mesh, 5)
    reg = principal_value(circle_mesh, f, 11)
    delta = _shrinking_cap_pv(circle_mesh, f, 11)
    assert np.max(np.abs(reg.coeffs - delta)) <= PV_DELTA_TOL
    # the regularized form is the only one: principal_value takes no method
    with pytest.raises(TypeError, match="method"):
        principal_value(circle_mesh, f, 11, method="cap")


def test_pv_point_snapping(circle_mesh):
    f = random_smooth(circle_mesh, 5)
    by_index = principal_value(circle_mesh, f, 11)
    by_point = principal_value(circle_mesh, f, circle_mesh.nodes[11])
    assert np.array_equal(by_index.coeffs, by_point.coeffs)
    with pytest.raises(ValueError):
        principal_value(circle_mesh, f, np.zeros(2))  # center is not a node
    with pytest.raises(IndexError):
        principal_value(circle_mesh, f, circle_mesh.node_count)


def test_pv_continuous_density_warns(circle_mesh):
    f = BoundaryDensity(circle_mesh, random_smooth(circle_mesh, 5).samples,
                        regularity=("continuous",))
    with pytest.warns(UserWarning):
        principal_value(circle_mesh, f, 0)


def test_pv_nodes_batch_matches_single(circle_mesh):
    f = random_smooth(circle_mesh, 5)
    rows = principal_value_nodes(circle_mesh, f, indices=[3, 11])
    for row, i in zip(rows, (3, 11)):
        single = principal_value(circle_mesh, f, i)
        assert np.allclose(row, single.coeffs, atol=1e-15)


def test_plemelj_identities(circle_mesh):
    f = random_smooth(circle_mesh, 5)
    plus, minus = plemelj_values(circle_mesh, f, 11)
    # difference recovers the density exactly, sum doubles the PV
    assert np.allclose((plus - minus).coeffs, f.samples[11], atol=1e-15)
    pv = principal_value(circle_mesh, f, 11)
    assert np.allclose((plus + minus).coeffs, 2 * pv.coeffs, atol=1e-15)


@pytest.mark.parametrize("spec", [
    DomainSpec("circle", 1, center=(0.4, -0.2), radius=0.7),
    DomainSpec("sphere", 2, center=(0.0,) * 3, radius=1.0),
    None,
], ids=["circle", "sphere2", "loaded"])
def test_symmetric_difference_steps_halve_from_0_35_R(spec, shifted_circle):
    mesh = (build_mesh(spec, 0) if spec is not None
            else dataclasses.replace(shifted_circle))
    want = 0.35 * _scale(mesh) / 2.0 ** np.arange(4)
    assert np.array_equal(symmetric_difference_steps(mesh), want)


def test_plemelj_against_normal_limits(circle_fine):
    f = random_smooth(circle_fine, 5)
    plus, minus = plemelj_values(circle_fine, f, 7)
    lim_p, lim_m = boundary_limit(circle_fine, f, 7)
    assert np.max(np.abs(plus.coeffs - lim_p.coeffs)) <= PLEMELJ_TOL
    assert np.max(np.abs(minus.coeffs - lim_m.coeffs)) <= PLEMELJ_TOL


def test_symmetric_difference_recovers_rough_density(circle_mesh):
    f = rough_holder(circle_mesh, 3)
    lams = 0.35 * 2.0 ** -np.arange(5)
    got = symmetric_difference_limit(circle_mesh, f, 4, lams)
    assert np.max(np.abs(got.coeffs - f.samples[4])) <= SYMDIFF_TOL
    with pytest.raises(ValueError):
        symmetric_difference_limit(circle_mesh, f, 4, lams[::-1])
    with pytest.raises(ValueError):
        symmetric_difference_limit(circle_mesh, f, 4, [0.1, -0.05])
    with pytest.raises(ValueError):
        symmetric_difference_limit(circle_mesh, f, 4, [0.1])


def test_span_indicator_values(circle_mesh):
    center = span_indicator(circle_mesh, np.zeros(2))
    assert center.value == 1.0
    assert abs(center.raw.coeffs[0] - 1.0) <= SPAN_RAW_TOL
    node = span_indicator(circle_mesh, circle_mesh.nodes[5])
    assert node.value == 0.5
    assert abs(node.raw.coeffs[0] - 0.5) <= SPAN_RAW_TOL
    far = span_indicator(circle_mesh, np.array([3.0, 0.0]))
    assert far.value == 0.0
    assert abs(far.raw.coeffs[0]) <= SPAN_RAW_TOL


def test_span_indicator_inconclusive_near_node():
    coarse = build_mesh(DomainSpec("circle", 1, center=(0.0, 0.0),
                                   radius=1.0), 0)
    w = coarse.nodes[0] * (1 + coarse.h / 16)  # close to a node, off surface
    with pytest.raises(InconclusiveSpanError):
        span_indicator(coarse, w)


def test_side_of_and_tagging(circle_spec):
    assert side_of(circle_spec, np.zeros(2)) == "interior"
    assert side_of(circle_spec, np.array([2.0, 0.0])) == "exterior"
    assert side_of(circle_spec, np.array([1.0, 0.0])) == "boundary"
    tagged = SideTaggedPoint.tag(circle_spec, np.array([0.1, 0.0]))
    assert tagged.side == "interior"
    # a point takes _point's check: n+1 finite coordinates, or a
    # ValueError naming w, not a broadcast or a NaN's side
    for w in ([0.1], [np.nan, 0.0], [0.0, np.inf], [0.1, 0.0, 0.0],
              [[0.1, 0.0]], "ab"):
        with pytest.raises(ValueError, match="^w must be a point"):
            side_of(circle_spec, w)
        with pytest.raises(ValueError, match="^w must be a point"):
            SideTaggedPoint.tag(circle_spec, w)
    with pytest.raises(ValueError):
        SideTaggedPoint((0.1, 0.0), "inside")


def test_tangential_gradient_circle(circle_mesh):
    theta = np.arctan2(circle_mesh.nodes[:, 1], circle_mesh.nodes[:, 0])
    samples = np.sin(3 * theta)[:, None]
    (derivs,), frame = tangential_gradient(circle_mesh, (samples,))
    tau = frame[:, 0, :]
    orient = np.einsum("ij,ij->i", tau,
                       np.stack([-np.sin(theta), np.cos(theta)], axis=1))
    want = 3 * np.cos(3 * theta) * np.sign(orient)
    assert np.max(np.abs(derivs[0][:, 0] - want)) <= GRAD_TOL_CIRCLE


def test_tangential_gradient_sphere(sphere_mesh):
    samples = sphere_mesh.nodes[:, 1][:, None]
    (derivs,), frame = tangential_gradient(sphere_mesh, (samples,))
    for a in range(frame.shape[1]):
        want = frame[:, a, 1]  # directional derivative of x_1 along the frame
        assert np.max(np.abs(derivs[a][:, 0] - want)) <= GRAD_TOL_SPHERE


SPHERE3 = DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0)


def test_sphere3_gradient_and_pv_converge_at_every_node():
    # sin(a.x) and a monogenic quadratic trace on sphere3 L0-L2; the max
    # norm runs over every node, the grid's chi and th poles included
    a = np.full(4, 0.5)
    grad_errs, pv_errs = [], []
    for level in range(3):
        mesh = build_mesh(SPHERE3, level)
        (derivs,), frame = tangential_gradient(
            mesh, (np.sin(mesh.nodes @ a)[:, None],))
        want = np.cos(mesh.nodes @ a) * (frame @ a).T
        grad_errs.append(np.abs(derivs[..., 0] - want).max())
        g = symmetric_power_trace(mesh, (0, 1, 1))
        # a trace monogenic inside has PV C[g] = g/2
        pv = principal_value_nodes(mesh, g)
        pv_errs.append(np.abs(pv - 0.5 * g.samples).max())
    # measured: gradient 2.0, 0.043, 0.018; PV 0.092, 0.036, 0.0096
    for errs, last in ((grad_errs, 0.03), (pv_errs, 0.015)):
        assert all(b < 0.6 * a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= last


def test_sphere3_pv_on_a_shifted_scaled_sphere():
    # the grid-cell coefficients take the radius from the mesh's own sums,
    # so an off-centre sphere of radius 1.7 converges as the unit one does,
    # on both sides
    spec = DomainSpec("sphere", 3, center=(0.1, -0.2, 0.3, 0.0), radius=1.7)
    errs = {"left": [], "right": []}
    for level in range(3):
        mesh = build_mesh(spec, level)
        g = symmetric_power_trace(mesh, (0, 1, 1))
        for side, out in errs.items():
            pv = principal_value_nodes(mesh, g, side)
            out.append(np.abs(pv - 0.5 * g.samples).max())
    # measured on both sides: 0.360, 0.103, 0.0276
    for out in errs.values():
        assert all(e <= b for e, b in zip(out, (0.365, 0.105, 0.028)))


def test_great_circle_mesh_raises_rank_error(tmp_path):
    # every node of this loaded sphere mesh lies on one great circle, so no
    # neighbour leaves it and the fit's second tangent direction is free
    N = 40
    theta = 2.0 * np.pi * np.arange(N) / N
    nodes = np.stack([np.cos(theta), np.sin(theta), np.zeros(N)], axis=1)
    save_mesh(SurfaceMesh(nodes, nodes, np.full(N, 4.0 * np.pi / N)),
              tmp_path / "circle.mesh")
    mesh = load_mesh(tmp_path / "circle.mesh")
    f = BoundaryDensity.constant(mesh, 1.0)
    with pytest.raises(DegenerateStencilError,
                       match=r"^gradient stencil of node 0 is rank-deficient: "
                             r"its 12 neighbours leave term 2 of the 6-term"):
        principal_value_nodes(mesh, f)
    assert "gradient_stencil" not in mesh.cache


def _great_circle_mesh(tmp_path):
    N = 40
    theta = 2.0 * np.pi * np.arange(N) / N
    nodes = np.stack([np.cos(theta), np.sin(theta), np.zeros(N)], axis=1)
    save_mesh(SurfaceMesh(nodes, nodes, np.full(N, 4.0 * np.pi / N)),
              tmp_path / "circle.mesh")
    return load_mesh(tmp_path / "circle.mesh")


def test_indexed_rank_error_names_the_mesh_node(tmp_path):
    # a fit of the nodes idx alone reports the node's mesh index, not its
    # position in idx
    mesh = _great_circle_mesh(tmp_path)
    with pytest.raises(DegenerateStencilError,
                       match=r"^gradient stencil of node 17 is rank-"):
        gradient_stencil(mesh, np.array([17, 3]))
    with pytest.raises(DegenerateStencilError, match=r" of node 5 is rank-"):
        principal_value_nodes(mesh, BoundaryDensity.constant(mesh, 1.0),
                              indices=[5, 7])
    assert "gradient_stencil" not in mesh.cache


def test_indexed_pv_on_loaded_sphere3_needs_only_its_own_fits(tmp_path):
    # the k-d tree neighbours of a loaded 3-sphere leave some fits
    # rank-deficient: a full-mesh PV raises at the first of them, while an
    # indexed PV at full-rank nodes succeeds
    spec = DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0)
    save_mesh(build_mesh(spec, 0), tmp_path / "s3.mesh")
    mesh = load_mesh(tmp_path / "s3.mesh")
    good, bad = [], []
    for i in range(mesh.node_count):
        try:
            gradient_stencil(mesh, np.array([i]))
            good.append(i)
        except DegenerateStencilError:
            bad.append(i)
    assert good and bad
    f = random_smooth(build_mesh(spec, 0), 2)
    f = BoundaryDensity(mesh, f.samples)
    with pytest.raises(DegenerateStencilError,
                       match=r"^gradient stencil of node %d " % bad[0]):
        principal_value_nodes(mesh, f)
    pv = principal_value_nodes(mesh, f, indices=good[:4])
    assert pv.shape == (4, mesh.context.dim) and np.all(np.isfinite(pv))
    assert "gradient_stencil" not in mesh.cache


STENCIL_ROW_MESHES = [("sphere", 2, 0), ("sphere", 2, 1), ("sphere", 2, 2),
                      ("sphere", 3, 0), ("sphere", 3, 1)]


@pytest.mark.parametrize("kind, n, level", STENCIL_ROW_MESHES)
def test_stencil_rows_match_the_full_build(kind, n, level):
    # each node's fit is its own: the rows of idx, fitted alone, are
    # bitwise those of the build for every node, and are not cached
    spec = DomainSpec(kind, n, center=(0.0,) * (n + 1), radius=1.0)
    mesh = build_mesh(spec, level)
    rng = np.random.default_rng(level)
    idx = np.concatenate([rng.choice(mesh.node_count, size=9, replace=False),
                          [0, mesh.node_count - 1, 0]])
    rows = gradient_stencil(mesh, idx)
    assert "gradient_stencil" not in mesh.cache
    full = gradient_stencil(mesh)
    assert "gradient_stencil" in mesh.cache
    warm = gradient_stencil(mesh, idx)
    for got, again, arr, axis in zip(rows, warm, full, (0, 1, 0)):
        want = np.take(arr, idx, axis=axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert again.tobytes() == want.tobytes()


def test_indexed_pv_caches_no_stencil(sphere_spec):
    mesh = build_mesh(sphere_spec, 1)
    f = random_smooth(mesh, 4)
    cold = principal_value_nodes(mesh, f, indices=[3, 70, 3])
    assert "gradient_stencil" not in mesh.cache
    principal_value_nodes(mesh, f)
    stencil = mesh.cache["gradient_stencil"]
    assert all(not arr.flags.writeable for arr in stencil)
    # the cached stencil's rows give the indexed PV bitwise as its own fits
    warm = principal_value_nodes(mesh, f, indices=[3, 70, 3])
    assert cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind, n, level", [("circle", 1, 3), ("sphere", 2, 2),
                                            ("sphere", 3, 1)])
def test_an_indexed_pv_reads_and_keeps_no_operator(kind, n, level, side):
    # a call for some nodes builds its own rows: it keeps no operator, and
    # what the mesh computed before does not move its bits
    spec = DomainSpec(kind, n)
    idx = [0, 17, 5, 17]
    fresh = build_mesh(spec, level)
    cold = principal_value_nodes(fresh, random_smooth(fresh, 2), side, idx)
    assert not {"gradient_stencil", "self_sums",
                ("cell_coefficients", side)} & set(fresh.cache)
    warm = build_mesh(spec, level)
    f = random_smooth(warm, 2)
    principal_value_nodes(warm, f, side)
    assert principal_value_nodes(warm, f, side, idx).tobytes() == \
        cold.tobytes()


def _cached_arrays(mesh):
    """Every array a mesh's cache holds, its refined mesh's included."""
    for value in mesh.cache.values():
        if isinstance(value, SurfaceMesh):
            yield from _cached_arrays(value)
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                yield arr


def test_every_kept_array_is_read_only(circle_spec, sphere_spec, tmp_path):
    from hypercauchy._corpus import dirichlet_corpus
    from hypercauchy.bvp import solve_dirichlet
    meshes = [build_mesh(DomainSpec("sphere", 3), 0),
              build_mesh(sphere_spec, 1), build_mesh(circle_spec, 3)]
    for mesh in meshes[:2]:
        f = random_smooth(mesh, 3)
        principal_value_nodes(mesh, f, indices=[1, 4])
        principal_value_nodes(mesh, f, "right")
    _, dens, _ = dirichlet_corpus(meshes[2], seed=19)[0]
    solve_dirichlet(meshes[2], dens)
    assert "refined" in meshes[2].cache
    save_mesh(meshes[1], tmp_path / "s2.mesh")
    meshes.append(load_mesh(tmp_path / "s2.mesh"))
    gradient_stencil(meshes[-1])
    for mesh in meshes:
        arrays = list(_cached_arrays(mesh))
        assert arrays and not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("level", [0, 2])
def test_stencil_weights_match_the_pseudoinverse(level):
    # the QR solve gives the least-squares weights of np.linalg.pinv, whose
    # SVD rounds by about cond(design) eps; cond grows like 1/h^2 unscaled
    mesh = build_mesh(DomainSpec("sphere", 2), level)
    nb, wts, frame = gradient_stencil(mesh)
    rel = mesh.nodes[nb] - mesh.nodes[:, None, :]
    u = np.einsum("nkp,ndp->nkd", rel, frame)
    design = np.stack([np.ones(u.shape[:2]), u[..., 0], u[..., 1],
                       u[..., 0] ** 2, u[..., 0] * u[..., 1], u[..., 1] ** 2],
                      axis=2)
    want = np.swapaxes(np.linalg.pinv(design)[:, 1:3], 0, 1)
    scale = np.abs(want).max()
    assert np.abs(wts - want).max() <= 1e-11 * scale


@pytest.mark.parametrize("t", [True, np.True_, 1.0])
def test_principal_values_refuse_non_integer_node_indices(t):
    # isinstance(True, int) holds, so a bool once passed as node 1
    mesh = _small_mesh("circle-L0")
    f = random_smooth(mesh, 4)
    message = r"^t must be a node index in 0\.\.63 or a 1-d array"
    with pytest.raises(NodeIndexError, match=message):
        principal_value(mesh, f, t)
    with pytest.raises(NodeIndexError, match=message):
        plemelj_values(mesh, f, t)
    # the ladders share the one check
    with pytest.raises(NodeIndexError, match=message):
        boundary_limit(mesh, f, t)


@pytest.mark.parametrize("call,bad,name", [
    ("pv_nodes", [-1], "indices"), ("pv_nodes", [True], "indices"),
    ("pv_nodes", [64], "indices"), ("pv_nodes", [[0, 1]], "indices"),
    ("measure", True, "i"), ("measure", -1, "i"), ("measure", 64, "i"),
    ("measure", 1.0, "i"),
])
def test_node_indices_take_the_one_check(call, bad, name):
    # a negative index once meant node N - 1 and a bool node 1; the scalar
    # rows call the check itself, with the argument name it reports
    mesh = _small_mesh("circle-L0")
    f = random_smooth(mesh, 4)
    with pytest.raises(NodeIndexError, match="^%s must be a node index" % name):
        if call == "pv_nodes":
            principal_value_nodes(mesh, f, indices=bad)
        else:
            surface._node_indices(mesh, bad, name)


@pytest.mark.parametrize("call,name", [
    ("cauchy_integral", "w"), ("span_indicator", "w"),
    ("cauchy_derivative", "w"), ("principal_value", "t"),
    ("plemelj_values", "t"), ("SideTaggedPoint", "w")])
@pytest.mark.parametrize("bad", [[0.1], [math.nan, 0.0], [math.inf, 0.0],
                                 [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_points_take_the_one_check(call, name, bad):
    # [0.1] was broadcast to (0.1, 0.1) and [nan, 0] tagged exterior; a
    # tagged point is checked for finite coordinates, then against the mesh
    mesh = build_mesh(DomainSpec("circle"), 2)
    ones = BoundaryDensity.constant(mesh, 1.0)
    calls = {
        "cauchy_integral": lambda: cauchy_integral(mesh, ones, bad),
        "span_indicator": lambda: span_indicator(mesh, bad),
        "cauchy_derivative": lambda: cauchy_derivative(mesh, ones, bad, (1,)),
        "principal_value": lambda: principal_value(mesh, ones, bad),
        "plemelj_values": lambda: plemelj_values(mesh, ones, bad),
        "SideTaggedPoint": lambda: cauchy_integral(
            mesh, ones, SideTaggedPoint(bad, "interior"))}
    with pytest.raises(ValueError, match="^%s must be a point of " % name):
        calls[call]()


def _point_row_calls(mesh):
    """{entry point: (call of one point or rows, argument name)} of every
    evaluator that takes point rows, on a circle mesh."""
    ctx = mesh.context
    ones = BoundaryDensity.constant(mesh, 1.0)
    g = kernel_trace(mesh, np.array([0.1, 0.2]))
    _, trig = trig_polynomial(mesh, 3)
    return {
        "taylor_component": (fueter.taylor_component(ones, 0, mesh), "x"),
        "laurent_term": (fueter.laurent_term(mesh, g, 1), "w"),
        "hyper_variable": (lambda x: fueter.hyper_variable(ctx, 1, x), "x"),
        "symmetric_power_rows": (
            lambda x: fueter.symmetric_power_rows(ctx, (1,), x), "points"),
        "evaluate_components": (
            fueter.kernel_derivative(ctx, (1,)).evaluate_components,
            "points"),
        "constant": (ones.evaluator, "x"),
        "corpus": (random_smooth(mesh, 4).evaluator, "x"),
        "corpus_pv": (trig_polynomial_pv(mesh, trig), "x")}


@pytest.mark.parametrize("call", [
    "taylor_component", "laurent_term", "hyper_variable",
    "symmetric_power_rows", "evaluate_components", "constant", "corpus",
    "corpus_pv"])
@pytest.mark.parametrize("bad", [
    [0.1], [0.1, 0.0, 1.0], [5.0, 0.0, 1.0], [math.nan, 0.0],
    [math.inf, 0.0], [[0.1, 0.2, 0.3]], [[2.0, math.nan]], [[[2.0, 1.0]]],
    2.0, "ab"])
def test_point_rows_take_the_one_check(call, bad):
    # each took some of these: [0.1, 0.0, 1.0] gave a Taylor value, [nan, 0]
    # a constant, [inf, 0] a NaN Laurent value, and [0.5] an IndexError
    mesh = build_mesh(DomainSpec("circle"), 3)
    fn, name = _point_row_calls(mesh)[call]
    with np.errstate(all="raise"):
        with pytest.raises(ValueError,
                           match="^%s must be a point of n\\+1 = 2 " % name):
            fn(bad)
        # a point and, but for hyper_variable, rows of them pass the check
        one = fn([2.0, 1.0])
        assert np.all(np.isfinite(getattr(one, "coeffs", one)))
        if call == "hyper_variable":
            with pytest.raises(ValueError, match="^x must be a point of "):
                fn([[2.0, 1.0]])
        else:
            assert np.all(np.isfinite(fn([[2.0, 1.0], [0.0, 3.0]])))


def test_kernel_derivative_refuses_the_origin():
    ctx = build_mesh(DomainSpec("circle"), 0).context
    kd = fueter.kernel_derivative(ctx, (1,))
    with np.errstate(all="raise"):
        with pytest.raises(SingularInputError, match="origin"):
            kd.evaluate_components([[0.0, 0.0]])
        with pytest.raises(SingularInputError, match="origin"):
            kd.evaluate_components([[1.0, 0.0], [0.0, 0.0]])


def test_node_index_error_is_an_index_and_a_value_error():
    mesh = _small_mesh("circle-L0")
    f = random_smooth(mesh, 4)
    for call in (lambda: principal_value(mesh, f, 64),
                 lambda: boundary_limit(mesh, f, 64)):
        with pytest.raises(IndexError):
            call()
        with pytest.raises(ValueError):
            call()
    assert np.array_equal(principal_value(mesh, f, np.int64(5)).coeffs,
                          principal_value(mesh, f, 5).coeffs)


def test_cauchy_derivative_matches_analytic(circle_mesh):
    f = BoundaryDensity.from_function(circle_mesh, _z_trace(2))
    w = np.array([0.2, 0.1])
    got = cauchy_derivative(circle_mesh, f, w, (1,))
    z = w[0] + 1j * w[1]
    want = 2j * z  # d/dx1 of z^2 under z = x0 + i x1
    assert np.max(np.abs(got.coeffs - [want.real, want.imag])) <= ORACLE_TOL


def test_cauchy_derivative_matches_difference_quotient(circle_mesh):
    f = BoundaryDensity.from_function(circle_mesh, _z_trace(3))
    w = np.array([0.2, 0.1])
    got = cauchy_derivative(circle_mesh, f, w, (1,))
    step = 1e-2
    stencil = []
    for s in (-2, -1, 1, 2):
        p = w + np.array([0.0, s * step])
        stencil.append(cauchy_integral(circle_mesh, f, p).value.coeffs)
    fd = (stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * step)
    assert np.max(np.abs(got.coeffs - fd)) <= 1e-7


def test_richardson_limit_exact_on_model_sequence():
    # values L + c r^{-k} are resolved exactly by one elimination step
    L = np.array([2.0, -1.0])
    c = np.array([0.3, 0.7])
    vals = [L + c / 2.0 ** k for k in range(4)]
    got = richardson_limit(2.0, vals)
    assert np.allclose(got, L, atol=1e-13)


# -- the full-mesh self-sum cache -------------------------------------------------

UNIT_ROUNDOFF = 2.0 ** -53
# roundings per term outside the summation, as in tests/test_accel.py
TERM_ROUNDINGS = 32

SMALL_MESHES = {
    "circle-L0": (DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0), 0),
    "circle-L1": (DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0), 1),
    "sphere2-L0": (DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0),
                              radius=1.0), 0),
}


def _gamma(m):
    """Relative error bound of a float64 sum of m rounded terms."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def _small_mesh(name):
    return build_mesh(*SMALL_MESHES[name])


def _count_calls(monkeypatch, name):
    """Record the target count of every call to _accel.<name>."""
    calls = []
    original = getattr(_accel, name)

    def counted(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[1])))
        return original(*args, **kwargs)

    monkeypatch.setattr(_accel, name, counted)
    return calls


def _core_bound(mesh, f, idx):
    """Rounding bound on S1 - S2 f_t at the nodes idx, per coefficient.

    Each sum has N (n+1) kernel terms; its error is at most 2 gamma_m
    times the sum of the absolute terms, which l1 norms bound:
    sum_j l1(E_ij) l1(nu_j w_j) (l1(f_j) + l1(f_i)).
    """
    nuw_l1 = np.abs(mesh.measure_coeffs()).sum(axis=1)
    f_l1 = np.abs(f.samples).sum(axis=1)
    m = mesh.node_count * (mesh.n + 1) + TERM_ROUNDINGS
    out = np.empty(len(idx))
    for row, i in enumerate(idx):
        e_l1 = np.abs(kernel_E_rows(mesh.nodes, mesh.nodes[i])).sum(axis=1)
        out[row] = e_l1 @ (nuw_l1 * (f_l1 + f_l1[i]))
    return 2.0 * _gamma(m) * out


def test_full_mesh_pv_caches_self_sums(monkeypatch):
    name = "circle-L1"
    f1 = random_smooth(_small_mesh(name), 3)
    f2 = random_smooth(_small_mesh(name), 4)
    cold1 = principal_value_nodes(_small_mesh(name), f1)
    cold2 = principal_value_nodes(_small_mesh(name), f2)
    mesh = _small_mesh(name)
    first = principal_value_nodes(mesh, BoundaryDensity(mesh, f1.samples))
    calls = _count_calls(monkeypatch, "accum_left")
    second = principal_value_nodes(mesh, BoundaryDensity(mesh, f2.samples))
    assert len(calls) == 1
    assert np.array_equal(first, cold1)
    assert np.array_equal(second, cold2)


def test_both_sides_read_one_self_sums(monkeypatch):
    # a right-sided call sums its reversed densities on the left: a PV, a
    # ladder and an integral each make one accum_left call and no
    # accum_right call, and both sides read the one S2 the mesh keeps
    mesh = _small_mesh("sphere2-L0")
    f = random_smooth(mesh, 5)
    left = principal_value_nodes(mesh, f, side="left")
    keys = {"neighbours", "gradient_stencil", "self_sums"}
    assert set(mesh.cache) == keys
    S2 = mesh.cache["self_sums"]
    unused = _count_calls(monkeypatch, "accum_right")
    for call in (lambda: principal_value_nodes(mesh, f, side="right"),
                 lambda: boundary_limit(mesh, f, [0, 4], side="right"),
                 lambda: cauchy_integral(mesh, f, 0.5 * mesh.nodes[3],
                                         side="right", method="subtract")):
        calls = _count_calls(monkeypatch, "accum_left")
        call()
        assert len(calls) == 1 and unused == []
        assert set(mesh.cache) == keys and mesh.cache["self_sums"] is S2
    right = principal_value_nodes(mesh, f, side="right")
    # on a cold mesh the right-sided pass keeps that S2, bit for bit
    cold = _small_mesh("sphere2-L0")
    assert np.array_equal(right, principal_value_nodes(
        cold, BoundaryDensity(cold, f.samples), side="right"))
    assert cold.cache["self_sums"].tobytes() == S2.tobytes()
    assert np.array_equal(left, principal_value_nodes(
        mesh, f, side="left"))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(SMALL_MESHES))
def test_self_sums_from_first_pass_match_a_pass_of_their_own(name, side):
    # S2 rides as the last density of the first full-mesh pass; its own
    # pass on a fresh mesh, the measure density alone, gives the same bits
    mesh = _small_mesh(name)
    fs = [random_smooth(mesh, 2), rough_holder(mesh, 3)]
    principal_value_nodes(mesh, fs, side=side)
    S2 = mesh.cache["self_sums"]
    fresh = _small_mesh(name)
    measure = paravectors_as_coeffs(fresh.context, fresh.measure_coeffs())
    cold = _accel.accum_left(fresh.context, fresh.nodes, fresh.nodes, measure,
                 np.arange(fresh.node_count),
                 circle=_accel.uniform_circle(fresh.nodes))
    assert S2.tobytes() == cold.tobytes()


def test_pv_takes_density_samples_once(monkeypatch):
    mesh = _small_mesh("sphere2-L0")
    fs = [random_smooth(mesh, 2), random_smooth(mesh, 3)]
    calls = []
    original = cauchy._density_samples

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cauchy, "_density_samples", counted)
    for f in (fs, fs[0]):
        for indices in (None, [0, 5]):
            calls.clear()
            principal_value_nodes(mesh, f, indices=indices)
            assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(SMALL_MESHES))
def test_indexed_pv_leaves_cache_alone(name):
    mesh = _small_mesh(name)
    f = random_smooth(mesh, 2)
    full = principal_value_nodes(mesh, f)
    cached = dict(mesh.cache)
    idx = [0, mesh.node_count // 3, mesh.node_count - 1]
    for i in idx:
        row = principal_value_nodes(mesh, f, indices=[i])[0]
        assert mesh.cache.keys() == cached.keys()
        assert all(mesh.cache[k] is cached[k] for k in cached)
        tol = _core_bound(mesh, f, [i])[0] / unit_sphere_area(mesh.n)
        assert np.all(np.abs(row - full[i]) <= tol)
    fresh = _small_mesh(name)
    principal_value_nodes(fresh, BoundaryDensity(fresh, f.samples),
                          indices=idx)
    assert "self_sums" not in fresh.cache


@pytest.mark.parametrize("indices", [None, [0, 2]])
def test_pv_rejects_unknown_side_before_any_sum(indices):
    mesh = _small_mesh("circle-L0")
    f = random_smooth(mesh, 2)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        principal_value_nodes(mesh, f, side="up", indices=indices)
    assert mesh.cache == {}


# every public function of the package taking a side, found by signature,
# and a value for each of their parameters without a default: a new entry
# point is swept as soon as it is exported (a parameter name not listed
# here fails the sweep until it is given a value)
SIDED_FUNCTIONS = sorted(
    name for name, obj in vars(hypercauchy).items()
    if not name.startswith("_") and inspect.isfunction(obj)
    and "side" in inspect.signature(obj).parameters)


def _sweep_arguments():
    mesh = _small_mesh("circle-L1")
    f = random_smooth(mesh, 2)
    const = BoundaryDensity.constant
    return {"mesh": mesh, "f": f, "g": f, "t": 0, "p": 0, "w": (0.3, 0.1),
            "alpha": (1,), "k": 1, "m": 0, "G": [2.0, 1.0], "max_degree": 1,
            "lambdas": [0.2, 0.1], "a": mesh.context.scalar(1.0),
            "b": embed_point([1.0, 0.5]), "phi": f, "density": f,
            "samples": f.samples, "side": "left", "sample_nodes": 2,
            "seed": 0, "path": os.devnull,
            "sol": bvp.solve_jump_rm(mesh, f, 0)[0],
            "coefficients": bvp.CharacteristicCoefficients.from_ab(
                mesh, const(mesh, 3.0), const(mesh, 1.0)),
            "ctx": mesh.context, "spec": mesh.spec, "level": 0,
            "coeffs": [1.0, 0.0], "rows": np.eye(2),
            "fn": lambda x: np.ones(len(x))}


def test_side_sweep_finds_every_sided_entry_point():
    assert len(SIDED_FUNCTIONS) >= 16
    assert {"principal_value_nodes", "taylor_component", "solve_jump_rm",
            "divide"} <= set(SIDED_FUNCTIONS)


def _side_takers(module):
    """Names of the functions, methods included, defined in module whose
    signature has a side parameter."""
    found = set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [("%s.%s" % (name, m), f) for m, f in vars(obj).items()
                       if inspect.isfunction(f)]
        found.update(label for label, fn in members if callable(fn)
                     and "side" in inspect.signature(fn).parameters)
    return found


def test_only_public_entry_points_take_a_side():
    # every product below the public calls is a left one: right-sided calls
    # mirror by reversion where they enter, so no product helper takes a side
    assert _side_takers(clifford_core) == {"divide", "_check_side"}
    assert _side_takers(_accel) == set()
    assert "side" not in inspect.signature(fueter._polynomial).parameters


@pytest.mark.parametrize("side", ["up", "Right", None])
@pytest.mark.parametrize("name", SIDED_FUNCTIONS)
def test_every_sided_entry_point_rejects_an_unknown_side(name, side,
                                                         monkeypatch):
    fn = getattr(hypercauchy, name)
    values = _sweep_arguments()
    kwargs = {p.name: values[p.name]
              for p in inspect.signature(fn).parameters.values()
              if p.default is p.empty and p.name != "side"}
    sums = []
    original = _accel.accum_left
    monkeypatch.setattr(_accel, "accum_left", lambda *args, **kw: (
        sums.append(1) or original(*args, **kw)))
    with pytest.raises(ValueError, match="^side must be 'left' or 'right'"):
        fn(side=side, **kwargs)
    assert sums == []


def _public_callables():
    """(name, callable) for every public function and class of the package
    (exceptions aside) and every classmethod of those classes, named
    Class.method."""
    for name, obj in vars(hypercauchy).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, Exception):
            yield name, obj
            yield from (("%s.%s" % (name, m), getattr(obj, m))
                        for m, member in vars(obj).items()
                        if isinstance(member, classmethod))


PUBLIC_CALLABLES = dict(_public_callables())

# (callable, slot) for every public callable of the package with a mesh,
# density, solution, coefficient, context or spec parameter that None does
# not select: a new entry point is swept as soon as it is exported
NONE_PROBES = sorted(
    (name, slot) for name, obj in PUBLIC_CALLABLES.items()
    for slot, p in inspect.signature(obj).parameters.items()
    if slot in ("mesh", "f", "g", "sol", "coefficients", "ctx", "spec")
    and p.default is not None)


def test_none_sweep_finds_every_mesh_and_density_taker():
    assert len(NONE_PROBES) >= 60
    # the calls whose None solution, coefficients, context or spec once
    # escaped as an AttributeError, classmethods among them
    assert {("jump_residual", "sol"), ("constant_gap_residual", "sol"),
            ("solve_characteristic_sie", "coefficients"),
            ("kernel_derivative", "ctx"), ("invert_rows", "ctx"),
            ("side_of", "spec"), ("BoundaryDensity.from_function", "mesh"),
            ("BoundaryDensity.constant", "mesh")} <= set(NONE_PROBES)
    # the calls whose None mesh or density once escaped as an
    # AttributeError or a bare TypeError
    assert {(name, "mesh") for name in (
        "principal_value_nodes", "cauchy_integral", "boundary_limit",
        "symmetric_difference_limit", "plemelj_values", "span_indicator",
        "cauchy_derivative", "boundary_moment", "build_moment_table",
        "laurent_term", "order_at_infinity", "solve_jump_rm",
        "poincare_bertrand_discrepancy")} <= set(NONE_PROBES)
    assert {("principal_value_nodes", "f"), ("principal_value", "f"),
            ("cauchy_integral", "f"), ("solve_dirichlet", "g"),
            ("invert_cauchy_pv", "f"), ("solve_jump_rm", "g")} <= set(
                NONE_PROBES)


@pytest.mark.parametrize("name, slot", NONE_PROBES,
                         ids=["%s-%s" % probe for probe in NONE_PROBES])
def test_a_none_mesh_or_density_raises_a_type_error_naming_it(name, slot,
                                                              monkeypatch):
    # refused where it enters, naming the argument, before any kernel sum:
    # not an AttributeError from deep inside, nor a bare TypeError
    fn = PUBLIC_CALLABLES[name]
    values = _sweep_arguments()
    kwargs = {p.name: values[p.name]
              for p in inspect.signature(fn).parameters.values()
              if p.default is p.empty}
    kwargs[slot] = None
    sums = []
    original = _accel.accum_left
    monkeypatch.setattr(_accel, "accum_left", lambda *args, **kw: (
        sums.append(1) or original(*args, **kw)))
    with pytest.raises(TypeError, match="^%s must be an? " % slot):
        fn(**kwargs)
    assert sums == []


def test_new_meshes_start_with_empty_cache():
    mesh = _small_mesh("circle-L0")
    principal_value_nodes(mesh, random_smooth(mesh, 1))
    assert mesh.cache
    assert refine(mesh).cache == {}
    assert dataclasses.replace(mesh).cache == {}


def test_cached_self_sums_are_read_only():
    mesh = _small_mesh("circle-L0")
    principal_value_nodes(mesh, random_smooth(mesh, 1))
    S2 = mesh.cache["self_sums"]
    with pytest.raises(ValueError):
        S2[0, 0] = 1.0


# -- principal values by the FFT route on uniform circles -------------------------

# both routes reach rounding by L7, where the direct route's max error is
# 16-29 u max|f| (FFT/direct 0.62-1.23 over L4-L8); below 16 u a ratio of
# two errors shows nothing
PV_ROUNDING_FLOOR = 16 * UNIT_ROUNDOFF


def _shifted_powers(mesh, center):
    """(zeta - c)^3 and (zeta - c)^-2 on mesh, and their PVs f/2 and -f/2."""
    rel = mesh.nodes - np.asarray(center)[None, :]
    z = rel[:, 0] + 1j * rel[:, 1]
    fs, pvs = [], []
    for k, half in ((3, 0.5), (-2, -0.5)):
        rows = np.stack([(z ** k).real, (z ** k).imag], axis=1)
        fs.append(BoundaryDensity(mesh, rows))
        pvs.append(half * rows)
    return fs, np.stack(pvs)


@pytest.mark.parametrize("level", range(4, 9))
def test_circle_fft_pv_as_accurate_as_direct(level, monkeypatch):
    center = (0.5, 0.25)
    mesh = build_mesh(DomainSpec("circle", 1, center=center, radius=1.0),
                      level)
    N = mesh.node_count
    fs, want = _shifted_powers(mesh, center)
    calls = _count_calls(monkeypatch, "_circle_sums")
    fft = principal_value_nodes(mesh, fs)
    assert len(calls) == 1
    # 256 nodes in reverse order are indexed rows: the direct route, with
    # S2 in the same pass.  Turning zeta about c turns f, so every node
    # shows the same error up to rounding and these rows show the max
    rows = np.arange(0, N, N // 256)[::-1]
    direct = principal_value_nodes(mesh, fs, indices=rows)
    assert len(calls) == 1
    for k in range(len(fs)):
        err_fft = np.abs(fft[k, rows] - want[k, rows]).max()
        err_direct = np.abs(direct[k] - want[k, rows]).max()
        floor = PV_ROUNDING_FLOOR * np.abs(want[k]).max()
        assert err_fft <= 1.5 * max(err_direct, floor)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(SMALL_MESHES))
def test_cached_self_sums_and_later_sums_take_one_route(name, side,
                                                        monkeypatch):
    # an FFT S1 against a direct S2 would lose about three digits
    mesh = _small_mesh(name)
    fft = _count_calls(monkeypatch, "_circle_sums")
    tiles = _count_calls(monkeypatch, "_tile_terms")
    principal_value_nodes(mesh, random_smooth(mesh, 2), side=side)
    assert "self_sums" in mesh.cache
    principal_value_nodes(mesh, random_smooth(mesh, 3), side=side)
    assert (len(fft), len(tiles)) == ((2, 0) if mesh.n == 1 else (0, 2))


# -- batched off-surface evaluation ----------------------------------------------


@pytest.mark.parametrize("side", ["left", "right"])
def test_ladders_take_one_kernel_call(monkeypatch, side):
    # every sum is a left sum: a right-sided ladder reverses its density
    mesh = _small_mesh("sphere2-L0")
    f = random_smooth(mesh, 4)
    calls = _count_calls(monkeypatch, "accum_left")
    unused = _count_calls(monkeypatch, "accum_right")
    plus, minus = boundary_limit(mesh, f, 2, side=side)
    # both signs in one call
    assert calls == [2 * 4] and unused == []
    assert plus.coeffs.shape == minus.coeffs.shape == (mesh.context.dim,)
    lams = [0.2, 0.1, 0.05, 0.025]
    calls = _count_calls(monkeypatch, "accum_left")
    unused = _count_calls(monkeypatch, "accum_right")
    symmetric_difference_limit(mesh, f, 5, lams, side=side)
    assert calls == [2 * len(lams)] and unused == []
    # an index array: one call over both signs, every node and rung
    t = np.array([0, 2, 5])
    calls = _count_calls(monkeypatch, "accum_left")
    unused = _count_calls(monkeypatch, "accum_right")
    plus, minus = boundary_limit(mesh, f, t, side=side)
    assert calls == [2 * t.size * 4] and unused == []
    assert plus.shape == minus.shape == (t.size, mesh.context.dim)
    calls = _count_calls(monkeypatch, "accum_left")
    symmetric_difference_limit(mesh, f, t, lams, side=side)
    assert calls == [2 * t.size * len(lams)]


def _ladder_mesh(name, tmp_path):
    """circle L4, sphere2 L2, or sphere2 L1 saved and loaded (no spec)."""
    kind, level = name.rsplit("-L", 1)
    spec = (DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
            if kind == "circle" else
            DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0))
    mesh = build_mesh(spec, int(level))
    if kind == "loaded-sphere2":
        save_mesh(mesh, tmp_path / "ladder.mesh")
        mesh = load_mesh(tmp_path / "ladder.mesh")
    return mesh


def _ladder_reference(mesh, samples, i, lams, sign, side):
    """C[f] at x_i - sign lam nu_i, one point at a time, with bounds.

    f - f(x_i) is summed, the shift taken before the sum, and f(x_i)
    added back inside.  Returns the rows, a bound on their gap to
    the batched rows (which take the shift after the sum, S1 - S2 f(x_i))
    and a bound on |rows|: both sums err by at most gamma_m times
    sum_j l1(E_j) l1(nu_j w_j) (l1(f_j) + l1(f(x_i))), as in _core_bound,
    and the scaling and the shift by 4 u (|rows| + |f(x_i)|).
    """
    ctx = mesh.context
    vol = unit_sphere_area(mesh.n)
    f0 = samples[i]
    # the library takes left products only; a right one swaps the factors
    def sided(K, f):
        return (K, f) if side == "left" else (f, K)

    g = batch_product(ctx, *sided(mesh.measure_coeffs(), samples - f0))
    terms = np.abs(mesh.measure_coeffs()).sum(axis=1) * (
        np.abs(samples).sum(axis=1) + np.abs(f0).sum())
    m = mesh.node_count * (mesh.n + 1) + TERM_ROUNDINGS
    rows, abs_sum = [], []
    for lam in lams:
        E = kernel_E_rows(mesh.nodes, mesh.nodes[i] - sign * lam
                          * mesh.normals[i])
        rows.append(sided_sum(ctx, *sided(E, g)) / vol + (sign > 0) * f0)
        abs_sum.append(np.abs(E).sum(axis=1) @ terms / vol)
    size = np.array(abs_sum)[:, None] + np.abs(f0)
    tol = 2.0 * _gamma(m) * np.array(abs_sum)[:, None] + (
        4.0 * UNIT_ROUNDOFF * size)
    return np.array(rows), tol, size


def _richardson_bound(ratio, rows):
    """richardson_limit's table with every difference taken as a sum.

    For rows >= 0 it bounds sum_k |c_k| rows_k, c the limit's weights, and
    every entry of the table the limit passes through.
    """
    last = list(rows)
    order = 1
    while len(last) > 1:
        fact = ratio ** order
        last = [(fact * b + a) / (fact - 1.0) for a, b in zip(last, last[1:])]
        order += 1
    return last[0]


def _ladder_bound(tol, size):
    """The rows' bounds carried through the table, plus the table's own
    roundings (a subtraction and a division per level)."""
    return (_richardson_bound(cauchy.RICHARDSON_RATIO, tol)
            + 2.0 * _gamma(2 * len(tol))
            * _richardson_bound(cauchy.RICHARDSON_RATIO, size))


LADDER_MESHES = ["circle-L4", "sphere2-L2", "loaded-sphere2-L1"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", LADDER_MESHES)
def test_batched_boundary_limits_match_per_node_ladders(name, side,
                                                        tmp_path):
    mesh = _ladder_mesh(name, tmp_path)
    N = mesh.node_count
    samples = random_smooth(_ladder_mesh(name.replace("loaded-", ""),
                                         tmp_path), 8).samples
    f = BoundaryDensity(mesh, samples)
    other = BoundaryDensity(mesh, samples[::-1])
    idx = np.array([0, N // 3, N - 1, N // 3])
    frac, terms = (0.25, 5) if mesh.n == 1 else (0.35, cauchy.RICHARDSON_TERMS)
    lams = frac * _scale(mesh) / cauchy.RICHARDSON_RATIO ** np.arange(terms)
    # built and loaded meshes alike shift by f at the node
    pair = boundary_limit(mesh, f, idx, side=side)
    stacked_pair = boundary_limit(mesh, [f, other], idx, side=side)
    for sign, got, stacked in zip((1.0, -1.0), pair, stacked_pair):
        assert got.shape == (idx.size, mesh.context.dim)
        assert stacked.shape == (2,) + got.shape
        assert np.array_equal(stacked[0], got)
        for row, i in zip(got, idx):
            rows, tol, size = _ladder_reference(
                mesh, samples, i, lams, sign, side)
            want = richardson_limit(cauchy.RICHARDSON_RATIO, rows)
            assert np.all(np.abs(row - want) <= _ladder_bound(tol, size))


PAIR_MESHES = {
    "circle-L4": (DomainSpec("circle", 1, center=(0.3, -0.2), radius=1.4), 4),
    "sphere2-L2": (DomainSpec("sphere", 2, center=(0.0, 0.2, 0.0),
                              radius=1.3), 2),
    "sphere3-L0": (DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0), 0),
}


def _per_sign_limit(mesh, f, t, lams, sign, side):
    """The Richardson limit of one sign's rungs in a pass of their own:
    boundary_limit's ladder as it was taken when it took a sign."""
    idx = np.atleast_1d(t)
    points = (mesh.nodes[idx][:, None]
              - sign * lams[:, None] * mesh.normals[idx][:, None])
    rows = _integral_rows(mesh, f, points.reshape(-1, mesh.n + 1), side,
                          np.repeat(idx, len(lams)),
                          np.full(points.shape[0] * len(lams), sign > 0))
    rows = rows.reshape(rows.shape[:-2] + points.shape[:-1] + rows.shape[-1:])
    return cauchy._ladder_limit(mesh, t, cauchy.RICHARDSON_RATIO, rows)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(PAIR_MESHES))
def test_boundary_limit_pair_matches_per_sign_ladders(name, side):
    # the rows of a sign share their kernel blocks with the other sign's
    # now, which may move a gemm's rounding (by at most 2.1e-15 relative,
    # measured on one-node circle ladders)
    mesh = build_mesh(*PAIR_MESHES[name])
    N = mesh.node_count
    f = random_smooth(mesh, 8)
    frac, terms = (0.25, 5) if mesh.n == 1 else (0.35, cauchy.RICHARDSON_TERMS)
    lams = frac * _scale(mesh) / cauchy.RICHARDSON_RATIO ** np.arange(terms)
    for dens in (f, [f, rough_holder(mesh, 3)]):
        for t in (N // 3, np.array([0, N // 3, N - 1])):
            pair = boundary_limit(mesh, dens, t, side=side)
            for sign, got in zip((1.0, -1.0), pair):
                want = _per_sign_limit(mesh, dens, t, lams, sign, side)
                # one node and one density give Multivectors
                got, want = (getattr(v, "coeffs", v) for v in (got, want))
                assert got.shape == want.shape
                assert np.all(np.abs(got - want)
                              <= 1e-13 * np.abs(want).max())


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", LADDER_MESHES)
def test_batched_symmetric_differences_match_per_node_ladders(name, side,
                                                              tmp_path):
    # built and loaded meshes alike shift by f at the node
    mesh = _ladder_mesh(name, tmp_path)
    N = mesh.node_count
    samples = random_smooth(_ladder_mesh(name.replace("loaded-", ""),
                                         tmp_path), 9).samples
    f = BoundaryDensity(mesh, samples)
    idx = np.array([1, N // 2, N - 2])
    lams = symmetric_difference_steps(mesh)
    got = symmetric_difference_limit(mesh, f, idx, lams, side=side)
    assert got.shape == (idx.size, mesh.context.dim)
    for row, i in zip(got, idx):
        plus, tol_p, size_p = _ladder_reference(
            mesh, samples, i, lams, 1.0, side)
        minus, tol_m, size_m = _ladder_reference(
            mesh, samples, i, lams, -1.0, side)
        want = richardson_limit(cauchy.RICHARDSON_RATIO, plus - minus)
        bound = _ladder_bound(tol_p + tol_m, size_p + size_m)
        assert np.all(np.abs(row - want) <= bound)


@pytest.mark.parametrize("t", [
    lambda N: 1.0,
    lambda N: np.array([0.0, 1.0]),   # a point
    lambda N: np.zeros((1, 2), dtype=int),
    lambda N: True,
    lambda N: -1,
    lambda N: N,
    lambda N: np.array([0, N]),
], ids=["float", "point", "2-d", "bool", "negative", "N", "array-with-N"])
def test_ladders_take_node_indices_only(monkeypatch, t):
    # points no longer snap to nodes: a float, a point, a 2-d array and a
    # bool are refused, and so is an index outside 0..N-1
    mesh = _small_mesh("circle-L0")
    f = random_smooth(mesh, 4)
    t = t(mesh.node_count)
    calls = _count_calls(monkeypatch, "accum_left")
    message = r"^t must be a node index in 0\.\.63 or a 1-d array"
    with pytest.raises(ValueError, match=message):
        boundary_limit(mesh, f, t)
    with pytest.raises(ValueError, match=message):
        symmetric_difference_limit(mesh, f, t, [0.2, 0.1])
    assert calls == []


def test_symmetric_difference_refuses_non_geometric_lambdas():
    mesh = _small_mesh("circle-L0")
    with pytest.raises(ValueError, match="shrink by one ratio"):
        symmetric_difference_limit(mesh, random_smooth(mesh, 4), 0,
                                   [0.4, 0.2, 0.15])


@pytest.mark.parametrize("sign", ["+", "-"])
def test_circle_ladder_depth_comes_from_the_mesh(sign):
    # circles take lam0 = 0.25 R with 5 rungs; R = 2 here
    mesh = build_mesh(DomainSpec("circle", 1, radius=2.0), 4)
    f = random_smooth(mesh, 5)
    t = 3
    lams = 0.5 / 2.0 ** np.arange(5)
    # both signs' rungs in one call, as boundary_limit takes them
    steps = np.concatenate([lams, -lams])
    points = mesh.nodes[t] - steps[:, None] * mesh.normals[t][None, :]
    rows = _integral_rows(mesh, f, points, "left", t, steps > 0)
    rows = rows[:5] if sign == "+" else rows[5:]
    got = boundary_limit(mesh, f, t)["+-".index(sign)]
    assert np.array_equal(got.coeffs, richardson_limit(2, rows))


@pytest.mark.parametrize("sign", ["x", "", "+-", None, "+", "-"])
def test_boundary_limit_rejects_unknown_sign(monkeypatch, sign):
    # boundary_limit takes no sign, since it returns both limits: a sign
    # by name is a TypeError, and one in the old sign's place is refused
    # as a side, both before any kernel sum
    mesh = _small_mesh("circle-L0")
    f = BoundaryDensity.constant(mesh, 1.0)
    calls = _count_calls(monkeypatch, "accum_left")
    with pytest.raises(TypeError):
        boundary_limit(mesh, f, 0, sign=sign)
    with pytest.raises(ValueError, match=r"^side must be 'left' or 'right'"):
        boundary_limit(mesh, f, 0, sign)
    assert calls == []


def test_off_surface_integrals_reject_density_from_another_mesh():
    unit = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
    wide = DomainSpec("circle", 1, center=(0.0, 0.0), radius=2.0)
    mesh = build_mesh(unit, 3)
    moved = random_smooth(build_mesh(wide, 3), 1)
    message = r"^density is sampled on another mesh"
    with pytest.raises(ValueError, match=message):
        cauchy_integral(mesh, moved, np.array([0.2, 0.1]))
    with pytest.raises(ValueError, match=message):
        boundary_limit(mesh, moved, 0)
    with pytest.raises(ValueError, match=message):
        symmetric_difference_limit(mesh, moved, 0, [0.2, 0.1])
    # another mesh object with the same nodes is accepted
    same = random_smooth(build_mesh(unit, 3), 1)
    assert np.all(np.isfinite(cauchy_integral(
        mesh, same, np.array([0.2, 0.1])).value.coeffs))


@pytest.mark.parametrize("method", ["raw", "subtract"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["circle-L0", "sphere2-L0"])
def test_integral_rows_match_single_point_integrals(name, side, method):
    mesh = _small_mesh(name)
    f = random_smooth(mesh, 6)
    t = mesh.node_count // 3
    # four points inside, then four outside, along the normal at node t
    lams = 0.3 * _scale(mesh) / 2.0 ** np.arange(4)
    steps = np.concatenate([-lams, lams])[:, None] * mesh.normals[t][None, :]
    points = mesh.nodes[t] + steps
    interior = np.arange(8) < 4
    node = t if method == "subtract" else None
    got = _integral_rows(mesh, f, points, side, node, interior)
    assert got.shape == (len(points), mesh.context.dim)
    f0 = f.samples[t] if node is not None else np.zeros(mesh.context.dim)
    # rounding bound of S1 - S2 f0 at w (f0 = 0 for the raw sums), as in
    # _core_bound: each term of S1 and of S2 f0 is bounded by l1 norms
    terms = np.abs(mesh.measure_coeffs()).sum(axis=1) * (
        np.abs(f.samples).sum(axis=1) + np.abs(f0).sum())
    m = mesh.node_count * (mesh.n + 1) + TERM_ROUNDINGS
    for row, w, inside in zip(got, points, interior):
        tagged = SideTaggedPoint(tuple(w), "interior" if inside
                                 else "exterior")
        want = cauchy_integral(mesh, f, tagged, side=side,
                               method=method).value.coeffs
        e_l1 = np.abs(kernel_E_rows(mesh.nodes, w)).sum(axis=1)
        tol = (2.0 * _gamma(m) * (e_l1 @ terms) / unit_sphere_area(mesh.n)
               + 2.0 * UNIT_ROUNDOFF * (np.abs(want) + np.abs(f0)))
        assert np.all(np.abs(row - want) <= tol)


@pytest.mark.parametrize("interior", [None, [True, False, True]],
                         ids=["missing", "wrong-length"])
@pytest.mark.parametrize("count", [1, 2])
def test_integral_rows_need_an_interior_mask_with_a_node(count, interior,
                                                         monkeypatch):
    # with node given, a missing mask once took the one row as interior
    # (C[1] = [1, 0] at the exterior point (3, 0)) and failed to broadcast
    # for two rows; now either raises before any kernel sum
    mesh = build_mesh(DomainSpec("circle", 1, center=(0.0, 0.0),
                                 radius=1.0), 1)
    ones = BoundaryDensity.constant(mesh, 1.0)
    points = np.array([[3.0, 0.0], [0.0, 3.0]])[:count]
    calls = _count_calls(monkeypatch, "accum_left")
    with pytest.raises(ValueError, match="interior"):
        _integral_rows(mesh, ones, points, "left", 0, interior)
    assert calls == []
    # the mask given, the exterior rows vanish
    rows = _integral_rows(mesh, ones, points, "left", 0, np.zeros(count, bool))
    assert calls == [count] and np.abs(rows).max() <= 1e-12


def _correction_meshes():
    return [build_mesh(DomainSpec(kind, n, center=(0.0,) * (n + 1),
                                  radius=1.0), 0)
            for kind, n in (("circle", 1), ("sphere", 2), ("sphere", 3))]


@pytest.mark.parametrize("side", ["left", "right"])
def test_cell_corrections_at_indices_match_full_rows(side):
    rng = np.random.default_rng(5)
    for mesh in _correction_meshes():
        f = random_smooth(mesh, 3)
        # the rows a call of this side hands the corrections
        rows = cauchy._density_samples(mesh, f, side)
        full, = _singular_cell_corrections(mesh, rows, coordinate_sums(mesh))
        idx = rng.choice(mesh.node_count, size=5, replace=False)
        got, = _singular_cell_corrections(mesh, rows,
                                          coordinate_sums(mesh, idx), idx)
        tol = _cell_correction_bound(mesh, f)[idx]
        assert got.shape == (len(idx), mesh.context.dim)
        assert np.all(np.abs(got - full[idx]) <= tol[:, None])


# -- kernel identities as properties ----------------------------------------------


def _constant_paravector(mesh, comps):
    ctx = mesh.context
    row = paravectors_as_coeffs(ctx, np.asarray(comps[: ctx.n + 1]))[0]
    return BoundaryDensity.constant(mesh, row)


def _cell_correction_bound(mesh, f):
    """Rounding bound per node on the singular-cell correction of f.

    A stencil derivative of k terms rounds by at most
    gamma_k sum_m |wts| l1(f) over its stencil nodes; for a constant
    density, whose derivatives vanish, that is all there is.  The
    correction scales the derivatives by the cell prefactor and by
    l1(bar(T) nu) <= n+1.  On a spec-built 3-sphere the correction is
    sum_a G_a d_a f instead (cauchy._grid_cell_coefficients): the two
    sides' G_a differ by the roundings of their coordinate sums, each
    bounded as _core_bound bounds a sum of the density x_c, and of
    bar(nu) T_a; the derivatives' roundings and the products' add terms in
    l1(G_a).
    """
    nb, wts, frame = gradient_stencil(mesh)
    d = mesh.n
    f_l1 = np.abs(f.samples).sum(axis=1)
    size = np.einsum("ank,nk->an", np.abs(wts), f_l1[nb])   # l1(d_a f) bound
    deriv = _gamma(nb.shape[1] + TERM_ROUNDINGS) * size
    if d == 3 and mesh.spec is not None:
        G_l1 = np.abs(cauchy._grid_cell_coefficients(
            mesh, frame, coordinate_sums(mesh))).sum(axis=2)
        idx = np.arange(mesh.node_count)
        coord_bounds = np.stack([_core_bound(mesh, BoundaryDensity(
            mesh, np.eye(mesh.context.dim)[0] * mesh.nodes[:, c, None]), idx)
            for c in range(d + 1)])                            # (n+1, N)
        scale = unit_sphere_area(d) * mesh.spec.radius / (d + 1)
        gap = (np.einsum("nac,cn->an", np.abs(frame), coord_bounds)
               + 2.0 * _gamma(TERM_ROUNDINGS) * scale * (d + 1) ** 2)
        return (gap * size + G_l1 * (2.0 * deriv + 2.0 * _gamma(
            TERM_ROUNDINGS) * size)).sum(axis=0)
    sigma_d = 2.0 if d == 1 else unit_sphere_area(d - 1)
    prefac = (d * mesh.weights / sigma_d) ** (1.0 / d) * (sigma_d / d)
    return 2.0 * prefac * (d + 1) * deriv.sum(axis=0)


@pytest.mark.parametrize("name", sorted(SMALL_MESHES))
def test_cached_stencil_is_read_only(name):
    # one caller's in-place edit would change every later principal value
    mesh = _small_mesh(name)
    for arr in gradient_stencil(mesh):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


def test_sphere3_cell_coefficients_at_indices_match_full_rows():
    # the coordinate sums at the asked nodes give their rows of the grid
    # coefficients; neither call keeps a table
    mesh = build_mesh(SPHERE3, 0)
    idx = np.array([0, 7, 40, 127])
    key = ("cell_coefficients", "left")
    frame = gradient_stencil(mesh)[2]
    part = cauchy._grid_cell_coefficients(
        mesh, frame[idx], coordinate_sums(mesh, idx), idx)
    assert key not in mesh.cache
    full = cauchy._grid_cell_coefficients(mesh, frame, coordinate_sums(mesh))
    assert key not in mesh.cache
    # both round their coordinate sums within _core_bound of x_c
    frame = frame[idx]
    coord_bounds = np.stack([_core_bound(mesh, BoundaryDensity(
        mesh, np.eye(mesh.context.dim)[0] * mesh.nodes[:, c, None]), idx)
        for c in range(4)])
    tol = 2.0 * np.einsum("nac,cn->an", np.abs(frame), coord_bounds)
    assert np.all(np.abs(part - full[:, idx]) <= tol[..., None])


def test_indexed_sphere3_pv_fits_its_nodes_once(monkeypatch):
    # the grid coefficients take the frame that the derivatives came with
    f = random_smooth(build_mesh(SPHERE3, 1), 4)
    want = principal_value_nodes(build_mesh(SPHERE3, 1), f, indices=[3, 9])
    fits = []
    original = cauchy._build_gradient_stencil
    monkeypatch.setattr(cauchy, "_build_gradient_stencil",
                        lambda *args: fits.append(args) or original(*args))
    mesh = build_mesh(SPHERE3, 1)
    got = principal_value_nodes(mesh, BoundaryDensity(mesh, f.samples),
                                indices=[3, 9])
    assert len(fits) == 1
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("level", [0, 1])
def test_every_pv_call_makes_one_kernel_pass(level, side, monkeypatch):
    # the 3-surface cell coefficients' coordinate sums ride in the
    # densities' own pass: an indexed PV on a cold mesh, a cold and a warm
    # full PV, an indexed PV after them and _matrix_pv_rows on a cold and a
    # warm mesh each make one accum call, and no coefficient table is kept
    calls = []
    for name in ("accum_left", "accum_right"):
        original = getattr(_accel, name)
        monkeypatch.setattr(_accel, name, lambda *args, _name=name,
                            _original=original, **kwargs: calls.append(
                                _name) or _original(*args, **kwargs))

    def passes(call, *args):
        calls.clear()
        call(*args)
        return list(calls)

    mesh = build_mesh(SPHERE3, level)
    fs = [random_smooth(mesh, 4), random_smooth(mesh, 5)]
    accum = "accum_left"
    for indices in ([0, 7, 40], None, None, [0, 7, 40]):
        assert passes(principal_value_nodes, mesh, fs, side,
                      indices) == [accum]
    assert ("cell_coefficients", side) not in mesh.cache
    for m in (build_mesh(SPHERE3, level), mesh):
        k = product_kernel(m, 23)
        assert passes(bvp._matrix_pv_rows, m, k.left,
                      k.right) == ["accum_left"]
        assert not {("cell_coefficients", s) for s in ("left", "right")} \
            & set(m.cache)


def _mesh_with_cache(name, hot, side):
    """A fresh small mesh; with hot, its cache filled by an earlier PV."""
    mesh = _small_mesh(name)
    if hot:
        principal_value_nodes(mesh, random_smooth(mesh, 0), side=side)
        assert "self_sums" in mesh.cache
    return mesh


# magnitudes below 1e-100 become 0, so no product underflows and every
# rounding is relative, as the bounds assume
_COMPONENTS = st.lists(
    st.floats(-10, 10, allow_nan=False).map(
        lambda v: v if abs(v) >= 1e-100 else 0.0),
    min_size=3, max_size=3)


@seed(6)
@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(SMALL_MESHES)), hot=st.booleans(),
       side=st.sampled_from(["left", "right"]), comps=_COMPONENTS)
def test_pv_of_constant_is_half(name, hot, side, comps):
    mesh = _mesh_with_cache(name, hot, side)
    f = _constant_paravector(mesh, comps)
    got = principal_value_nodes(mesh, f, side=side)
    idx = np.arange(mesh.node_count)
    tol = ((_core_bound(mesh, f, idx) + _cell_correction_bound(mesh, f))
           / unit_sphere_area(mesh.n)
           + UNIT_ROUNDOFF * np.abs(f.samples).sum(axis=1))
    assert np.all(np.abs(got - 0.5 * f.samples) <= tol[:, None])


@seed(7)
@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(SMALL_MESHES)), hot=st.booleans(),
       side=st.sampled_from(["left", "right"]), comps=_COMPONENTS,
       node=st.integers(0, 10 ** 6))
def test_plemelj_jump_is_density(name, hot, side, comps, node):
    mesh = _mesh_with_cache(name, hot, side)
    f = _constant_paravector(mesh, comps)
    t = node % mesh.node_count
    plus, minus = plemelj_values(mesh, f, t, side=side)
    # plus = f/2 + pv and minus = -f/2 + pv differ by f exactly in exact
    # arithmetic; in float64 each of the three additions rounds once
    scale = np.abs(plus.coeffs) + np.abs(minus.coeffs)
    tol = 3.0 * UNIT_ROUNDOFF * scale
    assert np.all(np.abs((plus - minus).coeffs - f.samples[t]) <= tol)


# -- left and right integrals mirror each other ------------------------------------
#
# Reversion rev(e_A) = (-1)^(k(k-1)/2) e_A, k = |A|, reverses products,
# rev(a b) = rev(b) rev(a), and fixes paravectors: the kernel, nu w and the
# frame vectors of the cell corrections.  So rev(E nu w f) = rev(f) nu w E,
# and every left integral of f, reversed, is the right integral of rev(f).
# Every right-sided call is computed that way, so the two agree bit for
# bit.  Bar conjugation also reverses products but negates the
# paravectors' vector parts, so it is not this mirror.  n = 1 is
# commutative.

MIRROR_MESHES = {
    "sphere2-L0": SMALL_MESHES["sphere2-L0"],
    "sphere3-L0": (DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0), 0),
}


def _reverse(rows):
    grade = np.array([bin(a).count("1") for a in range(rows.shape[-1])])
    return rows * (-1.0) ** (grade * (grade - 1) // 2)


def _mirror_pair(name):
    mesh = build_mesh(*MIRROR_MESHES[name])
    f = random_smooth(mesh, 3)
    return mesh, f, BoundaryDensity(mesh, _reverse(f.samples))


@pytest.mark.parametrize("indices", [None, [0, 7, 40]])
@pytest.mark.parametrize("name", sorted(MIRROR_MESHES))
def test_left_and_right_pvs_mirror(name, indices):
    mesh, f, rf = _mirror_pair(name)
    left = principal_value_nodes(mesh, f, side="left", indices=indices)
    right = principal_value_nodes(mesh, rf, side="right", indices=indices)
    assert np.array_equal(_reverse(left), right)


@pytest.mark.parametrize("method", ["raw", "subtract"])
@pytest.mark.parametrize("name", sorted(MIRROR_MESHES))
def test_left_and_right_integrals_mirror(name, method):
    mesh, f, rf = _mirror_pair(name)
    t = mesh.node_count // 3
    # one point inside and one outside; the nearest node of both is t
    points = np.array([0.6, 1.5])[:, None] * mesh.nodes[t][None, :]
    for w in points:
        left = cauchy_integral(mesh, f, w, side="left", method=method)
        right = cauchy_integral(mesh, rf, w, side="right", method=method)
        assert np.array_equal(_reverse(left.value.coeffs),
                              right.value.coeffs)


@pytest.mark.parametrize("name", sorted(MIRROR_MESHES))
def test_left_and_right_ladders_mirror(name):
    mesh, f, rf = _mirror_pair(name)
    t = mesh.node_count // 3
    for left, right in zip(boundary_limit(mesh, f, t, side="left"),
                           boundary_limit(mesh, rf, t, side="right")):
        assert np.array_equal(_reverse(left.coeffs), right.coeffs)


def _mirrored_results(mesh, f, side):
    """Every other sided result of f: {name: coefficient rows}."""
    t = mesh.node_count // 3
    alpha = (1,) + (0,) * (mesh.n - 1)
    sym = symmetric_difference_limit(mesh, f, [t, 0],
                                     symmetric_difference_steps(mesh), side)
    moments = fueter.build_moment_table(mesh, f, 2, side)
    deriv = cauchy_derivative(mesh, f, 0.3 * mesh.nodes[t], alpha, side)
    # degree 0: h is too coarse on sphere3 L0 for degree 1
    taylor = fueter.taylor_component(f, 0, mesh, side)
    laurent = fueter.laurent_term(mesh, f, 2, side)
    return {"symmetric-difference": sym,
            "moment-table": np.array(list(moments.values())),
            "cauchy-derivative": deriv.coeffs,
            "taylor": np.array(list(taylor.coefficients.values())),
            "laurent": np.array(list(laurent.moments.values()))}


@pytest.mark.parametrize("name", sorted(MIRROR_MESHES))
def test_left_and_right_sums_mirror(name):
    # the symmetric-difference ladder and fueter's node sums take the
    # mirror as the principal values and integrals do
    mesh, f, rf = _mirror_pair(name)
    left = _mirrored_results(mesh, f, "left")
    right = _mirrored_results(mesh, rf, "right")
    for key, rows in left.items():
        assert np.array_equal(_reverse(rows), right[key]), key


# -- right-sided products mirror left-sided ones ---------------------------------
#
# Z^alpha, d^alpha E and a paravector's inverse are fixed by reversion too,
# so c Z^alpha = rev(Z^alpha rev(c)), m d^alpha E = rev(d^alpha E rev(m))
# and a b^-1 = rev(b^-1 rev(a)): every right-sided product is the left
# product of the reversed coefficients, reversed, bit for bit.

PRODUCT_MIRROR_MESHES = dict(
    MIRROR_MESHES,
    **{"circle-L1": (DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
                     1)})


def _taylor_degree(mesh):
    # the largest degree up to 2 that the mesh resolves (h (k + 1) <= R)
    return min(2, int(fueter.surface_hull_radius(mesh) / mesh.h) - 1)


@pytest.mark.parametrize("name", sorted(PRODUCT_MIRROR_MESHES))
def test_left_and_right_expansions_mirror(name):
    mesh = build_mesh(*PRODUCT_MIRROR_MESHES[name])
    f = random_smooth(mesh, 3)
    rf = BoundaryDensity(mesh, _reverse(f.samples))
    inner = 0.4 * mesh.nodes[::7]
    outer = 2.5 * mesh.nodes[::7]
    k = _taylor_degree(mesh)
    left = fueter.taylor_component(f, k, mesh, "left")
    right = fueter.taylor_component(rf, k, mesh, "right")
    assert np.array_equal(_reverse(left(inner)), right(inner))
    assert np.array_equal(_reverse(left(inner[0]).coeffs),
                          right(inner[0]).coeffs)
    for k in (1, 2):
        left = fueter.laurent_term(mesh, f, k, "left")
        right = fueter.laurent_term(mesh, rf, k, "right")
        assert np.array_equal(_reverse(left(outer)), right(outer))


@pytest.mark.parametrize("name", sorted(PRODUCT_MIRROR_MESHES))
def test_left_and_right_sectional_solutions_mirror(name):
    # the Cauchy-type part and the polynomial part S[g] + P both mirror
    mesh = build_mesh(*PRODUCT_MIRROR_MESHES[name])
    ctx = mesh.context
    rng = np.random.default_rng(11)
    f = random_smooth(mesh, 3)
    rf = BoundaryDensity(mesh, _reverse(f.samples))
    left, _ = bvp.solve_jump_rm(mesh, f, 2, side="left")
    coeffs = {alpha: rng.standard_normal(ctx.dim)
              for alpha, _ in left.polynomial}
    left = left.with_polynomial(coeffs)
    right, _ = bvp.solve_jump_rm(mesh, rf, 2, side="right")
    right = right.with_polynomial({alpha: _reverse(c)
                                   for alpha, c in coeffs.items()})
    t = mesh.node_count // 3
    for method in ("raw", "subtract"):
        assert np.array_equal(
            _reverse(left.interior(0.6 * mesh.nodes[t], method).coeffs),
            right.interior(0.6 * mesh.nodes[t], method).coeffs)
        assert np.array_equal(
            _reverse(left.exterior(1.5 * mesh.nodes[t], method).coeffs),
            right.exterior(1.5 * mesh.nodes[t], method).coeffs)
    points = mesh.nodes[::5]
    assert np.array_equal(_reverse(left._poly_rows(points)),
                          right._poly_rows(points))
