"""Hypercomplex polynomials, kernel derivatives, Taylor/Laurent machinery.

The hypercomplex variables z_j(x) = x_j e_0 - x_0 e_j (j = 1..n) generate
the symmetric powers Z^alpha; multi-index derivatives d^alpha act on the
coordinates x_1..x_n only.  Kernel derivatives d^alpha E are kept in the
exact rational form P(x)/|x|^s with polynomial numerators per paravector
component and s = n+1+2|alpha|, built by the quotient-rule recurrence

    d_k [P / |x|^s] = (|x|^2 d_k P - s x_k P) / |x|^{s+2}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford_core import (AlgebraContext, Multivector, SingularInputError,
                            _check_side, _instance, _integer, _is_int,
                            as_coeffs, batch_product, sided_sum)
from .cauchy import (
    BoundaryDensity,
    _boundary_distance,
    _density_samples,
    _integral_rows,
    _measure_density,
    unit_sphere_area,
)
from .surface import _check_mesh, _point, _points, refine

MAX_DEGREE = 6


class DegreeOverflowError(ValueError):
    """Multi-index degree exceeds the configured maximum."""


class QuadratureDegeneracyError(ValueError):
    """Mesh too coarse for the requested expansion degree."""


def _check_degree(degree, cap=MAX_DEGREE):
    """The one degree check of multi-indices and expansion degrees: a
    non-negative integer (_integer), else ValueError, and at most cap
    (None: no cap), else DegreeOverflowError."""
    degree = _integer(degree, "degree", 0)
    if cap is not None and degree > cap:
        raise DegreeOverflowError("degree %d exceeds max %d" % (degree, cap))


def _as_alpha(alpha, n, cap=MAX_DEGREE):
    """alpha as a tuple of n nonnegative ints of degree |alpha| <= cap, the
    one multi-index check: an entry that fails _is_int or is negative, or a
    wrong length, raises ValueError, a degree past cap DegreeOverflowError."""
    alpha = tuple(alpha)
    bad = [a for a in alpha if not _is_int(a) or a < 0]
    if bad:
        raise ValueError("multi-index entry %r is not a nonnegative integer"
                         % (bad[0],))
    _check_degree(sum(alpha), cap)
    if len(alpha) != n:
        raise ValueError("multi-index must have n = %d entries" % n)
    return tuple(int(a) for a in alpha)


def multi_indices(n, degree):
    """All multi-indices of n entries with |alpha| = degree, lexicographic;
    n must be an integer >= 1 (_integer), else ValueError, and the degree
    takes _check_degree's check, with no cap."""
    _integer(n, "n", 1)
    _check_degree(degree, cap=None)
    if n == 1:
        return iter([(degree,)])
    return ((first,) + rest for first in range(degree, -1, -1)
            for rest in multi_indices(n - 1, degree - first))


def hyper_variable(ctx, j, x) -> Multivector:
    """z_j(x) = x_j e_0 - x_0 e_j for an int j in 1..n."""
    j = _integer(j, "j", 1, ctx.n)
    point = _point(x, ctx.n, "x")
    return Multivector(ctx, _hyper_variable_rows(ctx, j, point[None])[0])


def _hyper_variable_rows(ctx, j, points):
    out = np.zeros((points.shape[0], ctx.dim))
    out[:, 0] = points[:, j]
    out[:, ctx.paravector_blades[j]] = -points[:, 0]
    return out


def _symmetric_powers(ctx, alphas, points):
    """{alpha: Z^alpha rows at the (N, n+1) points} for each of alphas.

    Grouping the arrangements of alpha by their last factor gives
    Z^alpha = sum_{j: alpha_j > 0} Z^{alpha - e_j} z_j, with Z^0 = 1; the
    Z^beta of every beta <= alpha are built once, by increasing degree.
    """
    alphas = list(alphas)
    zrows = [_hyper_variable_rows(ctx, j, points)
             for j in range(1, ctx.n + 1)]
    betas = {beta for alpha in alphas
             for beta in itertools.product(*(range(a + 1) for a in alpha))}
    memo = {}
    for beta in sorted(betas, key=sum):
        out = memo[beta] = np.zeros((points.shape[0], ctx.dim))
        if not any(beta):
            out[:, 0] = 1.0
        for j, b in enumerate(beta):
            if b:
                lower = beta[:j] + (b - 1,) + beta[j + 1:]
                out += batch_product(ctx, memo[lower], zrows[j])
    return {alpha: memo[alpha] for alpha in alphas}


def symmetric_power_rows(ctx, alpha, points):
    """Z^alpha at each point row, as (N, 2^n) coefficients.

    Z^alpha is the sum over all |alpha|!/prod(alpha_j!) distinct
    arrangements of the product of z_j factors; Z^0 = 1.
    """
    points, _ = _points(points, ctx.n, "points")
    alpha = _as_alpha(alpha, ctx.n)
    return _symmetric_powers(ctx, [alpha], points)[alpha]


# -- exact kernel derivatives ----------------------------------------------------

def _quotient_rule(poly, k, s):
    """Numerator of d_k[P / |x|^s] over |x|^(s+2): |x|^2 d_k P - s x_k P.

    The coefficients are integers, so each sum is exact; zeros are dropped.
    """
    out = {}
    for exps, c in poly.items():
        if exps[k]:
            for i in range(len(exps)):
                e = list(exps)
                e[k] -= 1
                e[i] += 2
                out[tuple(e)] = out.get(tuple(e), 0.0) + c * exps[k]
    for exps, c in poly.items():
        e = list(exps)
        e[k] += 1
        out[tuple(e)] = out.get(tuple(e), 0.0) - s * c
    return {e: c for e, c in out.items() if c != 0.0}


def _poly_eval_rows(poly, points):
    vals = np.zeros(points.shape[0])
    for exps, c in poly.items():
        term = np.full(points.shape[0], c)
        for i, e in enumerate(exps):
            if e:
                term = term * points[:, i] ** e
        vals += term
    return vals


@dataclass(frozen=True)
class KernelDerivative:
    """d^alpha E in the rational form P_c(x)/|x|^s per paravector component.

    P_c is that of E = conj(x)/|x|^(n+1) after one _quotient_rule per d_k.
    """

    n: int
    numerators: tuple   # one polynomial dict per component 0..n
    s: int

    def evaluate_components(self, points):
        """Paravector components of d^alpha E at each point row, (N, n+1);
        the origin raises SingularInputError."""
        points, _ = _points(points, self.n, "points")
        r2 = np.einsum("ij,ij->i", points, points)
        if not r2.all():
            raise SingularInputError("kernel derivative evaluated at the "
                                     "origin")
        scale = r2 ** (-0.5 * self.s)
        out = np.empty((points.shape[0], self.n + 1))
        for c, poly in enumerate(self.numerators):
            out[:, c] = _poly_eval_rows(poly, points) * scale
        return out


@lru_cache(maxsize=None)
def _kernel_derivative_cached(n, alpha):
    p = n + 1
    zero = (0,) * p
    nums = []
    for c in range(p):
        e = list(zero)
        e[c] = 1
        nums.append({tuple(e): 1.0 if c == 0 else -1.0})
    s = n + 1
    for k, times in enumerate(alpha, start=1):
        for _ in range(times):
            nums = [_quotient_rule(poly, k, s) for poly in nums]
            s += 2
    return KernelDerivative(n, tuple(nums), s)


def kernel_derivative(ctx, alpha) -> KernelDerivative:
    """Closed form d^alpha E for the algebra context (|alpha| <= 6)."""
    n = _instance(ctx, AlgebraContext, "ctx").n
    return _kernel_derivative_cached(n, _as_alpha(alpha, n))


def cauchy_derivative(mesh, f: BoundaryDensity, w, alpha, side="left"):
    """d^alpha of C[f] at an off-surface point via closed-form kernel
    derivatives (alpha differentiates the x_1..x_n coordinates; |alpha| <= 4):
    ((-1)^|alpha|/V_n) sum_j [d^alpha E](x_j - w) nu w_j f_j (left case),
    as d^alpha_w E(x - w) = (-1)^|alpha| [d^alpha E](x - w).
    """
    _density_samples(mesh, f)
    alpha = _as_alpha(alpha, mesh.n, cap=4)
    point = _point(w, mesh.n)
    if _boundary_distance(mesh, point) < 1e-12:
        raise SingularInputError("derivative target lies on the surface")
    rows = kernel_derivative(mesh.context, alpha).evaluate_components(
        mesh.nodes - point[None, :])
    total = _node_sums(mesh, f, {alpha: rows}, side)[alpha]
    return Multivector(mesh.context, (-1.0) ** sum(alpha)
                       / unit_sphere_area(mesh.n) * total)


# -- boundary moments -------------------------------------------------------------

def _node_sums(mesh, g: BoundaryDensity, table, side):
    """{key: sum_j R_j nu w_j g_j} (left; the right case mirrored) for each
    key's (N, 2^n) or (N, n+1) node rows R in table: the one node sum of
    fueter, with one measure density nu w g for the whole table.  Reversion
    fixes every R (d^alpha E, Z^alpha), as cauchy._density_samples needs."""
    rev = _check_side(side, mesh.context)
    t, = _measure_density(mesh, _density_samples(mesh, g, side))
    return {key: sided_sum(mesh.context, rows, t) * rev
            for key, rows in table.items()}


def boundary_moment(mesh, g: BoundaryDensity, alpha, side="left") -> Multivector:
    """Moment integral int Z^alpha dsigma g (left) or int g dsigma Z^alpha."""
    _density_samples(mesh, g, name="g")
    alpha = _as_alpha(alpha, mesh.n)
    powers = _symmetric_powers(mesh.context, [alpha], mesh.nodes)
    return Multivector(mesh.context, _node_sums(mesh, g, powers, side)[alpha])


def build_moment_table(mesh, g: BoundaryDensity, max_degree, side="left"):
    """{alpha: int Z^alpha dsigma g} (left; right mirrored) for |alpha| <=
    max_degree, by degree, lexicographic inside each degree."""
    _density_samples(mesh, g, name="g")
    _check_degree(max_degree)
    powers = _symmetric_powers(mesh.context, [
        a for k in range(max_degree + 1) for a in multi_indices(mesh.n, k)],
        mesh.nodes)
    return _node_sums(mesh, g, powers, side)


def _refined_density(mesh, g: BoundaryDensity) -> BoundaryDensity:
    """g resampled from its evaluator on the next refinement level of mesh.

    The refined mesh is built once per mesh and kept in mesh.cache, so its
    own cache (stencil, self-sums) serves every later density as well.
    """
    fine = mesh.kept("refined", lambda: refine(mesh))
    return BoundaryDensity.from_function(fine, g.evaluator,
                                         regularity=g.regularity)


def _moment_norms(mesh, g: BoundaryDensity, max_degree, side):
    """(coarse, fine, refined): {alpha: moment norm} for |alpha| <= max_degree.

    With an evaluator and a mesh spec (refined) fine holds the norms of g
    resampled on the refined mesh; otherwise fine is coarse.
    """
    refined = g.evaluator is not None and mesh.spec is not None
    pairs = [(mesh, g)]
    if refined:
        gf = _refined_density(mesh, g)
        pairs.append((gf.mesh, gf))
    norms = [{alpha: float(np.linalg.norm(m)) for alpha, m in
              build_moment_table(on, d, max_degree, side).items()}
             for on, d in pairs]
    return norms[0], norms[-1], refined


def _moment_threshold(g: BoundaryDensity, change):
    """max(10 change, 1e-8 max|g|): change is a coarse-to-fine moment
    change, the quadrature error estimate."""
    scale = max(float(np.abs(g.samples).max()), 1e-300)
    return max(10.0 * change, 1e-8 * scale)


def _polynomial(ctx, terms):
    """The evaluator of sum Z^alpha c_alpha, (M, n+1) points to (M, 2^n)
    rows; the (alpha, c) terms, c any value as_coeffs takes, are checked
    once, here.  Zero c are skipped, and the Z^alpha of the others come
    from one _symmetric_powers table.  Z^alpha is fixed by reversion, so
    a right-sided sum c_alpha Z^alpha is rev(sum Z^alpha rev(c_alpha)),
    which its callers take."""
    terms = [(_as_alpha(alpha, ctx.n), as_coeffs(ctx, c)) for alpha, c in terms]
    terms = [(alpha, c) for alpha, c in terms if c.any()]

    def rows(points):
        table = _symmetric_powers(ctx, [alpha for alpha, _ in terms], points)
        out = np.zeros((points.shape[0], ctx.dim))
        for alpha, c in terms:
            out += batch_product(ctx, table[alpha], c)
        return out

    return rows


# -- Taylor components -------------------------------------------------------------

def taylor_component(f, k, mesh, side="left"):
    """Degree-k Taylor component of an entire regular function.

    Parameters
    ----------
    f : BoundaryDensity
        The samples of a function regular in a ball of radius > R.
    mesh : SurfaceMesh
        Sphere about the origin carrying the quadrature, of radius
        R = surface_hull_radius(mesh) (laurent_term's rho); degree k needs
        h (k + 1) <= R, else QuadratureDegeneracyError.

    Returns
    -------
    evaluator
        P_k[f](x) = (1/k!) sum_{|alpha|=k} Z^alpha(x) [d^alpha f](0)
        (left case; the right case puts the coefficients on the left, and
        is the left case of the reversed coefficients, reversed).  It maps
        one point to a Multivector and (M, n+1) rows to (M, 2^n) rows, and
        exposes .coefficients, a dict alpha -> coefficients.
    """
    _density_samples(mesh, f)
    ctx = mesh.context
    _check_degree(k)
    rev = _check_side(side, ctx)
    R = surface_hull_radius(mesh)
    if mesh.h * (k + 1) > R:
        raise QuadratureDegeneracyError(
            "mesh h = %.3g too coarse for degree %d on radius %.3g"
            % (mesh.h, k, R))
    # d^alpha C[f](0), as cauchy_derivative at the origin
    sums = _node_sums(mesh, f, {
        alpha: kernel_derivative(ctx, alpha).evaluate_components(mesh.nodes)
        for alpha in multi_indices(ctx.n, k)}, side)
    vol = unit_sphere_area(ctx.n)
    coeffs = {alpha: (-1.0) ** sum(alpha) / vol * total
              for alpha, total in sums.items()}
    poly = _polynomial(ctx, [(alpha, c * rev) for alpha, c in coeffs.items()])

    def evaluator(x):
        pts, single = _points(x, ctx.n)
        out = poly(pts) * (1.0 / math.factorial(k)) * rev
        return Multivector(ctx, out[0]) if single else out

    evaluator.coefficients = coeffs
    return evaluator


# -- Laurent terms ------------------------------------------------------------------

def surface_hull_radius(mesh):
    _check_mesh(mesh)
    return float(np.linalg.norm(mesh.nodes, axis=1).max())


def laurent_term(mesh, g: BoundaryDensity, k, side="left"):
    """Degree-k Laurent term of the Cauchy-type integral near infinity.

    Q_k(w) = ((-1)^k / (V_n k!)) sum_{|alpha|=k} [d^alpha E](w) m_alpha
    with m_alpha the left moment table entries (the right case, m_alpha
    d^alpha E, is the left case of the reversed moments, reversed);
    -sum_k Q_k reproduces C[g](w) for |w| > rho = max|x| on Gamma.
    The evaluator takes points as taylor_component's, raises on |w| <= rho
    and exposes .rho and the .moments m_alpha.
    """
    _density_samples(mesh, g, name="g")
    ctx = mesh.context
    _check_degree(k)
    rev = _check_side(side, ctx)
    rho = surface_hull_radius(mesh)
    moments = _node_sums(mesh, g, _symmetric_powers(
        ctx, multi_indices(ctx.n, k), mesh.nodes), side)
    vol = unit_sphere_area(ctx.n)
    scale = (-1.0) ** k / (vol * math.factorial(k))
    terms = [(kernel_derivative(ctx, alpha), m * rev)
             for alpha, m in moments.items()]

    def evaluator(w):
        pts, single = _points(w, ctx.n, "w")
        if np.any(np.linalg.norm(pts, axis=1) <= rho):
            raise ValueError("Laurent evaluation requires |w| > rho = %.6g"
                             % rho)
        out = np.zeros((pts.shape[0], ctx.dim))
        for kd, m in terms:
            out += batch_product(ctx, kd.evaluate_components(pts), m)
        out *= scale * rev
        return Multivector(ctx, out[0]) if single else out

    evaluator.rho = rho
    evaluator.moments = moments
    return evaluator


# -- order at infinity ---------------------------------------------------------------

def line_fit(x, y):
    """The ordinary least-squares line through the points (x_i, y_i), in
    closed form: (slope, width).  With dx = x - mean(x) and dy = y -
    mean(y), slope = sum dx dy / sum dx^2, and width = 2 sqrt(sum r^2 /
    (m - 2) / sum dx^2), twice the slope's standard error from the
    residuals r = dy - slope dx of the m points.  The width is NaN for two
    points; both are NaN for fewer, or when every x is the same.  The one
    line fit of the package: cli's fitted order and order_at_infinity's
    slope."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        return math.nan, math.nan
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(np.sum(dx * dx))
    if not sxx > 0.0:
        return math.nan, math.nan
    slope = float(np.sum(dx * dy)) / sxx
    if x.size == 2:
        return slope, math.nan
    r = dy - slope * dx
    return slope, 2.0 * math.sqrt(float(np.sum(r * r)) / (x.size - 2) / sxx)


@dataclass(frozen=True)
class OrderReport:
    """Order at infinity with both determination routes reported."""

    order: float            # the moment route's: integer, -inf, or nan
    slope_raw: float        # the empirical route's slope, line_fit's of
                            # log|Phi| on log|w|
    first_moment_degree: int    # N^l, or -1 when no moment clears threshold
    thresholds: dict        # degree -> the threshold its moments must clear
    moment_norms: dict
    undetermined: bool


def order_at_infinity(mesh, g, side="left") -> OrderReport:
    """Order at infinity of the Cauchy-type integral of the density g.

    mesh gives the dimension and the scale of the rays.  Moment route:
    Ord = -n - N^l with N^l the smallest degree k <= MAX_DEGREE whose
    largest moment norm clears max(10 * its change under one refinement
    when the density carries an evaluator, 1e-8 * density scale); per
    degree, as degree-k moments grow like rho^k.  Empirical route: the
    ordinary least-squares slope (line_fit) of log|Phi| against log|w| on
    3 rays of seed 7 with radii in [5 rho, 50 rho], whose nearest integer
    is the order.
    Both are reported: `order` is the moment route's, NaN when no degree
    clears its threshold, and `slope_raw` the unrounded slope.
    """
    _density_samples(mesh, g, name="g")
    n = mesh.n
    # the largest moment norm of each degree, on the mesh and refined
    coarse, norms = [{k: max(v[a] for a in multi_indices(n, k))
                      for k in range(MAX_DEGREE + 1)}
                     for v in _moment_norms(mesh, g, MAX_DEGREE, side)[:2]]
    thresholds = {k: _moment_threshold(g, abs(norms[k] - coarse[k]))
                  for k in norms}
    first_deg = next((k for k in norms if norms[k] > thresholds[k]), -1)
    undetermined = first_deg < 0
    moment_order = math.nan if undetermined else -n - first_deg

    rng = np.random.default_rng(7)
    rho = surface_hull_radius(mesh)
    radii = np.geomspace(5.0 * rho, 50.0 * rho, 8)
    dirs = rng.standard_normal((3, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # ray-major: point k * len(radii) + j is radii[j] * dirs[k]
    points = (dirs[:, None, :] * radii[None, :, None]).reshape(-1, n + 1)
    mags = np.linalg.norm(_integral_rows(mesh, g, points, side), axis=1)
    if mags.max(initial=0.0) <= 1e-13 * float(np.abs(g.samples).max()):
        return OrderReport(-math.inf, -math.inf, first_deg, thresholds,
                           norms, False)
    keep = mags > 0
    slope_raw = line_fit(np.log(np.tile(radii, 3))[keep],
                         np.log(mags[keep]))[0]
    return OrderReport(moment_order, slope_raw, first_deg, thresholds, norms,
                       undetermined)
