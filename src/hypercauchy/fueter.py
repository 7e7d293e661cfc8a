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

from .clifford_core import (Multivector, SingularInputError,
                            _check_side, as_coeffs, batch_product,
                            sided_product, sided_sum)
from .cauchy import (
    BoundaryDensity,
    _boundary_distance,
    _density_samples,
    _integral_rows,
    _measure_density,
    unit_sphere_area,
)
from .surface import refine

MAX_DEGREE = 6


class DegreeOverflowError(ValueError):
    """Multi-index degree exceeds the configured maximum."""


class QuadratureDegeneracyError(ValueError):
    """Mesh too coarse for the requested expansion degree."""


def _check_degree(degree, cap=MAX_DEGREE):
    """The one degree cap of multi-indices and expansion degrees."""
    if degree > cap:
        raise DegreeOverflowError("degree %d exceeds max %d" % (degree, cap))


def _as_alpha(alpha, n, cap=MAX_DEGREE):
    """alpha as a tuple of n nonnegative ints of degree |alpha| <= cap, the
    one multi-index check: a negative entry or a wrong length raises
    ValueError, a degree past cap DegreeOverflowError."""
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    _check_degree(sum(alpha), cap)
    if len(alpha) != n:
        raise ValueError("multi-index must have n = %d entries" % n)
    return alpha


def multi_indices(n, degree):
    """All multi-indices of n entries with |alpha| = degree, lexicographic."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in multi_indices(n - 1, degree - first):
            yield (first,) + rest


def hyper_variable(ctx, j, x) -> Multivector:
    """z_j(x) = x_j e_0 - x_0 e_j for j in 1..n."""
    if not 1 <= j <= ctx.n:
        raise ValueError("j must be in 1..n")
    return Multivector(ctx, _hyper_variable_rows(ctx, j, np.atleast_2d(x))[0])


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
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
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
    alpha: tuple
    numerators: tuple   # one polynomial dict per component 0..n
    s: int

    def evaluate_components(self, points):
        """Paravector components of d^alpha E at each point row, (N, n+1)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r2 = np.einsum("ij,ij->i", points, points)
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
    return KernelDerivative(n, tuple(alpha), tuple(nums), s)


def kernel_derivative(ctx, alpha) -> KernelDerivative:
    """Closed form d^alpha E for the algebra context (|alpha| <= 6)."""
    alpha = _as_alpha(alpha, ctx.n)
    return _kernel_derivative_cached(ctx.n, alpha)


def cauchy_derivative(mesh, f: BoundaryDensity, w, alpha, side="left"):
    """d^alpha of C[f] at an off-surface point via closed-form kernel
    derivatives (alpha differentiates the x_1..x_n coordinates; |alpha| <= 4).
    """
    alpha = _as_alpha(alpha, mesh.n, cap=4)
    point = np.asarray(w, dtype=np.float64)
    dist = _boundary_distance(mesh, point)
    if dist < 1e-12:
        raise SingularInputError("derivative target lies on the surface")
    return Multivector(mesh.context,
                       _kernel_derivative_sum(mesh, f, point, alpha, side))


def _kernel_derivative_sum(mesh, f, w, alpha, side):
    """((-1)^|alpha|/V_n) sum_j [d^alpha E](x_j - w) nu w_j f_j (left case;
    the right case mirrors the product order): d^alpha_w C[f](w), since
    d^alpha_w E(x - w) = (-1)^|alpha| [d^alpha E](x - w)."""
    ctx = mesh.context
    kd = kernel_derivative(ctx, alpha)
    comps = kd.evaluate_components(mesh.nodes - w[None, :])  # (N, n+1)
    t = _measure_density(mesh, _density_samples(mesh, f), side)
    vol = unit_sphere_area(ctx.n)
    return (-1.0) ** sum(alpha) / vol * sided_sum(ctx, side, comps, t)


# -- boundary moments -------------------------------------------------------------

def _moments(mesh, g: BoundaryDensity, alphas, side):
    """{alpha: moment coefficients}, with one measure density for all alpha."""
    ctx = mesh.context
    t = _measure_density(mesh, _density_samples(mesh, g), side)
    powers = _symmetric_powers(ctx, alphas, mesh.nodes)
    return {alpha: sided_sum(ctx, side, rows, t)
            for alpha, rows in powers.items()}


def boundary_moment(mesh, g: BoundaryDensity, alpha, side="left") -> Multivector:
    """Moment integral int Z^alpha dsigma g (left) or int g dsigma Z^alpha."""
    alpha = _as_alpha(alpha, mesh.n)
    return Multivector(mesh.context, _moments(mesh, g, [alpha], side)[alpha])


@dataclass(frozen=True)
class MomentTable:
    """Moments int Z^alpha dsigma g (or the right variant) up to max degree."""

    side: str
    max_degree: int
    entries: dict   # alpha tuple -> coefficient array


def build_moment_table(mesh, g: BoundaryDensity, max_degree, side="left"):
    _check_degree(max_degree)
    alphas = [a for k in range(max_degree + 1)
              for a in multi_indices(mesh.n, k)]
    return MomentTable(side, max_degree, _moments(mesh, g, alphas, side))


def _refined_density(mesh, g: BoundaryDensity) -> BoundaryDensity:
    """g resampled from its evaluator on the next refinement level of mesh.

    The refined mesh is built once per mesh and kept in mesh.cache, so its
    own cache (stencil, self-sums) serves every later density as well.
    """
    fine = mesh.cache.get("refined")
    if fine is None:
        fine = mesh.cache["refined"] = refine(mesh)
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
              build_moment_table(on, d, max_degree, side).entries.items()}
             for on, d in pairs]
    return norms[0], norms[-1], refined


def _moment_threshold(g: BoundaryDensity, change):
    """max(10 change, 1e-8 max|g|): change is a coarse-to-fine moment
    change, the quadrature error estimate."""
    scale = max(float(np.abs(g.samples).max()), 1e-300)
    return max(10.0 * change, 1e-8 * scale)


def _polynomial(ctx, terms, side):
    """The evaluator of sum Z^alpha c_alpha (left) or c_alpha Z^alpha
    (right), (M, n+1) points to (M, 2^n) rows; the (alpha, c) terms, c any
    value as_coeffs takes, are checked once, here.  Zero c are skipped, and
    the Z^alpha of the others come from one _symmetric_powers table."""
    _check_side(side)
    terms = [(_as_alpha(alpha, ctx.n), as_coeffs(ctx, c)) for alpha, c in terms]
    terms = [(alpha, c) for alpha, c in terms if c.any()]

    def rows(points):
        table = _symmetric_powers(ctx, [alpha for alpha, _ in terms], points)
        out = np.zeros((points.shape[0], ctx.dim))
        for alpha, c in terms:
            out += sided_product(ctx, side, table[alpha], c)
        return out

    return rows


# -- Taylor components -------------------------------------------------------------

def taylor_component(f, k, mesh, side="left"):
    """Degree-k Taylor component of an entire regular function.

    Parameters
    ----------
    f : callable or BoundaryDensity
        The function (regular in a ball of radius > R); callables are
        sampled on the mesh nodes.
    mesh : SurfaceMesh
        Sphere about the origin carrying the quadrature, of radius
        R = surface_hull_radius(mesh) (laurent_term's rho); degree k needs
        h (k + 1) <= R, else QuadratureDegeneracyError.

    Returns
    -------
    evaluator
        P_k[f](x) = (1/k!) sum_{|alpha|=k} Z^alpha(x) [d^alpha f](0)
        (left case; the right case puts the coefficients on the left).
        The returned callable also exposes .coefficients, a dict
        alpha -> coefficient array.
    """
    ctx = mesh.context
    _check_degree(k)
    R = surface_hull_radius(mesh)
    if mesh.h * (k + 1) > R:
        raise QuadratureDegeneracyError(
            "mesh h = %.3g too coarse for degree %d on radius %.3g"
            % (mesh.h, k, R))
    if not isinstance(f, BoundaryDensity):
        f = BoundaryDensity.from_function(mesh, f)
    origin = np.zeros(ctx.n + 1)
    coeffs = {alpha: _kernel_derivative_sum(mesh, f, origin, alpha, side)
              for alpha in multi_indices(ctx.n, k)}
    poly = _polynomial(ctx, coeffs.items(), side)

    def evaluator(x):
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = poly(pts) * (1.0 / math.factorial(k))
        if np.asarray(x).ndim == 1:
            return Multivector(ctx, out[0])
        return out

    evaluator.coefficients = coeffs
    evaluator.degree = k
    return evaluator


# -- Laurent terms ------------------------------------------------------------------

def surface_hull_radius(mesh):
    return float(np.linalg.norm(mesh.nodes, axis=1).max())


def laurent_term(mesh, g: BoundaryDensity, k, side="left"):
    """Degree-k Laurent term of the Cauchy-type integral near infinity.

    Q_k(w) = ((-1)^k / (V_n k!)) sum_{|alpha|=k} [d^alpha E](w) m_alpha
    with m_alpha the left moment table entries (right case mirrored);
    -sum_k Q_k reproduces C[g](w) for |w| > rho = max|x| on Gamma.
    The returned evaluator raises on |w| <= rho.
    """
    ctx = mesh.context
    _check_degree(k)
    rho = surface_hull_radius(mesh)
    moments = _moments(mesh, g, multi_indices(ctx.n, k), side)
    vol = unit_sphere_area(ctx.n)
    scale = (-1.0) ** k / (vol * math.factorial(k))
    kds = {alpha: kernel_derivative(ctx, alpha) for alpha in moments}

    def evaluator(w):
        pts = np.atleast_2d(np.asarray(w, dtype=np.float64))
        if np.any(np.linalg.norm(pts, axis=1) <= rho):
            raise ValueError("Laurent evaluation requires |w| > rho = %.6g"
                             % rho)
        out = np.zeros((pts.shape[0], ctx.dim))
        for alpha, m in moments.items():
            out += sided_product(
                ctx, side, kds[alpha].evaluate_components(pts), m)
        out *= scale
        if np.asarray(w).ndim == 1:
            return Multivector(ctx, out[0])
        return out

    evaluator.degree = k
    evaluator.rho = rho
    evaluator.moments = moments
    return evaluator


# -- order at infinity ---------------------------------------------------------------

@dataclass(frozen=True)
class OrderReport:
    """Order at infinity with both determination routes reported."""

    order: float            # integer, or -inf, or nan when undetermined
    moment_route: float
    slope_route: float
    slope_raw: float        # unrounded log-log fit slope
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
    degree, as degree-k moments grow like rho^k.  Empirical route:
    least-squares slope of log|Phi| against log|w| on 3 rays of seed 7
    with radii in [5 rho, 50 rho], rounded to the nearest integer.  Both
    are reported; `order` is the moment route's, NaN when no degree
    clears its threshold.
    """
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
        return OrderReport(-math.inf, -math.inf, -math.inf, -math.inf,
                           first_deg, thresholds, norms, False)
    keep = mags > 0
    slope_raw = float(np.polyfit(np.log(np.tile(radii, 3))[keep],
                                 np.log(mags[keep]), 1)[0])
    slope_order = float(np.round(slope_raw))
    return OrderReport(moment_order, moment_order, slope_order, slope_raw,
                       first_deg, thresholds, norms, undetermined)
