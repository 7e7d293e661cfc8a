"""Boundary value problem solvers built on the Cauchy-type machinery.

Covers the linear conjugation problems on a closed surface Gamma (jump
problems R_m with a prescribed order bound at infinity, the constant-gap
variant Phi+ = Phi- G + g, or Phi+ = G Phi- + g on the right, and the
interior Dirichlet problem) together
with the characteristic singular integral equation with constant
right-quotient coefficients, the inversion of the singular Cauchy
operator, and a numerical experiment probing the commutation of iterated
principal-value integrals.

Sectionally regular solutions are represented by quadrature-backed
evaluators; solvability is decided by moment residuals measured against
refinement-based quadrature error estimates, never by exact arithmetic.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _accel
from .clifford_core import (AlgebraContext, Multivector, SingularInputError,
                            _check_side, _instance, _integer, as_coeffs,
                            batch_product, sided_sum)
from .cauchy import (BoundaryDensity, SideTaggedPoint, boundary_limit,
                     cauchy_integral, principal_value_nodes,
                     symmetric_difference_limit, symmetric_difference_steps,
                     unit_sphere_area, _density_samples, _integral_rows,
                     _pv_core, _scale, _warn_if_continuous)
from .surface import _check_mesh, _first_nonfinite_row
from .fueter import (MAX_DEGREE, DegreeOverflowError, multi_indices,
                     _moment_norms, _moment_threshold, _polynomial,
                     _refined_density)

# Auto-thresholded Dirichlet verdicts never accept residuals above this
# fraction of the data magnitude, however favorable the refinement trend.
DIRICHLET_SIGNIFICANCE = 0.02


# -- sectionally regular solutions ----------------------------------------------

@dataclass(frozen=True)
class SectionalSolution:
    """Sectionally regular function Phi = (S[g] + P) X on Omega+ / Omega-
    (left), or X (S[g] + P) (right).

    Attributes
    ----------
    mesh : SurfaceMesh
    density : BoundaryDensity
        The density g of the Cauchy-type part S[g].
    side : 'left' | 'right'
        Regularity side; also fixes which side polynomial coefficients
        multiply on.
    polynomial : tuple
        ((alpha, coeffs), ...) entries of the additive polynomial part
        P = sum Z^alpha c_alpha (left) or sum c_alpha Z^alpha (right);
        empty when no free part exists.
    gap_inverse : ndarray or None
        Coefficients of G^{-1} for constant-gap problems; the exterior
        factor X is G^{-1} when set, 1 otherwise, on the right of a
        left-regular Phi and on the left of a right-regular one
        (_mirrored_product), the side whose constant factors keep Phi
        regular.
    interior_only : bool
        True for Dirichlet solutions; exterior evaluation then raises.
    """

    mesh: object
    density: BoundaryDensity
    side: str
    polynomial: tuple = ()
    gap_inverse: object = None
    interior_only: bool = False

    def __post_init__(self):
        _density_samples(self.mesh, self.density, name="density")
        _check_side(self.side, self.mesh.context)

    def _poly_rows(self, pts):
        """P at the (M, n+1) points, mirrored on the right (_check_side)."""
        ctx = self.mesh.context
        rev = _check_side(self.side, ctx)
        terms = [(alpha, as_coeffs(ctx, c) * rev)
                 for alpha, c in self.polynomial]
        return _polynomial(ctx, terms)(pts) * rev

    def _evaluate(self, w, tag, method):
        ctx = self.mesh.context
        point = np.asarray(w, dtype=np.float64)
        tagged = SideTaggedPoint(tuple(point), tag)
        val = cauchy_integral(self.mesh, self.density, tagged,
                              side=self.side, method=method)
        total = val.value.coeffs + self._poly_rows(point[None, :])[0]
        if tag == "exterior" and self.gap_inverse is not None:
            total = _mirrored_product(ctx, total, self.gap_inverse,
                                      _check_side(self.side, ctx))
        return Multivector(ctx, total)

    def interior(self, w, method="raw") -> Multivector:
        """Evaluate Phi on Omega+ (method as in cauchy_integral)."""
        return self._evaluate(w, "interior", method)

    def exterior(self, w, method="raw") -> Multivector:
        """Evaluate Phi on Omega-."""
        if self.interior_only:
            raise ValueError("solution is defined on the interior domain only")
        return self._evaluate(w, "exterior", method)

    def with_polynomial(self, coefficients) -> "SectionalSolution":
        """Copy with polynomial coefficients set from {alpha: coeffs}."""
        ctx = self.mesh.context
        table = {tuple(a): as_coeffs(ctx, c)
                 for a, c in coefficients.items()}
        slots = []
        for alpha, c in self.polynomial:
            slots.append((alpha, table.pop(alpha, c)))
        if table:
            raise KeyError("no free coefficient slot for indices %s"
                           % sorted(table))
        return replace(self, polynomial=tuple(slots))


@dataclass(frozen=True)
class SolvabilityReport:
    """Moment-condition verdict for a jump-type problem.

    verdict is 'unconditional' (m >= -n: no conditions), 'solvable'
    (all moment residuals below threshold) or 'unsolvable'.  residuals
    maps each required multi-index to the norm of its moment integral, so
    its length is the number of conditions; threshold is 10x a
    refinement-based quadrature error estimate with an absolute floor.
    """

    verdict: str
    residuals: dict
    threshold: float


def solve_jump_rm(mesh, g: BoundaryDensity, m: int, side="left"):
    """Solve the jump problem Phi+ - Phi- = g in the class R_m.

    Parameters
    ----------
    m : int
        Admissible order at infinity of the exterior part; anything but an
        integer (_integer) raises ValueError before any sum.

    Returns
    -------
    (SectionalSolution or None, SolvabilityReport)
        For m >= -n the problem is unconditionally solvable; m >= 0 adds
        C(n+m, n) free polynomial coefficient slots (zero by default).
        For m < -n the moments int Z^alpha dsigma g must vanish for all
        |alpha| <= -(n+m)-1 (C(-m-1, n) conditions); when a residual
        exceeds the threshold the verdict is 'unsolvable' and no
        evaluator is returned.  A slot or a moment degree past MAX_DEGREE,
        m outside -n-MAX_DEGREE-1..MAX_DEGREE, raises DegreeOverflowError.
    """
    m = _integer(m, "m")
    _density_samples(mesh, g, name="g")
    _warn_if_continuous(g)
    ctx = mesh.context
    n = ctx.n
    if m > MAX_DEGREE:
        raise DegreeOverflowError("order bound m = %d needs polynomial "
                                  "slots past max degree %d" % (m, MAX_DEGREE))
    if m >= -n:
        poly = tuple((alpha, np.zeros(ctx.dim)) for k in range(m + 1)
                     for alpha in multi_indices(n, k))
        sol = SectionalSolution(mesh, g, side, poly)
        return sol, SolvabilityReport("unconditional", {}, 0.0)
    K = -(n + m) - 1
    if K > MAX_DEGREE:
        raise DegreeOverflowError(
            "order bound m = %d needs moment degree %d > max %d"
            % (m, K, MAX_DEGREE))
    coarse, residuals, refined = _moment_norms(mesh, g, K, side)
    threshold = _moment_threshold(
        g, max(abs(residuals[a] - coarse[a]) for a in residuals))
    if not refined:
        warnings.warn("no evaluator/spec for refinement; using the absolute "
                      "moment floor only", stacklevel=2)
    solvable = all(v <= threshold for v in residuals.values())
    report = SolvabilityReport("solvable" if solvable else "unsolvable",
                               residuals, threshold)
    if not solvable:
        return None, report
    return SectionalSolution(mesh, g, side), report


def _sample_indices(N, sample_nodes, seed):
    """min(sample_nodes, N) distinct seeded node indices; none raises."""
    sample_nodes = _integer(sample_nodes, "sample_nodes", 1)
    return np.random.default_rng(seed).choice(N, size=min(sample_nodes, N),
                                              replace=False)


def jump_residual(mesh, sol: SectionalSolution, g: BoundaryDensity,
                  sample_nodes=8, seed=0):
    """Max-norm of Phi+ - Phi- - g at sampled nodes via approach limits:
    constant_gap_residual with G = 1.

    Independent of the Plemelj identities: both one-sided values come
    from boundary_limit's Richardson ladders along the normal.
    """
    return constant_gap_residual(mesh, sol, g, 1.0, sample_nodes, seed)


# -- general multivector row inversion --------------------------------------------

def invert_rows(ctx, rows):
    """Two-sided inverses of multivector coefficient rows (N, dim).

    Solves the left-multiplication systems L[x] y = e0 and verifies
    y x = x y = 1 to 1e-10 relative; raises SingularInputError, naming
    the row, when a row is not finite, singular or only one-sided
    invertible.  The bound's norms come from hypot, so they stay finite
    for any finite rows and the verdict does not depend on their scale.
    """
    _instance(ctx, AlgebraContext, "ctx")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    bad = _first_nonfinite_row(rows)
    if bad is not None:
        raise SingularInputError("row %d is not finite" % bad)
    e0 = np.zeros(ctx.dim)
    e0[0] = 1.0
    # left-multiplication matrices: column b of L[x] is x e_b
    L = batch_product(ctx, rows[:, None, :], np.eye(ctx.dim)).swapaxes(1, 2)
    try:
        rhs = np.broadcast_to(e0, rows.shape)[..., None].copy()
        inv = np.linalg.solve(L, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # the batch names no matrix: solve row by row to find the first
        for j, Lj in enumerate(L):
            try:
                np.linalg.solve(Lj, e0)
            except np.linalg.LinAlgError:
                raise SingularInputError("row %d is singular" % j) from None
        raise
    scale = np.hypot.reduce(rows, axis=1) * np.hypot.reduce(inv, axis=1)
    # a subnormal row's inverse overflows: its NaN residual fails "not <="
    with np.errstate(over="ignore", invalid="ignore"):
        for prod in (batch_product(ctx, rows, inv),
                     batch_product(ctx, inv, rows)):
            err = np.linalg.norm(prod - e0[None, :], axis=1)
            bad = ~(err <= 1e-10 * np.maximum(scale, 1.0))
            if np.any(bad):
                j = int(np.argmax(bad))
                raise SingularInputError(
                    "row %d is not two-sided invertible (residual %.3g)"
                    % (j, float(err[j])))
    return inv


# -- constant-gap conjugation ------------------------------------------------------

def _mirrored_product(ctx, a, b, rev):
    """Rows a b for rev = 1.0 (left), and rev(rev(a) rev(b)) = b a for
    reversion's signs (right): a left-sided product mirrored to the side
    whose factor _check_side returned."""
    return batch_product(ctx, a * rev, b * rev) * rev


def solve_constant_gap(mesh, g: BoundaryDensity, G, m: int, side="left"):
    """Solve Phi+ = Phi- G + g (left) or Phi+ = G Phi- + g (right) with a
    constant invertible gap factor G.

    The transform Phi = (S[g] + P) X (left) or X (S[g] + P) (right), with
    X = 1 on Omega+ and X = G^{-1} on Omega-, reduces the problem to the
    jump problem for g, so the solvability conditions and free polynomial
    slots are those of solve_jump_rm.  A constant factor keeps a
    left-regular function regular on its right and a right-regular one on
    its left, so the right-sided problem is the mirror of the left one.
    G may be any constant multivector (value formats as in
    clifford_core.as_coeffs); invert_rows computes G^{-1} and raises
    SingularInputError when G is not two-sided invertible.
    """
    _density_samples(mesh, g, name="g")
    ctx = mesh.context
    Ginv = invert_rows(ctx, as_coeffs(ctx, G)[None, :])[0]
    sol, report = solve_jump_rm(mesh, g, m, side=side)
    if sol is None:
        return None, report
    return replace(sol, gap_inverse=Ginv), report


def constant_gap_residual(mesh, sol: SectionalSolution, g: BoundaryDensity,
                          G, sample_nodes=8, seed=0):
    """Max-norm of Phi+ - Phi- G - g (left) or Phi+ - G Phi- - g (right)
    at sampled nodes via approach limits, boundary_limit's Richardson
    ladders along the normal."""
    _density_samples(mesh, g, name="g")
    _instance(sol, SectionalSolution, "sol")
    ctx = mesh.context
    Gc = as_coeffs(ctx, G)
    rev = _check_side(sol.side, ctx)
    idx = _sample_indices(mesh.node_count, sample_nodes, seed)
    poly = sol._poly_rows(mesh.nodes[idx])
    plus, minus = (limit + poly for limit in
                   boundary_limit(mesh, sol.density, idx, side=sol.side))
    if sol.gap_inverse is not None:
        minus = _mirrored_product(ctx, minus, sol.gap_inverse, rev)
    residual = plus - _mirrored_product(ctx, minus, Gc, rev) - g.samples[idx]
    return float(np.linalg.norm(residual, axis=1).max())


# -- interior Dirichlet-type problem ----------------------------------------------

@dataclass(frozen=True)
class DirichletReport:
    """Outcome of the interior boundary-reproduction problem.

    solvable is decided from a refinement trend: the criterion residual
    must drop under one refinement (quadrature-dominated) instead of
    stabilizing at a nonzero limit.  residual_exterior is the probe
    max-norm of C[g] outside, residual_pv the node max-norm of
    PV C[g] - g/2 and attainment_error the symmetric-difference
    reconstruction error.  The regularity tag of g decides the criterion
    (solve_dirichlet), and the report shows which: Holder data have a
    finite residual_pv and a NaN attainment_error; continuous data have a
    NaN residual_pv and, once the trend passes, a finite attainment_error.
    The failing residual field is reported instead of raising.
    """

    solvable: bool
    residual_exterior: float
    residual_pv: float
    residual_fine: float
    threshold: float
    attainment_error: float
    residual_field: np.ndarray
    solution: object


def _dirichlet_residuals(mesh, gs, sample_idx, probe_dirs):
    """(exterior, pv, field) of each density of gs under its criterion.

    Every density reads the exterior probes, in one kernel pass, and the
    Holder ones (criterion 'both') also the principal values, in another,
    so each density's numbers are bitwise those of a call with it alone.
    """
    center = mesh.nodes.mean(axis=0)
    out = []
    for r in _integral_rows(mesh, gs, center + 2.0 * _scale(mesh) * probe_dirs,
                            "left"):
        field = np.linalg.norm(r, axis=1)
        out.append([float(field.max()), math.nan, field])
    pvk = [k for k, gk in enumerate(gs) if gk.is_holder]
    if pvk:
        pv = principal_value_nodes(mesh, [gs[k] for k in pvk],
                                   indices=sample_idx)
        for k, r in zip(pvk, pv):
            field = np.linalg.norm(r - 0.5 * gs[k].samples[sample_idx], axis=1)
            out[k][1], out[k][2] = float(field.max()), field
    return out


def _probe_indices(mesh, count):
    """min(count, N) node indices evenly spaced (>= 1 apart) over 0..N-1."""
    return np.linspace(0, mesh.node_count - 1,
                       min(count, mesh.node_count)).astype(np.int64)


def solve_dirichlet(mesh, g, threshold=None):
    """Decide and solve the interior problem Phi+ regular, Phi+|Gamma = g.

    Each density's regularity tag decides how.  Holder data ('holder'
    mode) take criterion 'both': the exterior integral C[g] vanishes at 8
    seeded probes at twice the radius ('exterior'), cross-checked by PV
    C[g] = g/2 at 64 evenly spaced nodes ('pv'), which the Plemelj
    formulas justify for Holder data only.  Continuous data ('continuous'
    mode) take 'exterior' alone, plus a symmetric-difference attainment
    check.  Without an explicit threshold the verdict comes from a
    refinement trend, which needs an exact evaluator.

    g is one BoundaryDensity, which gives one DirichletReport, or a
    sequence of them, which gives a list with one report each.  However
    many densities there are, they share the kernel passes of each mesh
    (the exterior probes and the principal values, on mesh and on its
    cached refinement, then one attainment ladder), and each report is
    bitwise that of its density alone: its residuals, threshold and
    verdict are its own.
    """
    # a density from another mesh raises before any sum is taken
    _density_samples(mesh, g, name="g")
    single = isinstance(g, BoundaryDensity)
    gs = [g] if single else list(g)
    if threshold is None and (mesh.spec is None or
                              any(gk.evaluator is None for gk in gs)):
        raise ValueError("automatic threshold needs an evaluator-backed "
                         "density on a spec-built mesh; pass threshold=")
    ctx = mesh.context
    rng = np.random.default_rng(0)
    sample_idx = _probe_indices(mesh, 64)
    probe_dirs = rng.standard_normal((8, ctx.n + 1))
    probe_dirs /= np.linalg.norm(probe_dirs, axis=1, keepdims=True)

    coarse = _dirichlet_residuals(mesh, gs, sample_idx, probe_dirs)
    gmax = [max(float(np.abs(gk.samples).max()), 1e-300) for gk in gs]
    if threshold is None:
        gfs = [_refined_density(mesh, gk) for gk in gs]
        fine = gfs[0].mesh
        refined = _dirichlet_residuals(fine, gfs, _probe_indices(fine, 64),
                                       probe_dirs)
    verdicts = []
    for k, (ext_res, pv_res, _) in enumerate(coarse):
        coarse_val = np.nanmax([ext_res, pv_res])
        fine_val = math.nan
        if threshold is None:
            ef, pf, _ = refined[k]
            fine_val = np.nanmax([ef, pf])
            thr = max(10.0 * max(coarse_val - fine_val, 0.0), 1e-10 * gmax[k])
            # a residual that stays at a macroscopic fraction of the data
            # can pass the trend test while the quadrature is still
            # pre-asymptotic; never judge such data solvable
            solvable = bool(fine_val <= thr and
                            fine_val <= DIRICHLET_SIGNIFICANCE * gmax[k])
        else:
            thr = threshold
            solvable = bool(coarse_val <= thr)
        verdicts.append((solvable, fine_val, thr))

    attain = [math.nan] * len(gs)
    check = [k for k, gk in enumerate(gs)
             if not gk.is_holder and verdicts[k][0]]
    if check:
        # rng's next draw, the same nodes for every density
        attain_idx = rng.choice(mesh.node_count, size=3, replace=False)
        rec = symmetric_difference_limit(mesh, [gs[k] for k in check],
                                         attain_idx,
                                         symmetric_difference_steps(mesh))
        for k, r in zip(check, rec):
            attain[k] = float(np.linalg.norm(r - gs[k].samples[attain_idx],
                                             axis=1).max())

    reports = []
    for k, gk in enumerate(gs):
        solvable, fine_val, thr = verdicts[k]
        if k in check:
            solvable = attain[k] <= 0.05 * gmax[k]
        sol = None
        if solvable:
            sol = SectionalSolution(mesh, gk, "left", interior_only=True)
        ext_res, pv_res, field = coarse[k]
        reports.append(DirichletReport(solvable, ext_res, pv_res, fine_val,
                                       thr, attain[k], field, sol))
    return reports[0] if single else reports


# -- singular operator inversion ---------------------------------------------------

def invert_cauchy_pv(mesh, f, side="left"):
    """Solve S[phi] = f where S = (2/V_n) PV int E dsigma (.).

    The operator is involutive (S^2 = I), so the solution is phi = S[f],
    returned as node samples with the regularity tag of f.  f is one
    BoundaryDensity, giving one, or a sequence of K, giving a list from one
    principal_value_nodes call, each bitwise that of its f alone.
    """
    single = isinstance(f, BoundaryDensity)
    fs = [f] if single else f
    rows = 2.0 * principal_value_nodes(mesh, fs, side=side)
    phis = [BoundaryDensity(mesh, r, regularity=fk.regularity)
            for r, fk in zip(rows, fs)]
    return phis[0] if single else phis


# -- characteristic singular integral equation --------------------------------------

@dataclass(frozen=True)
class CharacteristicCoefficients:
    """Validated coefficient pair (a, b) of the characteristic equation.

    Requires a +/- b invertible at every node and the right quotient
    G = (a - b)(a + b)^{-1} constant across nodes (relative spread at most
    1e-8); the closed-form solution is only valid in that class.
    """

    a: BoundaryDensity
    b: BoundaryDensity
    quotient_spread: float
    sum_inverse: np.ndarray
    diff_inverse: np.ndarray

    @classmethod
    def from_ab(cls, mesh, a: BoundaryDensity, b: BoundaryDensity):
        A, = _density_samples(mesh, a, name="a")
        B, = _density_samples(mesh, b, name="b")
        ctx = mesh.context
        sum_inv = invert_rows(ctx, A + B)
        diff_inv = invert_rows(ctx, A - B)
        Grows = batch_product(ctx, A - B, sum_inv)
        Gmean = Grows.mean(axis=0)
        spread = float(np.linalg.norm(Grows - Gmean[None, :], axis=1).max())
        spread /= max(float(np.linalg.norm(Gmean)), 1e-300)
        if spread > 1e-8:
            raise ValueError(
                "right quotient (a-b)(a+b)^{-1} varies across nodes "
                "(relative spread %.3g > 1e-08)" % spread)
        return cls(a, b, spread, sum_inv, diff_inv)


@dataclass(frozen=True)
class SIESolution:
    """Solution of the characteristic equation with its residual."""

    phi: BoundaryDensity
    residual: float


def apply_characteristic_lhs(mesh, a: BoundaryDensity, b: BoundaryDensity,
                             phi):
    """Rows of phi a + (2/V_n) [PV int E dsigma phi] b at the nodes.

    phi is one density, giving (N, dim) rows, or a sequence of K, giving
    (K, N, dim) rows from one principal-value call.
    """
    A, = _density_samples(mesh, a, name="a")
    B, = _density_samples(mesh, b, name="b")
    ctx = mesh.context
    lhs = 2.0 * batch_product(ctx, principal_value_nodes(mesh, phi), B)
    single = isinstance(phi, BoundaryDensity)
    for rows, p in zip([lhs] if single else lhs, [phi] if single else phi):
        rows += batch_product(ctx, p.samples, A)
    return lhs


def solve_characteristic_sie(mesh, coefficients, f):
    """Solve phi a + (2/V_n)[PV int E dsigma phi] b = f in closed form.

    phi = (1/2)[f (a+b)^{-1} + f (a-b)^{-1}] - 2 PV C[psi] with
    psi = f (a-b)^{-1} b (a+b)^{-1}; valid when the right quotient
    (a-b)(a+b)^{-1} is constant.  coefficients is the
    CharacteristicCoefficients of (a, b), whose from_ab checks that.  The
    residual of the equation at the nodes is computed and reported; each
    phi keeps the regularity tag of its f.

    f is one right-hand side, which gives one SIESolution, or a sequence
    of them, which gives a list with one SIESolution each.  However many
    there are, they take two principal-value calls: PV C[psi] for all,
    then the left-hand side of all; each solution is bitwise the one of
    its right-hand side alone.  A coefficient or right-hand side sampled
    on a mesh with other nodes raises ValueError.
    """
    single = isinstance(f, BoundaryDensity)
    fs = [f] if single else f
    # a stack, since psi and the half-sum below are products of all of them
    F = np.stack(_density_samples(mesh, fs))
    _instance(coefficients, CharacteristicCoefficients, "coefficients")
    ctx = mesh.context
    a, b = coefficients.a, coefficients.b
    sum_inv, diff_inv = coefficients.sum_inverse, coefficients.diff_inverse
    # a coefficient from another mesh raises here, before any sum is taken
    _density_samples(mesh, a)
    B, = _density_samples(mesh, b)
    psi = batch_product(ctx, batch_product(ctx, batch_product(
        ctx, F, diff_inv), B), sum_inv)
    pv_psi = principal_value_nodes(mesh, [
        BoundaryDensity(mesh, p, regularity=fk.regularity)
        for p, fk in zip(psi, fs)])
    half = 0.5 * (batch_product(ctx, F, sum_inv)
                  + batch_product(ctx, F, diff_inv))
    phis = [BoundaryDensity(mesh, h - 2.0 * p, regularity=fk.regularity)
            for h, p, fk in zip(half, pv_psi, fs)]
    del F, psi, pv_psi, half  # only the phis are held during the next pass
    lhs = apply_characteristic_lhs(mesh, a, b, phis)
    sols = [SIESolution(phi, float(np.linalg.norm(rows - fk.samples,
                                                  axis=1).max()))
            for phi, rows, fk in zip(phis, lhs, fs)]
    return sols[0] if single else sols


# -- full equation left-hand side ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductKernel:
    """Two-point kernel k[j, i] = left[j] right[i] on mesh, as factor rows.

    left[j] = f(x_j) and right[i] = g(t_i) are (N, dim) rows; the
    (N, N, dim) kernel they stand for is never formed.  The rows are
    checked once, here: a factor that is itself a ProductKernel, has
    another shape than (N, 2^n) or holds a non-finite row raises
    ValueError naming the factor (and the row).  They are kept as
    read-only float64 copies, so the caller's arrays stay writeable and
    neither a field nor a row can change after construction.
    """

    mesh: object
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        want = (self.mesh.node_count, self.mesh.context.dim)
        for name in ("left", "right"):
            rows = getattr(self, name)
            if isinstance(rows, ProductKernel):
                raise ValueError("the %s kernel factor is another "
                                 "ProductKernel" % name)
            rows = np.array(rows, dtype=np.float64)
            if rows.shape != want:
                raise ValueError("kernel %s factor must have shape (N, 2^n) "
                                 "= %s, got %s" % (name, want, rows.shape))
            bad = _first_nonfinite_row(rows)
            if bad is not None:
                raise ValueError("kernel %s factor is not finite at row %d"
                                 % (name, bad))
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @property
    def nbytes(self):
        return self.left.nbytes + self.right.nbytes


def _kernel_matrix(mesh, k):
    """k checked as the kernel kmat[j, i] = k(x_j, t_i) of the sums on mesh.

    k must be a ProductKernel, as _corpus.product_kernel returns, sampled
    on mesh (or on a mesh with the same nodes); its factor rows were
    checked when it was made, and it is returned as it is.  Anything
    else, a presampled (N, N, dim) array or a callable among them, raises
    ValueError naming k before any sum is taken.
    """
    if not isinstance(k, ProductKernel):
        raise ValueError("k must be a ProductKernel with (N, 2^n) factor "
                         "rows (see _corpus.product_kernel), got %s"
                         % type(k).__name__)
    if k.mesh is not mesh and not np.array_equal(k.mesh.nodes, mesh.nodes):
        raise ValueError("kernel is sampled on another mesh (%d nodes) "
                         "than the one summed over (%d nodes)"
                         % (k.mesh.node_count, mesh.node_count))
    return k


def _matrix_pv_rows(mesh, left, right):
    """Raw PV int E dsigma L R_i at every node i, for factor rows L and R.

    The density of target i is L_j R_i, so its principal value is that of
    the ordinary density L, right-multiplied by R_i: the shifted sums
    S1_i - S2_i L_i and the singular-cell correction (_pv_core, one
    accum_left call) and the (V_n/2) L_i diagonal term are all left
    products of L.  Returns (rows, shifted): the (N, dim) unnormalized
    principal values and the shifted sums of L.
    """
    (shifted,), (correction,) = _pv_core(mesh, (left,))
    pv = shifted + correction + 0.5 * unit_sphere_area(mesh.n) * left
    return batch_product(mesh.context, pv, right), shifted


def apply_full_sie_lhs(mesh, a: BoundaryDensity, k, phi: BoundaryDensity):
    """Rows of phi a + (2/V_n) PV int E dsigma phi(x) k(x, t) at the nodes.

    k is a ProductKernel k[j, i] = f(x_j) g(t_i), as
    _corpus.product_kernel returns; anything else is refused
    (_kernel_matrix).  The density matrix phi(x_j) k[j, i] factors as
    (phi f)_j g_i, so only factor rows are held, and its principal values
    are _matrix_pv_rows's of the left factor phi f.  Evaluation-only: no
    inversion theory is attached to the full kernel.
    """
    phi_rows, = _density_samples(mesh, phi, name="phi")
    a_rows, = _density_samples(mesh, a, name="a")
    ctx = mesh.context
    k = _kernel_matrix(mesh, k)
    pv = _matrix_pv_rows(mesh, batch_product(ctx, phi_rows, k.left),
                         k.right)[0] / unit_sphere_area(mesh.n)
    return batch_product(ctx, phi_rows, a_rows) + 2.0 * pv


# -- iterated principal values -------------------------------------------------------

@dataclass(frozen=True)
class PoincareBertrandReport:
    """Numerical comparison of iterated vs exchanged singular integrals.

    For sampled nodes t: lhs = PV_x int E(x-t) dsigma_x
    [PV_tau int E(tau-x) dsigma_tau k(tau, x)], rhs = (V_n/2)^2 k(t, t)
    plus the exchanged-order double sum.  No pass/fail is attached; the
    discrepancy lhs - rhs is reported as data, discrepancy_max its largest
    row norm.  When k(tau, x) = f(tau) the rhs is (V_n/2)^2 f(t) alone, so
    discrepancy_max is the separable case's error.  The pair integral, the
    other cross-check, depends on the mesh alone (pair_orthogonality).
    """

    sample_indices: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    discrepancy_max: float


def _pair_orthogonality(mesh, its, jts):
    """Regularized PV_x of E(tau - x) at node t, both nodes dropped.

    One probe per pair of node indices t = x_its[p], tau = x_jts[p],
    its[p] != jts[p]: sum_{l not in {its[p], jts[p]}} E(x_l - t) nu_l w_l
    (d_p(x_l) - d_p(t)) + (V_n/2) d_p(t), d_p(x) = E(tau - x).  All probes
    take one kernel block of their t and tau rows, one batched product and
    one stacked sided_sum; every step is row-wise, so probe p is bitwise a
    call with that probe alone.  its and jts are index arrays of P
    entries; returns (P, 2^n).
    """
    ctx = mesh.context
    nodes = mesh.nodes
    p = np.arange(its.size)
    E = _accel._kernel_E_block(nodes[np.concatenate([its, jts])], nodes.T,
                               mesh.n).transpose(1, 2, 0)
    # density rows d_p(x_l) = E(tau_p - x_l) = -E(x_l - tau_p)
    dens = np.zeros((p.size, mesh.node_count, ctx.dim))
    dens[..., ctx.paravector_blades] = -E[p.size:]
    A = batch_product(ctx, E[:p.size], mesh.measure_coeffs())
    diff = dens - dens[p, its][:, None, :]
    diff[p, its] = 0.0
    diff[p, jts] = 0.0
    vol = unit_sphere_area(mesh.n)
    return sided_sum(ctx, A, diff) + 0.5 * vol * dens[p, its]


def poincare_bertrand_discrepancy(mesh, k=None, f: BoundaryDensity = None,
                                  sample_nodes=8, seed=0):
    """Probe the commutation defect of iterated principal values.

    Pass a two-point kernel k for the general experiment, or a density f
    for the separable case k(tau, x) = f(tau) whose iterated integral
    collapses to (V_n/2)^2 f(t).  k is a ProductKernel with factor rows,
    as _corpus.product_kernel returns; anything else, or one sampled on
    another mesh, is refused (_kernel_matrix).  _matrix_pv_rows gives the
    inner principal values and the shifted sums S1 - S2 L of the left
    factor L; with the self-sums S2 that its full pass keeps in the mesh's
    cache they give S1, which the one _accel.pb_rhs call takes for the
    exchanged-order sums of all sampled nodes.  Kernel values are formed
    only at the sampled nodes' diagonal, so no (N, N, dim) array is held.
    A sample_nodes that is not an integer >= 1 raises ValueError.
    Returns a PoincareBertrandReport; interpretation (convergence trends
    under refinement) is left to the caller.
    """
    _check_mesh(mesh)
    if (k is None) == (f is None):
        raise ValueError("pass exactly one of k or f")
    ctx = mesh.context
    N = mesh.node_count
    vol = unit_sphere_area(mesh.n)
    idx = np.sort(_sample_indices(N, sample_nodes, seed))

    if f is not None:
        inner = vol * principal_value_nodes(mesh, f)
        inner_d = BoundaryDensity(mesh, inner, regularity=f.regularity)
        lhs = vol * principal_value_nodes(mesh, inner_d, indices=idx)
        rhs = (0.5 * vol) ** 2 * f.samples[idx]
    else:
        kmat = _kernel_matrix(mesh, k)
        inner, shifted = _matrix_pv_rows(mesh, kmat.left, kmat.right)
        inner_d = BoundaryDensity(mesh, inner,
                                  regularity=("holder", 1.0, None))
        lhs = vol * principal_value_nodes(mesh, inner_d, indices=idx)
        S1 = shifted + batch_product(ctx, mesh.cache["self_sums"], kmat.left)
        exchanged = _accel.pb_rhs(ctx, mesh.nodes, mesh.measure_coeffs(),
                                  kmat.left, kmat.right, idx, S1)
        rhs = ((0.5 * vol) ** 2
               * batch_product(ctx, kmat.left[idx], kmat.right[idx])
               + exchanged)
    return PoincareBertrandReport(
        idx, lhs, np.asarray(rhs),
        float(np.linalg.norm(lhs - rhs, axis=1).max()))


def pair_orthogonality(mesh, sample_nodes, seed):
    """Largest norm of the pair integral PV_x int E(x-t) dsigma E(tau-x),
    which must vanish in the limit, at t = x_i, tau = x_(i + N//3 mod N)
    over the sampled nodes i of poincare_bertrand_discrepancy (tau = t
    skipped; 0.0 when none is left), in one _pair_orthogonality call."""
    _check_mesh(mesh)
    N = mesh.node_count
    its = np.sort(_sample_indices(N, sample_nodes, seed))
    jts = (its + N // 3) % N
    probe = jts != its
    return max([0.0] + [float(np.linalg.norm(row)) for row in
                        _pair_orthogonality(mesh, its[probe], jts[probe])])
