"""Cauchy-type integrals, principal values and Plemelj boundary operators.

Conventions.  The kernel is E(y) = bar(Y)/|y|^{n+1} for y in R^{n+1}
identified with the paravector Y, and integrals carry the normalization
1/V_n with V_n = unit_sphere_area(n) the area of S^n.  Left integrals
are (1/V_n) int E(x-w) dsigma f(x); right integrals put the density on
the left of the measure.  dsigma at a node is nu_i w_i.  Reversion fixes
the paravectors E and nu w and reverses products, so every right integral
of f is summed as rev of the left integral of rev(f) (_density_samples).

Principal values take the regularized form: the desingularized
sum over x != t of E(x-t) nu w [f(x) - f(t)] plus f(t)/2, plus a local
correction for the singular node's cell computed from the tangential
gradient of f (the subtracted integrand has a finite, direction-
dependent limit at x = t; dropping the cell outright costs an O(h)
term with a computable coefficient).  On 3-surfaces, such as the
3-sphere grid whose cells are thin near its poles, the correction instead
integrates the linear part of f - f(t) exactly (_grid_cell_coefficients)
from coordinate sums that ride in the densities' kernel pass (_pv_core).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _accel
from .clifford_core import (
    Multivector,
    Paravector,
    SingularInputError,
    _check_side,
    _integer,
    _is_real,
    _product_into,
    as_coeffs,
    batch_product,
)
from .surface import (FIBONACCI_NEIGHBOURS, SurfaceMesh, _check_mesh,
                      _first_nonfinite_row, _node_indices, _point,
                      _points, neighbour_lists)

RICHARDSON_RATIO = 2.0   # step shrinks by 1/2 per term
RICHARDSON_TERMS = 4
NEAR_BAND_FACTOR = 3.0   # dist < 3h => unreliable direct quadrature
# |R_jj| / |R_00| of a stencil fit's QR below this is a rank-deficient fit
STENCIL_RANK_TOL = 1e-10
# nodes per batched stencil fit, which bounds the fit's temporaries
STENCIL_FIT_ROWS = 256


class InconclusiveSpanError(ValueError):
    """Raw span value too far from every admissible value {0, 1/2, 1}."""


class DegenerateStencilError(ValueError):
    """A node's neighbours do not determine its quadratic gradient fit."""


def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere S^n in R^{n+1}: 2 pi^{(n+1)/2} / Gamma((n+1)/2);
    n must be an integer >= 1 (_integer), else ValueError."""
    n = _integer(n, "n", 1)
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def kernel_E(x, w) -> Paravector:
    """Cauchy kernel E(x - w) = bar(X - W) / |x - w|^{n+1}."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    d = x - w
    r2 = float(d @ d)
    if r2 == 0.0:
        raise SingularInputError("Cauchy kernel evaluated at coincident points")
    n = d.shape[0] - 1
    scale = r2 ** (-0.5 * (n + 1))
    return Paravector(d[0] * scale, -d[1:] * scale)


def kernel_E_rows(points, w):
    """E(x_j - w) paravector component rows for an (N, n+1) point array."""
    points_T = np.asarray(points, dtype=np.float64).T
    n = points_T.shape[0] - 1
    return _accel._kernel_E_block(np.atleast_2d(w), points_T, n)[:, 0, :].T


# -- densities and tagged points ------------------------------------------------


def _as_coeff_rows(ctx, values, count):
    """Normalize evaluator output to an (N, 2^n) coefficient array."""
    if np.ndim(values) == 2:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape == (count, ctx.dim):
            return arr
    return np.tile(as_coeffs(ctx, values), (count, 1))


def _regularity_ok(reg):
    """Whether reg is exactly ("holder", mu, M) or ("continuous",)."""
    if not isinstance(reg, tuple):
        return False
    if reg == ("continuous",):
        return True
    if len(reg) != 3 or reg[0] != "holder":
        return False
    mu, M = reg[1:]
    return (_is_real(mu) and 0.0 < mu <= 1.0
            and (M is None or _is_real(M) and 0.0 <= M < math.inf))


@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """Node-aligned boundary density with an optional exact evaluator;
    densities compare and hash by identity.

    Attributes
    ----------
    mesh : SurfaceMesh
        The mesh whose nodes the samples align with.
    samples : (N, 2^n) float array
        Multivector coefficients at each node.
    evaluator : callable or None
        Exact map point -> Multivector/coefficients, when known.
    regularity : tuple
        ("holder", mu, M) with 0 < mu <= 1 (M may be None when unknown),
        or ("continuous",).
    """

    mesh: SurfaceMesh
    samples: np.ndarray
    evaluator: object = None
    regularity: tuple = ("holder", 1.0, None)

    def __post_init__(self):
        _check_mesh(self.mesh)
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        ctx = self.mesh.context
        if samples.shape != (self.mesh.node_count, ctx.dim):
            raise ValueError("samples must have shape (N, 2^n) = %s"
                             % ((self.mesh.node_count, ctx.dim),))
        bad = _first_nonfinite_row(samples)
        if bad is not None:
            raise ValueError("samples row %d is not finite" % bad)
        if not _regularity_ok(self.regularity):
            raise ValueError("regularity must be ('holder', mu, M) with "
                             "0 < mu <= 1 and M None or finite >= 0, or "
                             "('continuous',); got %r" % (self.regularity,))
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, mesh, fn, regularity=("holder", 1.0, None)):
        """Sample fn at the nodes: once on the (N, n+1) node array, whose
        result gives the rows, (N, 2^n), or the scalar parts, a real (N,)
        array; per node when that call raises TypeError or ValueError or
        returns any other result of at most one dimension, and when
        N = 2^n, where an (N,) result could be one coefficient row."""
        ctx = mesh.context
        N = mesh.node_count
        try:
            vals = fn(mesh.nodes)
        except (TypeError, ValueError):
            vals = None
        if (np.shape(vals) == (N,) and N != ctx.dim
                and np.asarray(vals).dtype.kind in "biuf"):
            samples = np.zeros((N, ctx.dim))
            samples[:, 0] = vals
        elif np.ndim(vals) <= 1:
            # not vectorized over nodes; evaluate per node
            samples = np.array([as_coeffs(ctx, fn(x)) for x in mesh.nodes])
        else:
            samples = _as_coeff_rows(ctx, vals, N)
        return cls(mesh, samples, evaluator=fn, regularity=regularity)

    @classmethod
    def constant(cls, mesh, value=1.0):
        """The constant density; its evaluator gives one (2^n,) row for
        one point and M rows for an (M, n+1) point array (surface._points)."""
        ctx = mesh.context
        samples = _as_coeff_rows(ctx, value, mesh.node_count)
        ev = samples[0].copy()

        def evaluator(x):
            rows, single = _points(x, mesh.n)
            return ev if single else np.tile(ev, (len(rows), 1))

        return cls(mesh, samples, evaluator=evaluator,
                   regularity=("holder", 1.0, 0.0))

    @property
    def is_holder(self):
        return self.regularity[0] == "holder"


def side_of(spec, w):
    """Membership side of point w for a sphere/circle spec; points within
    1e-9 max(1, R) of the sphere of radius R are on the boundary; w takes
    _point's check."""
    w = _point(w, spec.n)
    r = np.linalg.norm(w - spec.center_array)
    if abs(r - spec.radius) <= 1e-9 * max(1.0, spec.radius):
        return "boundary"
    return "interior" if r < spec.radius else "exterior"


@dataclass(frozen=True)
class SideTaggedPoint:
    """Evaluation point with its declared side of Gamma."""

    w: tuple
    side: str

    def __post_init__(self):
        if self.side not in ("interior", "exterior", "boundary"):
            raise ValueError("side must be interior/exterior/boundary")
        object.__setattr__(self, "w", tuple(_point(self.w).tolist()))

    @classmethod
    def tag(cls, spec, w):
        return cls(w, side_of(spec, w))

    @property
    def point(self):
        return np.asarray(self.w, dtype=np.float64)


@dataclass(frozen=True)
class CauchyValue:
    """Cauchy-type integral value with a near-boundary reliability report."""

    value: Multivector
    reliable: bool
    distance: float
    side: str = "unknown"


def _measure_density(mesh, samples, out=None):
    """Rows (nu w f)_j, (K, N, 2^n) for a sequence of K densities' (N, 2^n)
    rows.

    Each density's rows are read in place and their products written
    straight into its row of out, a kernel pass's buffer, onto which they
    are added when it is given; no stack of the densities is formed.
    """
    ctx, measure = mesh.context, mesh.measure_coeffs()
    if out is None:
        out = np.zeros((len(samples), mesh.node_count, ctx.dim))
    for f, rows in zip(samples, out):
        _product_into(ctx, measure, f, rows)
    return out


def _density_samples(mesh, f, side="left", name="f"):
    """The node samples of f, one density or a list or tuple of them, as a
    tuple of (N, 2^n) rows, one per density, read-only: each density's own
    rows, never a stacked copy, or for side 'right' a reversed copy of each.

    The one check of a call's mesh and densities, in this order: mesh
    takes _check_mesh; anything but a BoundaryDensity raises TypeError
    naming the argument, name or name[k]; a density sampled on another
    mesh object with other nodes raises ValueError naming its position in
    the sequence, and an empty sequence ValueError.  Public calls make it
    on entry, before they read the mesh or a density.
    """
    _check_mesh(mesh)
    single = isinstance(f, BoundaryDensity)
    fs = list(f) if isinstance(f, (list, tuple)) else [f]
    if not fs:
        raise ValueError("need at least one density")
    for k, fk in enumerate(fs):
        if not isinstance(fk, BoundaryDensity):
            raise TypeError("%s must be a BoundaryDensity, got %s"
                            % (name if fk is f else "%s[%d]" % (name, k),
                               type(fk).__name__))
        if fk.mesh is not mesh and not np.array_equal(fk.mesh.nodes,
                                                      mesh.nodes):
            where = "density" if single else "densities[%d]" % k
            raise ValueError("%s is sampled on another mesh (%d nodes) than "
                             "the one summed over (%d nodes)"
                             % (where, fk.mesh.node_count, mesh.node_count))
    rows = tuple(fk.samples * mesh.context.reverse_sign if side == "right"
                 else fk.samples.view() for fk in fs)
    for r in rows:
        r.flags.writeable = False
    return rows


def _nearest_node(mesh, point):
    """Index of the mesh node nearest to point, and its distance."""
    dist = np.linalg.norm(mesh.nodes - point[None, :], axis=1)
    i = int(dist.argmin())
    return i, float(dist[i])


def _boundary_distance(mesh, w):
    if mesh.spec is not None:
        return abs(np.linalg.norm(w - mesh.spec.center_array) - mesh.spec.radius)
    return _nearest_node(mesh, w)[1]


def _uniform_circle(mesh):
    """_accel.uniform_circle of a curve's nodes (None on surfaces), tested
    once per mesh and kept in its cache for the stencil and the FFT route."""
    if mesh.n == 1:
        return mesh.kept("uniform_circle",
                         lambda: _accel.uniform_circle(mesh.nodes))


def _accum(mesh, targets, g, excl=None):
    """Kernel sums accum_left over every mesh node at the targets; only
    sums with excl read the circle test."""
    circ = None if excl is None else _uniform_circle(mesh)
    return _accel.accum_left(mesh.context, targets, mesh.nodes, g, excl,
                             circle=circ)


def _shifted_sums(mesh, samples, t=None, points=None):
    """The one home of every subtracted sum: S1 - S2 f(t_m) at M targets.

    S1 = sum_j E(x_j - w_m) nu_j w_j f(x_j) and S2 the same sum of nu w
    alone; samples is a sequence of K densities' rows (_measure_density),
    giving (K, M, 2^n).  Without points the targets are the nodes t, each
    skipping its own node, and t None means every node; with points they
    are those M off-surface points, row m shifted by f at node t[m].  The
    pass's one buffer holds nu w f of each density, written from its own
    rows, and S2 rides as its last row; f(t) is gathered per density too,
    so no copy of the densities is held.  All K take one kernel pass, so
    row k is bitwise that of f[k] alone.  Only the call for every node
    reads and keeps S2 (SurfaceMesh.cache), so S1 and S2 take one route.
    """
    ctx, N = mesh.context, mesh.node_count
    every = t is None and points is None
    S2 = mesh.cache.get("self_sums") if every else None
    K = len(samples)
    # the K rows nu w f and, riding last, nu w itself, written in place
    g = np.zeros((K + (S2 is None), N, ctx.dim))
    _measure_density(mesh, samples, g)
    if S2 is None:
        g[K][:, ctx.paravector_blades] = mesh.measure_coeffs()
    rows = slice(None) if t is None else t
    targets = mesh.nodes[rows] if points is None else points
    excl = np.arange(N)[rows] if points is None else None
    sums = _accum(mesh, targets, g, excl)
    del g
    if S2 is None:
        S2, sums = sums[-1], sums[:-1]
        if every:
            # a copy, so the cache does not hold the whole stack of sums
            S2 = mesh.kept("self_sums", S2.copy)
    # S1 - S2 f_t, updated in place, density by density
    for core, f in zip(sums, samples):
        core -= batch_product(ctx, S2, f[rows])
    return sums


# -- Cauchy-type integral off the surface ---------------------------------------

def _integral_rows(mesh, f, points, side, node=None, interior=None):
    """Rows of C[f] at the (M, n+1) points off Gamma, in one kernel call.

    With node None the raw sums.  Otherwise node is one node index or one
    per row, and row m is C[f - f(t_m)](w_m) + f(t_m) X(w_m) (_shifted_sums),
    X = 1 on the rows flagged in the length-M boolean mask interior, else
    0; a missing or malformed mask raises ValueError before any sum.  f is
    one density, giving (M, 2^n), or a sequence of K, (K, M, 2^n).
    """
    rev = _check_side(side, mesh.context)
    if node is not None:
        interior = np.asarray(interior)
        if interior.dtype != bool or interior.shape != (len(points),):
            raise ValueError("interior must be a length-%d boolean mask "
                             "when node is given; got dtype %s, shape %s"
                             % (len(points), interior.dtype, interior.shape))
    samples = _density_samples(mesh, f, side)
    vol = unit_sphere_area(mesh.n)
    if node is None:
        rows = _accum(mesh, points, _measure_density(mesh, samples)) / vol
    else:
        t = np.broadcast_to(node, (len(points),))
        rows = _shifted_sums(mesh, samples, t, points) / vol
        for r, fk in zip(rows, samples):
            r[interior] += fk[t[interior]]
    rows *= rev
    return rows[0] if isinstance(f, BoundaryDensity) else rows


def cauchy_integral(mesh, f: BoundaryDensity, w, side="left",
                    method="raw") -> CauchyValue:
    """Cauchy-type integral C[f](w) for w off Gamma.

    Parameters
    ----------
    w : point, or SideTaggedPoint
        Evaluation point of n+1 finite coordinates (surface._point).  Plain
        points are tagged automatically when the mesh carries a builder
        spec.
    side : 'left' | 'right'
        Kernel position: E dsigma f (left) or f dsigma E (right).
    method : 'raw' | 'subtract'
        'subtract' evaluates C[f - f(t*)](w) + f(t*) X(w) with t* the
        nearest node and X the exact span (1 interior / 0 exterior),
        which stays accurate close to the surface; it requires a
        non-boundary side tag.

    Returns
    -------
    CauchyValue
        value, reliability flag (distance >= 3h for raw evaluation) and
        the distance to Gamma.
    """
    _density_samples(mesh, f)
    tagged = w if isinstance(w, SideTaggedPoint) else None
    point = _point(w if tagged is None else w.point, mesh.n)
    if tagged is None and mesh.spec is not None:
        tagged = SideTaggedPoint.tag(mesh.spec, point)
    dist = _boundary_distance(mesh, point)
    side_name = tagged.side if tagged is not None else "unknown"
    node = None
    if method == "subtract":
        if side_name not in ("interior", "exterior"):
            raise ValueError("subtract method needs an interior/exterior "
                             "side tag")
        node = _nearest_node(mesh, point)[0]
    elif method != "raw":
        raise ValueError("method must be 'raw' or 'subtract'")
    total = _integral_rows(mesh, f, point[None, :], side, node,
                           [side_name == "interior"])[0]
    reliable = node is not None or dist >= NEAR_BAND_FACTOR * mesh.h
    return CauchyValue(Multivector(mesh.context, total), reliable, dist,
                       side_name)


# -- tangential gradients on the mesh -------------------------------------------

def _tangent_frame(mesh, rows=slice(None)):
    """Orthonormal tangent vectors at the nodes rows (default every node),
    shape (len(rows), d, n+1), d = n."""
    nu = mesh.normals[rows]
    N, p = nu.shape
    A = np.zeros((N, p, p))
    A[:, :, 0] = nu
    A[:, :, 1:] = np.broadcast_to(np.eye(p)[:, : p - 1], (N, p, p - 1))
    Q, _ = np.linalg.qr(A)
    # first column of Q is +-nu; remaining columns span the tangent space
    return np.swapaxes(Q[:, :, 1:], 1, 2)


def _build_gradient_stencil(mesh, idx=None):
    """Derivative stencils (nb, wts, frame) of the nodes idx, or every node.

    nb is (M, k) neighbor indices, wts is (d, M, k) weights such that the
    tangential derivative of samples along frame[r, a, :] at node i = idx[r]
    is sum_m wts[a, r, m] * samples[nb[r, m]].  Each node's fit is its
    own, so the rows of idx are bitwise those of a build for every node.
    The neighbours come from one of three sources:

    - uniform circle grids, found from the nodes (loaded circles too),
      take a periodic 4th-order central-difference stencil at the index
      offsets -2..2 of the sorted grid;
    - built spheres take the builder's lists (surface.neighbour_lists):
      the FIBONACCI_NEIGHBOURS (12) nearest nodes of the Fibonacci lattice,
      searched for the rows of idx alone when no lists are kept, the 3x3x3
      grid block on 3-spheres;
    - every other mesh (loaded, dataclasses.replace) takes the k nearest
      nodes from a k-d tree, k = FIBONACCI_NEIGHBOURS for n = 2, so a
      loaded 2-sphere fits over the lists of its built copy, and 20 for
      n = 3.

    Off the circle grid, each node fits a local quadratic in tangent
    coordinates over its neighbours by least squares: a batched QR of the
    design and a triangular solve.  The lists are read once; the fits then
    run in chunks of STENCIL_FIT_ROWS nodes, each written into the kept
    weights, so the fit's temporaries are bounded whatever the mesh, and
    every node's fit being its own, the weights are bitwise one batch's.
    A design whose R has a diagonal entry below STENCIL_RANK_TOL |R_00|
    raises DegenerateStencilError naming the mesh index of the first such
    node, the chunks running in index order.
    """
    rows = np.arange(mesh.node_count) if idx is None else np.asarray(idx)
    circ = _uniform_circle(mesh)
    if circ is not None:
        order, R, _ = circ
        N = mesh.node_count
        pos = np.empty(N, dtype=np.int64)
        pos[order] = np.arange(N)
        # neighbors at sorted offsets -2,-1,+1,+2; d/ds = (1/R) d/dtheta
        offs = np.array([-2, -1, 1, 2])
        nb = order[(pos[rows, None] + offs[None, :]) % N]
        hstep = (2.0 * np.pi / N) * R
        wts = np.tile(np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * hstep),
                      (1, len(rows), 1))
        # the unit tangents T = (-nu_1, nu_0)
        nu = mesh.normals[rows]
        return nb, wts, np.stack([-nu[:, 1], nu[:, 0]], axis=1)[:, None, :]

    frame = _tangent_frame(mesh, rows)
    d = mesh.n
    nterms = 1 + d + d * (d + 1) // 2
    k = max(nterms + 4, {2: FIBONACCI_NEIGHBOURS, 3: 20}.get(d, 4 * nterms))
    nb = neighbour_lists(mesh, min(k, mesh.node_count), idx)
    wts = np.empty((d,) + nb.shape)
    for s in range(0, len(nb), STENCIL_FIT_ROWS):
        c = slice(s, s + STENCIL_FIT_ROWS)
        _fit_stencil_rows(mesh, rows[c], nb[c], frame[c], nterms, wts[:, c])
    return nb, wts, frame


def _fit_stencil_rows(mesh, rows, nb, frame, nterms, out):
    """First-derivative weights (d, len(rows), k) of the quadratic fits at
    the node index array rows, over their lists nb and tangent frame,
    written into out; raises DegenerateStencilError naming the first
    rank-deficient node of rows."""
    d = mesh.n
    rel = mesh.nodes[nb] - mesh.nodes[rows, None, :]       # (M, k, p)
    u = 0.0                                                 # tangent coords
    for c in range(d + 1):
        u = u + rel[:, :, None, c] * frame[:, None, :, c]   # (M, k, d)
    # in units of a power of two near each stencil's reach: the fit rounds
    # as it would unscaled, and the rank test below is scale-free
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.exp2(np.ceil(np.log2(np.abs(u).max(axis=(1, 2)))))
        u = u / unit[:, None, None]
    cols = [np.ones(u.shape[:2])]
    cols += [u[:, :, a] for a in range(d)]
    for a in range(d):
        for b in range(a, d):
            cols.append(u[:, :, a] * u[:, :, b])
    design = np.stack(cols, axis=2)                         # (M, k, nterms)
    Q, R = np.linalg.qr(design)                             # R (M, t, nterms)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    ratio = np.zeros((len(nb), nterms))
    ratio[:, : diag.shape[1]] = diag / diag[:, :1]
    bad = np.flatnonzero(~(ratio >= STENCIL_RANK_TOL).all(axis=1))
    if bad.size:
        r = int(bad[0])
        j = int(np.argmin(np.nan_to_num(ratio[r])))
        raise DegenerateStencilError(
            "gradient stencil of node %d is rank-deficient: its %d "
            "neighbours leave term %d of the %d-term quadratic fit "
            "undetermined (|R_jj| / |R_00| = %.3g)"
            % (rows[r], nb.shape[1], j, nterms, ratio[r, j]))
    # rows 1..d of R^-1 Q^T, the first derivatives, by back substitution
    X = np.swapaxes(Q, 1, 2).copy()                         # (M, nterms, k)
    for j in range(nterms - 1, 0, -1):
        X[:, j] -= np.matmul(R[:, j, None, j + 1 :], X[:, j + 1 :])[:, 0]
        X[:, j] /= R[:, j, j, None]
    np.divide(np.swapaxes(X[:, 1 : 1 + d], 0, 1), unit[:, None], out=out)


def gradient_stencil(mesh, idx=None):
    """Tangential-derivative stencil (nb, wts, frame) at the node index
    array idx, or at every node (None).

    The stencil of every node is an operator the mesh keeps
    (SurfaceMesh.cache), read-only, so no caller's edit reaches a later
    principal value; a call for some nodes fits those nodes afresh and
    reads none of it, even if idx lists every node.
    """
    if idx is None:
        return mesh.kept("gradient_stencil",
                         lambda: _build_gradient_stencil(mesh))
    return _build_gradient_stencil(mesh, idx)


def tangential_gradient(mesh, samples, idx=None):
    """Tangential derivatives of node samples along the stencil's frame.

    samples is a sequence of K (N, m) arrays (a tuple, a list or a
    (K, N, m) array).  Returns (derivs, frame) at the node index array idx
    (default every node): derivs[k, a] is the (len(idx), m) array of
    directional derivatives of samples[k] along frame[:, a, :].  Only the
    stencil rows of idx are read (gradient_stencil) and applied one
    neighbour column at a time, so no (len(idx), k, m) gather is held.
    The K arrays are laid side by side as one transient (N, K m) array, so
    each column takes one gather for all K; _pv_core builds it after its
    kernel pass has freed its buffers.
    """
    nb, wts, frame = gradient_stencil(mesh, idx)
    K, m = len(samples), np.shape(samples[0])[-1]
    flat = np.concatenate(samples, axis=1)
    derivs = np.zeros((len(wts), len(nb), K * m))
    for j in range(nb.shape[1]):
        derivs += wts[..., j, None] * flat[nb[:, j]]
    return derivs.reshape(len(wts), len(nb), K, m).transpose(2, 0, 1, 3), frame


# -- principal values ------------------------------------------------------------

def _pv_core(mesh, samples, idx=None):
    """(S1 - S2 f_t, c_t) of principal_value_nodes at the nodes idx (every
    node for None), each (K, len(idx), dim), from one kernel pass: on
    3-surfaces the coordinate rows x_c ride last in it, and their sums give
    the cell coefficients.  A full call fits (and keeps) the stencil first,
    so the fit's temporaries and the pass's never coexist."""
    if idx is None:
        gradient_stencil(mesh)
    K, rows = len(samples), tuple(samples)
    if mesh.n == 3:
        coords = np.zeros((mesh.n + 1, mesh.node_count, mesh.context.dim))
        coords[:, :, 0] = mesh.nodes.T
        rows += tuple(coords)
    sums = _shifted_sums(mesh, rows, idx)
    return sums[:K], _singular_cell_corrections(mesh, samples, sums[K:], idx)


def _singular_cell_corrections(mesh, samples, sums, idx=None):
    """Corrections for the dropped singular cell, (K, len(idx), dim), of K
    densities' node samples at the nodes idx (default every node), from
    their tangential_gradient and the coordinate sums of _pv_core."""
    derivs, frame = tangential_gradient(mesh, samples, idx)
    return _cell_corrections(mesh, derivs, frame, sums, idx)


def _cell_corrections(mesh, derivs, frame, sums, idx=None):
    """Singular-cell corrections from tangential derivatives at the nodes idx.

    derivs[..., a, :, :] holds the (len(idx), dim) derivatives along
    frame[:, a, :] of a density, or of each of a stack of them (leading
    axes), both taken at the nodes idx (default every node).  The
    subtracted integrand E(x-t) nu [f(x)-f(t)] tends to
    sum_k bar(T_k) nu(t) d_k f(t) as x -> t along tangent direction T_k;
    integrating it over a flat d-ball cell of the node's weight gives
    (d w / sigma_d)^{1/d} (sigma_d / d) sum_k bar(T_k) nu(t) d_k f(t),
    where d = n and sigma_d = area(S^{d-1}).  The 3-sphere grid's cells
    are far from round near its poles, so 3-surfaces take
    _grid_cell_coefficients' G_k (of sums) instead, in one sum_k G_k d_k f(t)
    with the flat ball's G_k = bar(T_k) nu(t), times a per-node scale: the
    prefactor above on the ball, 1 for n = 3.
    """
    ctx = mesh.context
    d = mesh.n
    if d == 3:
        G = _grid_cell_coefficients(mesh, frame, sums, idx)
        scale = 1.0
    else:
        rows = slice(None) if idx is None else idx
        sigma_d = 2.0 if d == 1 else unit_sphere_area(d - 1)
        scale = ((d * mesh.weights[rows] / sigma_d) ** (1.0 / d)
                 * (sigma_d / d))[:, None]
        Tbar = np.swapaxes(frame, 0, 1).copy()
        Tbar[..., 1:] *= -1.0
        G = [batch_product(ctx, Tbar[a], mesh.normals[rows])
             for a in range(d)]
    out = np.zeros(derivs[..., 0, :, :].shape)
    for a in range(d):
        out += batch_product(ctx, G[a], derivs[..., a, :, :])
    return out * scale


def _grid_cell_coefficients(mesh, frame, sums, idx=None):
    """Coefficients G_k of a 3-surface's correction sum_k G_k d_k f(t)
    at the node index array idx, or every node (None), (d, len(idx), dim),
    from the caller's stencil frame and coordinate sums s_c at those nodes:
    no stencil is fitted and no sum is taken here.

    Near the poles of the chi/th/ph grid its cells are thin needles, and
    nodes lie much closer than h, so the flat-ball cell model does not
    converge there.  Instead the linear part sum_k T_k.(x - t) d_k f(t) of
    f(x) - f(t) is integrated exactly and its node sum taken out:
    G_k = V_n PV C[T_k.(x - t)](t) - sum_c T_k^c s_c, s_c = sum_(j != i)
    E(x_j - t) nu_j w_j (x_j - t)_c, the _shifted_sums of the coordinates.
    Adding nu.(x - t) b, b = -bar(nu) sum_k T_k d_k, makes the linear part
    monogenic, so its subtracted principal value is zero on every closed
    surface: V_n PV C[T_k.(x - t)](t) = A bar(nu) T_k, A = V_n PV
    C[nu.(x - t)](t) (-V_n R / (n+1) on a sphere of radius R).  nu.(x - t)
    vanishes to second order at t, so A is taken as the node sum
    sum_c nu^c s_c."""
    nu = mesh.normals[slice(None) if idx is None else idx]
    nubar = nu.copy()
    nubar[:, 1:] *= -1.0
    A_nubar = batch_product(mesh.context, np.einsum("nc,cnD->nD", nu, sums),
                            nubar)
    return np.stack([batch_product(mesh.context, A_nubar, frame[:, k])
                     - np.einsum("nc,cnD->nD", frame[:, k], sums)
                     for k in range(mesh.n)])


def principal_value_nodes(mesh, f, side="left", indices=None):
    """Regularized principal values at mesh nodes, shape (len(indices), dim).

    Computes (S1 - S2 f_t + c_t)/V_n + f_t/2, S1 - S2 f_t the sums of
    _shifted_sums at the nodes, each skipping its own, and c_t the
    singular-cell correction, in one pass (_pv_core).  f is one
    BoundaryDensity, or a sequence of K, giving (K, len(indices), dim),
    row k bitwise that of f[k] alone.  A density sampled on a mesh with
    other nodes, or a side other than 'left' or 'right', raises
    ValueError before any sum is taken, and indices that are not node
    indices raise NodeIndexError.
    """
    samples = _density_samples(mesh, f, side)
    rev = _check_side(side, mesh.context)
    idx = (None if indices is None
           else _node_indices(mesh, indices, "indices"))
    core, corrections = _pv_core(mesh, samples, idx)
    core += corrections
    core /= unit_sphere_area(mesh.n)
    for c, fk in zip(core, samples):
        c += 0.5 * (fk if idx is None else fk[idx])
    core *= rev
    return core[0] if isinstance(f, BoundaryDensity) else core


def _snap_node(mesh, t):
    """Node index of t: a scalar is a node index (_node_indices), anything
    else a point (_point), which snaps to its nearest node within h/2."""
    if np.ndim(t) == 0:
        return int(_node_indices(mesh, t)[0])
    i, dist = _nearest_node(mesh, _point(t, mesh.n, "t"))
    if dist > 0.5 * mesh.h + 1e-12:
        raise ValueError("point is not a mesh node (nearest is %.3g away, "
                         "snap tolerance h/2 = %.3g)" % (dist, 0.5 * mesh.h))
    return i


def _warn_if_continuous(f):
    if not f.is_holder:
        warnings.warn("principal value of a continuous-only density: "
                      "convergence is not guaranteed", stacklevel=3)


def principal_value(mesh, f: BoundaryDensity, t, side="left") -> Multivector:
    """Cauchy principal value PV C[f](t) at a boundary node, in the
    regularized form of principal_value_nodes.

    Parameters
    ----------
    t : node index or point
        Boundary point; plain points snap to the nearest node within h/2.
    """
    _density_samples(mesh, f)
    _warn_if_continuous(f)
    i = _snap_node(mesh, t)
    row = principal_value_nodes(mesh, f, side=side, indices=[i])[0]
    return Multivector(mesh.context, row)


def plemelj_values(mesh, f: BoundaryDensity, t, side="left"):
    """Plemelj boundary values (plus, minus) at node t.

    plus = f(t)/2 + PV C[f](t), minus = -f(t)/2 + PV C[f](t); their
    difference is f(t) up to the rounding of the two sums.
    """
    pv = principal_value(mesh, f, t, side=side)
    half = Multivector(mesh.context, 0.5 * f.samples[_snap_node(mesh, t)])
    return half + pv, (-half) + pv


def richardson_limit(step_ratio, values):
    """Limit of a sequence computed at steps shrinking by step_ratio.

    values[i] corresponds to step h0 / step_ratio^i; standard Richardson
    table assuming an error expansion in integer powers of the step.
    """
    last = [np.asarray(v, dtype=np.float64) for v in values]
    for order in range(1, len(last)):
        fact = step_ratio**order
        last = [(fact * b - a) / (fact - 1.0) for a, b in zip(last, last[1:])]
    return last[0]


def _ladder_rows(mesh, f, t, lams, side):
    """C[f] at x_t - s lam nu(t), s = 1 inside and -1 outside, both in one
    _integral_rows call: every rung is C[f - f(t)] + f(t) X, X = 1 inside
    and 0 outside, on every mesh.  t is a node index or a 1-d array of
    them.  Returns the inside and the outside rows, each (len(t),
    len(lams), dim) after a leading K for a sequence of K densities."""
    idx = _node_indices(mesh, t)
    s = np.array([1.0, -1.0])[:, None, None, None]
    points = (mesh.nodes[idx][None, :, None]
              - s * lams[:, None] * mesh.normals[idx][None, :, None])
    shape = points.shape[:-1]
    rows = _integral_rows(mesh, f, points.reshape(-1, mesh.n + 1), side,
                          np.broadcast_to(idx[:, None], shape).ravel(),
                          np.broadcast_to(s[..., 0] > 0, shape).ravel())
    rows = rows.reshape(rows.shape[:-2] + shape + rows.shape[-1:])
    return np.moveaxis(rows, -4, 0)


def _ladder_limit(mesh, t, ratio, rows):
    """richardson_limit over the rungs of (..., len(t), rungs, dim) rows: a
    Multivector for one node index t and one density, else the rows."""
    out = richardson_limit(ratio, np.moveaxis(rows, -2, 0))
    out = out if np.ndim(t) else out[..., 0, :]
    return Multivector(mesh.context, out) if out.ndim == 1 else out


def boundary_limit(mesh, f: BoundaryDensity, t, side="left"):
    """Richardson limits (plus, minus) of C[f] along the normal through t.

    The Plemelj pair, the independent oracle for the Plemelj formulas:
    plus approaches from the interior (against the outward normal), minus
    from the exterior, both in one kernel call.  The ladder's steps halve
    from 0.25 R over 5 rungs on circles and from 0.35 R over
    RICHARDSON_TERMS rungs on other meshes, R half the nodes' widest
    coordinate extent.  Each limit is a Multivector for a node index t,
    (len(t), dim) rows for an index array and (K, len(t), dim) for K
    densities.  Every rung sums f - f(t) and adds f(t) back inside
    (_ladder_rows), on loaded and hand-made meshes as on built ones.
    """
    _density_samples(mesh, f)
    # the circle mesh is fine enough for a deeper extrapolation ladder
    frac, terms = (0.25, 5) if mesh.n == 1 else (0.35, RICHARDSON_TERMS)
    lams = _halving_steps(mesh, frac, terms)
    return tuple(_ladder_limit(mesh, t, RICHARDSON_RATIO, rows)
                 for rows in _ladder_rows(mesh, f, t, lams, side))


def _scale(mesh):
    """Half the nodes' widest coordinate extent, R of every ladder."""
    return 0.5 * float(max(x.max() - x.min() for x in mesh.nodes.T))


def _halving_steps(mesh, frac, terms):
    """Steps frac R / RICHARDSON_RATIO^k, k < terms, with R = _scale(mesh)."""
    return frac * _scale(mesh) / RICHARDSON_RATIO ** np.arange(terms)


def symmetric_difference_steps(mesh):
    """The lambdas of the symmetric-difference ladder on mesh: 0.35 R
    halving over RICHARDSON_TERMS rungs, as boundary_limit's off circles."""
    return _halving_steps(mesh, 0.35, RICHARDSON_TERMS)


def symmetric_difference_limit(mesh, f: BoundaryDensity, p, lambdas,
                               side="left"):
    """Limit of S[f](p + lam M) - S[f](p - lam M) over decreasing lam.

    M is the inner normal field (quasi-normal with c = 1 on spheres:
    M = -nu).  Converges to f(p) for merely continuous densities; the
    lambda sequence must be positive and shrink by one ratio.  p, f and
    the result take boundary_limit's forms, and both ladders subtract f
    at the node as boundary_limit's does.
    """
    _density_samples(mesh, f)
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.ndim != 1 or lams.size < 2:
        raise ValueError("need at least two lambda values")
    if np.any(lams <= 0) or np.any(np.diff(lams) >= 0):
        raise ValueError("lambda sequence must be positive and strictly "
                         "decreasing")
    ratios = lams[:-1] / lams[1:]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("lambda sequence must shrink by one ratio")
    plus, minus = _ladder_rows(mesh, f, p, lams, side)
    return _ladder_limit(mesh, p, float(ratios[0]), plus - minus)


@dataclass(frozen=True)
class SpanResult:
    value: float          # one of 0, 1/2, 1
    raw: Multivector


def span_indicator(mesh, w) -> SpanResult:
    """Span of the surface at w: C[1](w) rounded to {0, 1/2, 1}.

    Points within 1e-9 max(R, 1) of a node (R the mesh scale) take the
    principal value there; all others, even near the surface, take the raw
    Cauchy integral of the constant density.  A raw value farther than
    0.25 from every admissible value raises InconclusiveSpanError.
    """
    _check_mesh(mesh)
    ctx = mesh.context
    point = _point(w, mesh.n)
    ones = BoundaryDensity.constant(mesh, 1.0)
    if _nearest_node(mesh, point)[1] <= 1e-9 * max(_scale(mesh), 1.0):
        raw = principal_value(mesh, ones, point)
    else:
        raw = cauchy_integral(mesh, ones, point, method="raw").value
    coeffs = raw.coeffs
    best, best_dist = None, np.inf
    for cand in (0.0, 0.5, 1.0):
        ref = np.zeros(ctx.dim)
        ref[0] = cand
        dist = float(np.linalg.norm(coeffs - ref))
        if dist < best_dist:
            best, best_dist = cand, dist
    if best_dist > 0.25:
        raise InconclusiveSpanError(
            "raw span value %r is %.3g away from the nearest admissible "
            "value %g" % (raw, best_dist, best))
    return SpanResult(best, raw)
