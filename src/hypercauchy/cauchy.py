"""Cauchy-type integrals, principal values and Plemelj boundary operators.

Conventions.  The kernel is E(y) = bar(Y)/|y|^{n+1} for y in R^{n+1}
identified with the paravector Y, and integrals carry the normalization
1/V_n with V_n = unit_sphere_area(n) the area of S^n.  Left integrals
are (1/V_n) int E(x-w) dsigma f(x); right integrals put the density on
the left of the measure.  dsigma at a node is nu_i w_i.

Principal values default to the regularized form: the desingularized
sum over x != t of E(x-t) nu w [f(x) - f(t)] plus f(t)/2, plus a local
correction for the singular node's cell computed from the tangential
gradient of f (the subtracted integrand has a finite, direction-
dependent limit at x = t; dropping the cell outright costs an O(h)
term with a computable coefficient).  On spec-built 3-spheres, whose
grid cells are thin near its poles, the correction instead integrates
the linear part of f - f(t) exactly (_grid_cell_coefficients).
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
    as_coeffs,
    paravectors_as_coeffs,
    sided_product,
)
from .surface import (DegenerateExclusionError, SurfaceMesh,
                      _first_nonfinite_row, _node_indices, neighbour_lists)

RICHARDSON_RATIO = 2.0   # step shrinks by 1/2 per term
RICHARDSON_TERMS = 4
NEAR_BAND_FACTOR = 3.0   # dist < 3h => unreliable direct quadrature
# |R_jj| / |R_00| of a stencil fit's QR below this is a rank-deficient fit
STENCIL_RANK_TOL = 1e-10


class InconclusiveSpanError(ValueError):
    """Raw span value too far from every admissible value {0, 1/2, 1}."""


class DegenerateStencilError(ValueError):
    """A node's neighbours do not determine its quadratic gradient fit."""


def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere S^n in R^{n+1}: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
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

    def real(v):  # a bool is refused, though isinstance(True, int) holds
        return (isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool))

    return (real(mu) and 0.0 < mu <= 1.0
            and (M is None or real(M) and 0.0 <= M < math.inf))


@dataclass(frozen=True)
class BoundaryDensity:
    """Node-aligned boundary density with an optional exact evaluator.

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
        """Sample fn at the nodes: once on the (N, n+1) node array, or per
        node when that call raises TypeError or ValueError or returns at
        most one dimension."""
        ctx = mesh.context
        try:
            vals = fn(mesh.nodes)
        except (TypeError, ValueError):
            vals = None
        if np.ndim(vals) <= 1:
            # not vectorized over nodes; evaluate per node
            samples = np.array([as_coeffs(ctx, fn(x)) for x in mesh.nodes])
        else:
            samples = _as_coeff_rows(ctx, vals, mesh.node_count)
        return cls(mesh, samples, evaluator=fn, regularity=regularity)

    @classmethod
    def constant(cls, mesh, value=1.0):
        """The constant density; its evaluator gives one (2^n,) row for
        one point and M rows for an (M, n+1) point array."""
        ctx = mesh.context
        samples = _as_coeff_rows(ctx, value, mesh.node_count)
        ev = samples[0].copy()

        def evaluator(x):
            x = np.asarray(x)
            return ev if x.ndim <= 1 else np.tile(ev, (len(x), 1))

        return cls(mesh, samples, evaluator=evaluator,
                   regularity=("holder", 1.0, 0.0))

    @property
    def is_holder(self):
        return self.regularity[0] == "holder"

    def spot_check(self, rng=None):
        """Spot-check the declared regularity on 64 random node pairs.

        For a ("holder", mu, M) tag with M given, verifies
        |f(x) - f(y)| <= 1.05 M |x - y|^mu; returns the max quotient
        |f(x)-f(y)| / |x-y|^mu seen.  Raises on violation; also verifies
        samples match the evaluator on a few nodes when one is present.
        """
        rng = np.random.default_rng(0) if rng is None else rng
        N = self.mesh.node_count
        ii = rng.integers(0, N, size=64)
        jj = rng.integers(0, N, size=64)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        dx = np.linalg.norm(self.mesh.nodes[ii] - self.mesh.nodes[jj], axis=1)
        df = np.linalg.norm(self.samples[ii] - self.samples[jj], axis=1)
        if self.is_holder:
            mu, M = self.regularity[1], self.regularity[2]
            quot = df / dx**mu
            top = float(quot.max()) if quot.size else 0.0
            if M is not None and top > 1.05 * M:
                raise ValueError("Holder spot check failed: quotient %.3g > "
                                 "M = %.3g" % (top, M))
        else:
            top = float((df / dx**0.5).max()) if dx.size else 0.0
        if self.evaluator is not None:
            ctx = self.mesh.context
            for i in ii[:4]:
                want = as_coeffs(ctx, self.evaluator(self.mesh.nodes[i]))
                if not np.allclose(want, self.samples[i], atol=1e-10):
                    raise ValueError("samples disagree with evaluator at node %d"
                                     % i)
        return top


def side_of(spec, w):
    """Membership side of point w for a sphere/circle spec; points within
    1e-9 max(1, R) of the sphere of radius R are on the boundary."""
    w = np.asarray(w, dtype=np.float64)
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
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))

    @classmethod
    def tag(cls, spec, w):
        return cls(tuple(np.asarray(w, float)), side_of(spec, w))

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


def _measure_density(mesh, samples, side):
    """Rows (nu w f)_j for left integrals, (f nu w)_j for right ones.

    samples is one (N, 2^n) density or a (K, N, 2^n) stack.
    """
    return sided_product(mesh.context, side, mesh.measure_coeffs(), samples)


def _density_samples(mesh, f):
    """Node samples of one density, (N, 2^n), or of a sequence, (K, N, 2^n).

    Every density must be sampled on mesh: one from another mesh object
    with other nodes is rejected, naming its position in the sequence.
    """
    single = isinstance(f, BoundaryDensity)
    fs = [f] if single else list(f)
    if not fs:
        raise ValueError("need at least one density")
    for k, fk in enumerate(fs):
        if fk.mesh is not mesh and not np.array_equal(fk.mesh.nodes,
                                                      mesh.nodes):
            where = "density" if single else "densities[%d]" % k
            raise ValueError("%s is sampled on another mesh (%d nodes) than "
                             "the one summed over (%d nodes)"
                             % (where, fk.mesh.node_count, mesh.node_count))
    return f.samples if single else np.stack([fk.samples for fk in fs])


def _nearest_node(mesh, point):
    """Index of the mesh node nearest to point, and its distance."""
    dist = np.linalg.norm(mesh.nodes - point[None, :], axis=1)
    i = int(dist.argmin())
    return i, float(dist[i])


def _boundary_distance(mesh, w):
    if mesh.spec is not None:
        return abs(np.linalg.norm(w - mesh.spec.center_array) - mesh.spec.radius)
    return _nearest_node(mesh, w)[1]


def _accum(mesh, targets, g, side, excl=None, keep=slice(None)):
    """Kernel sums over the mesh nodes keep (default all) at the targets.

    side picks accum_left or accum_right; any other side raises before
    any work is done.
    """
    _check_side(side)
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    return accum(mesh.context, targets, mesh.nodes[keep], g[..., keep, :],
                 excl)


def _shifted_sums(mesh, samples, side, targets, t, excl=None):
    """The one home of every subtracted sum: S1 - S2 f(t_m) at the M targets.

    S1 = sum_j E(x_j - w_m) nu_j w_j f(x_j) and S2 the same sum of nu w
    alone (mirrored on the right); samples is one density (N, 2^n) or a
    (K, N, 2^n) stack, giving (M, 2^n) or (K, M, 2^n), t one node index per
    target and excl as in _accum.  All K take one kernel pass, so row k is
    bitwise that of f[k] alone; S2 rides as its last density unless the
    mesh's cache holds it.  Full-mesh node targets (excl = arange(N)) keep
    S2 there, read-only, per side, so S1 and S2 take one route.
    """
    N, dim = mesh.node_count, mesh.context.dim
    key = ("self_sums", side)
    full = excl is not None and np.array_equal(excl, np.arange(N))
    S2 = mesh.cache.get(key) if full else None
    g = _measure_density(mesh, samples, side).reshape(-1, N, dim)
    if S2 is None:
        measure = paravectors_as_coeffs(mesh.context, mesh.measure_coeffs())
        g = np.concatenate([g, measure[None]])
    sums = _accum(mesh, targets, g, side, excl)
    del g
    if S2 is None:
        S2, sums = sums[-1], sums[:-1]
        if full:
            # a copy, so the cache does not hold the whole stack of sums
            S2 = S2.copy()
            S2.flags.writeable = False
            mesh.cache[key] = S2
    # S1 - S2 f_t, updated in place: a stack holds K rows each
    core = sums.reshape(samples.shape[:-2] + (len(targets), dim))
    core -= sided_product(mesh.context, side, S2, samples[..., t, :])
    return core


def _self_sums(mesh, side):
    """The full-mesh S2 of _shifted_sums, cached; a cold cache takes one
    pass of nu w alone."""
    N = mesh.node_count
    if ("self_sums", side) not in mesh.cache:
        _shifted_sums(mesh, np.zeros((0, N, mesh.context.dim)), side,
                      mesh.nodes, np.arange(N), np.arange(N))
    return mesh.cache[("self_sums", side)]


# -- Cauchy-type integral off the surface ---------------------------------------

def _integral_rows(mesh, f, points, side, node=None, interior=None):
    """Rows of C[f] at the (M, n+1) points off Gamma, in one kernel call.

    With node None the raw sums.  Otherwise node is one node index or one
    per row, and row m is C[f - f(t_m)](w_m) + f(t_m) X(w_m) (_shifted_sums),
    X = 1 on the rows flagged in the length-M boolean mask interior, else
    0.  f is one density, giving (M, 2^n), or a sequence of K, (K, M, 2^n).
    """
    samples = _density_samples(mesh, f)
    vol = unit_sphere_area(mesh.n)
    if node is None:
        return _accum(mesh, points, _measure_density(mesh, samples, side),
                      side) / vol
    t = np.broadcast_to(node, (len(points),))
    rows = _shifted_sums(mesh, samples, side, points, t) / vol
    rows[..., interior, :] += samples[..., t[interior], :]
    return rows


def cauchy_integral(mesh, f: BoundaryDensity, w, side="left",
                    method="raw") -> CauchyValue:
    """Cauchy-type integral C[f](w) for w off Gamma.

    Parameters
    ----------
    w : point, or SideTaggedPoint
        Evaluation point.  Plain points are tagged automatically when the
        mesh carries a builder spec.
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
    ctx = mesh.context
    if isinstance(w, SideTaggedPoint):
        tagged = w
        point = w.point
    else:
        point = np.asarray(w, dtype=np.float64)
        tagged = (SideTaggedPoint.tag(mesh.spec, point)
                  if mesh.spec is not None else None)
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
    return CauchyValue(Multivector(ctx, total), reliable, dist, side_name)


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
    """Derivative stencils (nb, wts, frame) of the nodes idx (default every
    node; always every node on a uniform circle grid).

    nb is (M, k) neighbor indices, wts is (d, M, k) weights such that the
    tangential derivative of samples along frame[r, a, :] at node i = idx[r]
    is sum_m wts[a, r, m] * samples[nb[r, m]].  Each node's fit is its
    own, so the rows of idx are bitwise those of a build for every node.
    The neighbours come from one of three sources:

    - uniform circle grids, found from the nodes (loaded circles too),
      take a periodic 4th-order central-difference stencil at the index
      offsets -2..2 of the sorted grid;
    - built spheres take the builder's lists (surface.neighbour_lists):
      the 12 nearest nodes of the Fibonacci lattice, the 3x3x3 grid block
      on 3-spheres;
    - every other mesh (loaded, dataclasses.replace) takes the k nearest
      nodes from a k-d tree, k = 12 for n = 2 and 20 for n = 3.

    Off the circle grid, each node fits a local quadratic in tangent
    coordinates over its neighbours by least squares: a batched QR of the
    design and a triangular solve.  A design whose R has a diagonal entry
    below STENCIL_RANK_TOL |R_00| raises DegenerateStencilError naming the
    mesh index of the first such node.
    """
    circ = _accel.uniform_circle(mesh.nodes)
    if circ is not None:
        order, R, center = circ
        if mesh.spec is not None:  # the exact centre, not the nodes' mean
            center = mesh.spec.center_array
        N = mesh.node_count
        pos = np.empty(N, dtype=np.int64)
        pos[order] = np.arange(N)
        # neighbors at sorted offsets -2,-1,+1,+2; d/ds = (1/R) d/dtheta
        offs = np.array([-2, -1, 1, 2])
        nb = order[(pos[:, None] + offs[None, :]) % N]
        hstep = (2.0 * np.pi / N) * R
        wts = np.tile(np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * hstep),
                      (1, N, 1))
        return nb, wts, _tangent_frame_circle(mesh, center)

    rows = slice(None) if idx is None else idx
    frame = _tangent_frame(mesh, rows)
    d = mesh.n
    nterms = 1 + d + d * (d + 1) // 2
    k = max(nterms + 4, {2: 12, 3: 20}.get(d, 4 * nterms))
    nb = neighbour_lists(mesh, min(k, mesh.node_count))[rows]
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
            % (r if idx is None else idx[r], nb.shape[1], j, nterms,
               ratio[r, j]))
    # rows 1..d of R^-1 Q^T, the first derivatives, by back substitution
    X = np.swapaxes(Q, 1, 2).copy()                         # (M, nterms, k)
    for j in range(nterms - 1, 0, -1):
        X[:, j] -= np.matmul(R[:, j, None, j + 1 :], X[:, j + 1 :])[:, 0]
        X[:, j] /= R[:, j, j, None]
    wts = np.swapaxes(X[:, 1 : 1 + d] / unit[:, None, None], 0, 1)
    return nb, wts, frame


def _tangent_frame_circle(mesh, center):
    rel = mesh.nodes - center[None, :]
    radii = np.linalg.norm(rel, axis=1)[:, None]
    unit = rel / radii
    tangent = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
    return tangent[:, None, :]


def gradient_stencil(mesh, idx=None):
    """Tangential-derivative stencil (nb, wts, frame) at the node index
    array idx, or at every node (default).

    A stencil built for every node is kept in the mesh's cache, so it lives
    as long as the mesh does; its arrays are read-only, as every cached
    operator is, so no caller's edit reaches a later principal value.  The
    rows of idx come from the cached stencil when the mesh holds one, and
    otherwise from fits of those nodes alone, which are not cached: only a
    stencil built for every node is, as _grid_cell_coefficients keeps its
    coefficients.  A uniform circle grid's closed-form stencil costs
    little, so it is built for every node and cached whatever idx is.
    """
    stencil = mesh.cache.get("gradient_stencil")
    if stencil is None:
        N = mesh.node_count
        if idx is not None and np.array_equal(idx, np.arange(N)):
            idx = None
        if idx is not None and _accel.uniform_circle(mesh.nodes) is None:
            return _build_gradient_stencil(mesh, idx)
        stencil = _build_gradient_stencil(mesh)
        for arr in stencil:
            arr.flags.writeable = False
        mesh.cache["gradient_stencil"] = stencil
    if idx is None:
        return stencil
    nb, wts, frame = stencil
    return nb[idx], wts[:, idx], frame[idx]


def tangential_gradient(mesh, samples, idx=None):
    """Tangential derivatives of node samples along the stencil's frame.

    samples is (N, m) or a stack (..., N, m).  Returns (derivs, frame) at
    the node index array idx (default every node): derivs[a] is the
    (..., len(idx), m) array of directional derivatives along
    frame[:, a, :].  Only the stencil rows of idx are read
    (gradient_stencil) and applied, one neighbour column at a time, so no
    (len(idx), k, m) gather of every stack member is held.
    """
    nb, wts, frame = gradient_stencil(mesh, idx)
    samples = np.asarray(samples, dtype=np.float64)
    lead = samples.shape[:-2]
    # (d, 1, ..., len(idx), k): weights broadcast over the stack axes
    wts = wts.reshape(wts.shape[:1] + (1,) * len(lead) + nb.shape)
    derivs = np.zeros(wts.shape[:1] + lead + (nb.shape[0], samples.shape[-1]))
    for m in range(nb.shape[1]):
        derivs += wts[..., m, None] * samples[..., nb[:, m], :]
    return derivs, frame


# -- principal values ------------------------------------------------------------

def _singular_cell_corrections(mesh, f, side, idx=None):
    """Corrections for the dropped singular cell at the node index array idx.

    f is node samples, (N, 2^n) or a (K, N, 2^n) stack, taken as given, or
    one density or a sequence of K (see principal_value_nodes).  Shape
    (len(idx), dim), or (K, len(idx), dim); the default idx is every node.
    """
    samples = f if isinstance(f, np.ndarray) else _density_samples(mesh, f)
    derivs, frame = tangential_gradient(mesh, samples, idx)
    return _cell_corrections(mesh, derivs, frame, side, idx)


def _cell_corrections(mesh, derivs, frame, side, idx=None):
    """Singular-cell corrections from tangential derivatives at the nodes idx.

    derivs[a] holds the (len(idx), dim) derivatives of the density along
    frame[:, a, :], both taken at the nodes idx (default every node), or a
    (K, len(idx), dim) stack of them, one per density.  The
    subtracted integrand E(x-t) nu [f(x)-f(t)] tends to
    sum_k bar(T_k) nu(t) d_k f(t) as x -> t along tangent direction T_k;
    integrating it over a flat d-ball cell of the node's weight gives
    (d w / sigma_d)^{1/d} (sigma_d / d) sum_k bar(T_k) nu(t) d_k f(t),
    where d = n and sigma_d = area(S^{d-1}).  The right side mirrors every
    product.  The 3-sphere grid's cells are far from round near its poles,
    so spec-built 3-spheres take _grid_cell_coefficients instead.
    """
    ctx = mesh.context
    d = mesh.n
    out = np.zeros(np.shape(derivs)[1:])
    if d == 3 and mesh.spec is not None:
        G = _grid_cell_coefficients(mesh, side, frame, idx)
        for a in range(d):
            out += sided_product(ctx, side, G[a], derivs[a])
        return out
    rows = slice(None) if idx is None else idx
    sigma_d = 2.0 if d == 1 else unit_sphere_area(d - 1)
    prefac = (d * mesh.weights[rows] / sigma_d) ** (1.0 / d) * (sigma_d / d)
    nu = mesh.normals[rows]
    for a in range(d):
        Tbar = frame[:, a, :].copy()
        Tbar[:, 1:] *= -1.0
        out += sided_product(ctx, side, sided_product(ctx, side, Tbar, nu),
                             derivs[a])
    return out * prefac[:, None]


def _grid_cell_coefficients(mesh, side, frame, idx=None):
    """Coefficients G_k of the 3-sphere grid's correction sum_k G_k d_k f(t)
    at the node index array idx (default every node), (d, len(idx), dim);
    those of every node are kept read-only in the mesh's cache per side.
    frame is the stencil frame (gradient_stencil) at the nodes idx, which
    the caller already holds, so no stencil is fitted here.

    Near the poles of the chi/th/ph grid its cells are thin needles, and
    nodes lie much closer than h, so the flat-ball cell model does not
    converge there.  Instead the linear part sum_k T_k.(x - t) d_k f(t) of
    f(x) - f(t) is integrated exactly and its node sum taken out:
    G_k = V_n PV C[T_k.(x - t)](t) - sum_(j != i) E(x_j - t) nu_j w_j
    T_k.(x_j - t).  On a sphere of radius R, PV C[x_c - t_c](t) =
    -R bar(nu) e_c / (n+1) (e_0 = 1), from x_0 = (bar(X) + sum_i z_i e_i)
    / (n+1) and x_j = z_j + x_0 e_j: the Fueter variables z_j extend
    monogenically inside, bar(X) = E(x) outside.  The right side mirrors
    every product.  The node sums are _shifted_sums of the coordinates.
    """
    key = ("cell_coefficients", side)
    if key in mesh.cache:
        G = mesh.cache[key]
        return G if idx is None else G[:, idx]
    ctx, N, n = mesh.context, mesh.node_count, mesh.n
    idx = np.arange(N) if idx is None else np.asarray(idx)
    coords = np.zeros((n + 1, N, ctx.dim))
    coords[:, :, 0] = mesh.nodes.T
    sums = _shifted_sums(mesh, coords, side, mesh.nodes[idx], idx, idx)
    nubar = mesh.normals[idx].copy()
    nubar[:, 1:] *= -1.0
    scale = -unit_sphere_area(n) * mesh.spec.radius / (n + 1)
    G = np.stack([scale * sided_product(ctx, side, nubar, frame[:, k])
                  - np.einsum("nc,cnD->nD", frame[:, k], sums)
                  for k in range(n)])
    if np.array_equal(idx, np.arange(N)):
        G.flags.writeable = False
        mesh.cache[key] = G
    return G


def principal_value_nodes(mesh, f, side="left", indices=None):
    """Regularized principal values at mesh nodes, shape (len(indices), dim).

    Computes (S1 - S2 f_t + c_t)/V_n + f_t/2, S1 - S2 f_t the sums of
    _shifted_sums at the nodes, each skipping its own, and c_t the
    singular-cell correction.  f is one BoundaryDensity, or a sequence of
    K, giving (K, len(indices), dim), row k bitwise that of f[k] alone.  A
    density sampled on a mesh with other nodes, or a side other than
    'left' or 'right', raises ValueError before any sum is taken, and
    indices that are not node indices raise NodeIndexError.
    """
    _check_side(side)
    idx = (np.arange(mesh.node_count, dtype=np.int64) if indices is None
           else _node_indices(mesh, indices, "indices"))
    if indices is None:
        # building the stencil takes the largest temporaries of the call
        # (the per-node least-squares fits), so build it before any stack
        # is held; an indexed call fits its own nodes only
        gradient_stencil(mesh)
    samples = _density_samples(mesh, f)
    core = _shifted_sums(mesh, samples, side, mesh.nodes[idx], idx, idx)
    core += _singular_cell_corrections(mesh, samples, side, idx)
    return core / unit_sphere_area(mesh.n) + 0.5 * samples[..., idx, :]


def _snap_node(mesh, t):
    """Node index of t: a scalar is a node index (_node_indices), anything
    else a point, which snaps to its nearest node within h/2."""
    if np.ndim(t) == 0:
        return int(_node_indices(mesh, t)[0])
    i, dist = _nearest_node(mesh, np.asarray(t, dtype=np.float64))
    if dist > 0.5 * mesh.h + 1e-12:
        raise ValueError("point is not a mesh node (nearest is %.3g away, "
                         "snap tolerance h/2 = %.3g)" % (dist, 0.5 * mesh.h))
    return i


def _warn_if_continuous(f):
    if not f.is_holder:
        warnings.warn("principal value of a continuous-only density: "
                      "convergence is not guaranteed", stacklevel=3)


def principal_value(mesh, f: BoundaryDensity, t, side="left",
                    method="regularized") -> Multivector:
    """Cauchy principal value PV C[f](t) at a boundary node.

    Parameters
    ----------
    t : node index or point
        Boundary point; plain points snap to the nearest node within h/2.
    method : 'regularized' | 'delta_limit'
        Regularized desingularized form (accurate path), or extrapolated
        shrinking-cap exclusion (cross-validation path).
    """
    _warn_if_continuous(f)
    i = _snap_node(mesh, t)
    ctx = mesh.context
    if method == "regularized":
        row = principal_value_nodes(mesh, f, side=side, indices=[i])[0]
        return Multivector(ctx, row)
    if method != "delta_limit":
        raise ValueError("method must be 'regularized' or 'delta_limit'")
    vol = unit_sphere_area(mesh.n)
    g = _measure_density(mesh, _density_samples(mesh, f), side)
    t_point = mesh.nodes[i]
    dist = np.linalg.norm(mesh.nodes - t_point[None, :], axis=1)
    delta0 = 16.0 * mesh.h
    # the largest cap, centred on node i, holds every smaller one; it is
    # degenerate when no node lies outside it
    if not np.any(dist > delta0):
        raise DegenerateExclusionError("cap of radius %g removed every node"
                                       % delta0)
    vals = []
    for k in range(RICHARDSON_TERMS):
        delta = delta0 / RICHARDSON_RATIO**k
        keep = dist > delta
        vals.append(_accum(mesh, [t_point], g, side, keep=keep)[0] / vol)
    return Multivector(ctx, richardson_limit(RICHARDSON_RATIO, vals))


def plemelj_values(mesh, f: BoundaryDensity, t, side="left"):
    """Plemelj boundary values (plus, minus) at node t.

    plus = f(t)/2 + PV C[f](t), minus = -f(t)/2 + PV C[f](t); their
    difference is f(t) up to the rounding of the two sums.
    """
    i = _snap_node(mesh, t)
    pv = principal_value(mesh, f, i, side=side)
    ctx = mesh.context
    half = Multivector(ctx, 0.5 * f.samples[i])
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


def _ladder_rows(mesh, f, t, lams, signs, side, shift):
    """C[f] at x_t - s lam nu(t), sign s = 1 inside and -1 outside, in one
    _integral_rows call, shifted by f at node t when shift is set.  t is a
    node index or a 1-d array of them.  Returns (len(signs), len(t),
    len(lams), dim), after a leading K for a sequence of K densities."""
    idx = _node_indices(mesh, t)
    s = np.asarray(signs, dtype=np.float64)[:, None, None, None]
    points = (mesh.nodes[idx][None, :, None]
              - s * lams[:, None] * mesh.normals[idx][None, :, None])
    shape = points.shape[:-1]
    node = np.broadcast_to(idx[:, None], shape).ravel() if shift else None
    rows = _integral_rows(mesh, f, points.reshape(-1, mesh.n + 1), side,
                          node, np.broadcast_to(s[..., 0] > 0, shape).ravel())
    return rows.reshape(rows.shape[:-2] + shape + rows.shape[-1:])


def _ladder_limit(mesh, t, ratio, rows):
    """richardson_limit over the rungs of (..., len(t), rungs, dim) rows: a
    Multivector for one node index t and one density, else the rows."""
    out = richardson_limit(ratio, np.moveaxis(rows, -2, 0))
    out = out if np.ndim(t) else out[..., 0, :]
    return Multivector(mesh.context, out) if out.ndim == 1 else out


def boundary_limit(mesh, f: BoundaryDensity, t, sign="+", side="left",
                   method=None):
    """Richardson limit of C[f] along the normal through node t.

    sign '+' approaches from the interior (against the outward normal),
    '-' from the exterior.  Used as the independent oracle for the
    Plemelj formulas.  The ladder's steps halve from 0.25 R over 5 rungs
    on circles and from 0.35 R over RICHARDSON_TERMS rungs on other
    meshes, R the spec radius or half the nodes' widest extent.  A node
    index t gives a Multivector, a 1-d index array (len(t), dim) rows, and
    K densities (K, len(t), dim), all rungs in one kernel call; method
    'subtract' (the default on spec-built meshes) shifts by f at the node.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    # the circle mesh is fine enough for a deeper extrapolation ladder
    frac, terms = (0.25, 5) if mesh.n == 1 else (0.35, RICHARDSON_TERMS)
    if method is None:
        method = "subtract" if mesh.spec is not None else "raw"
    if method not in ("raw", "subtract"):
        raise ValueError("method must be 'raw' or 'subtract'")
    rows = _ladder_rows(mesh, f, t, _halving_steps(mesh, frac, terms),
                        [1.0 if sign == "+" else -1.0], side,
                        method == "subtract")
    return _ladder_limit(mesh, t, RICHARDSON_RATIO, rows[..., 0, :, :, :])


def _scale(mesh):
    if mesh.spec is not None:
        return mesh.spec.radius
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    return 0.5 * float(span.max())


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
    the result take boundary_limit's forms, and spec-built meshes shift.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.ndim != 1 or lams.size < 2:
        raise ValueError("need at least two lambda values")
    if np.any(lams <= 0) or np.any(np.diff(lams) >= 0):
        raise ValueError("lambda sequence must be positive and strictly "
                         "decreasing")
    ratios = lams[:-1] / lams[1:]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("lambda sequence must shrink by one ratio")
    rows = _ladder_rows(mesh, f, p, lams, [1.0, -1.0], side,
                        mesh.spec is not None)
    return _ladder_limit(mesh, p, float(ratios[0]),
                         rows[..., 0, :, :, :] - rows[..., 1, :, :, :])


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
    ctx = mesh.context
    point = np.asarray(w, dtype=np.float64)
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
