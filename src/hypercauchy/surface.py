"""Quadrature meshes on closed oriented hypersurfaces in R^{n+1}.

Builders cover the unit-radius family actually used by the solvers: a
uniform angular grid on circles (n=1), a Fibonacci lattice with equal
weights on 2-spheres, and a Gauss-Legendre x uniform product grid on
3-spheres.  Arbitrary closed C^1 surfaces can be supplied through the
text file format (see save_mesh/load_mesh); such meshes work everywhere
a built mesh does except refine().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford_core import _instance, _integer, _is_real, get_context


class UnsupportedDomainError(ValueError):
    """Domain kind/dimension combination has no builder."""


class MeshFormatError(ValueError):
    """Mesh file violates the documented text format or its invariants."""


class NodeIndexError(IndexError, ValueError):
    """A node index that is not an integer in 0..N-1; bools are refused."""


NORMAL_UNIT_TOL = 1e-6

# nearest nodes the sphere2 lists hold per node, the node itself first:
# the neighbours every 2-surface gradient fit takes, so the k-d tree of a
# loaded copy lists those of its built sphere (cauchy.gradient_stencil)
FIBONACCI_NEIGHBOURS = 12

# azimuth step between consecutive Fibonacci lattice nodes
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True)
class DomainSpec:
    """Closed surface selector: kind 'circle' (n=1) or 'sphere' (n=2, 3)."""

    kind: str
    n: int = 0
    center: tuple = ()
    radius: float = 1.0

    def __post_init__(self):
        kind = self.kind.lower() if isinstance(self.kind, str) else None
        if kind not in ("circle", "sphere"):
            raise UnsupportedDomainError("unknown surface kind %r" % (self.kind,))
        n = _integer(self.n, "n")
        if n == 0:
            n = 1 if kind == "circle" else 2
        if kind == "circle" and n != 1:
            raise UnsupportedDomainError("circle requires n=1, got n=%d" % n)
        if kind == "sphere" and n not in (2, 3):
            raise UnsupportedDomainError("sphere requires n in {2, 3}, got n=%d" % n)
        if not (_is_real(self.radius) and 0 < self.radius < math.inf):
            raise ValueError("radius must be a positive finite number, got %r"
                             % (self.radius,))
        center = (tuple(self.center) if np.iterable(self.center)
                  else (self.center,)) or (0.0,) * (n + 1)
        if len(center) != n + 1 or not all(map(_is_real, center)):
            raise ValueError("center must be n+1 = %d real numbers, got %r"
                             % (n + 1, self.center))
        if not all(math.isfinite(c) for c in center):
            raise ValueError("center must be finite")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "center", tuple(map(float, center)))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def center_array(self):
        return np.asarray(self.center, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Nodes, outward unit normals and positive area weights on Gamma: the
    only constructor arguments, with at least two nodes (one has no h).
    The mesh keeps read-only float64 copies of the three, so the caller's
    arrays stay writeable and no write can leave the cached operators
    stale.  Meshes compare and hash by identity.

    Attributes
    ----------
    nodes : (N, n+1) float array
        Quadrature points on the surface.
    normals : (N, n+1) float array
        Outward unit normals nu_i (pointing into the unbounded component).
    weights : (N,) float array
        Positive area elements; sum approximates area(Gamma).
    h : float
        Mesh parameter: maximum nearest-neighbor node distance.  Set by
        build_mesh; any other mesh computes it from its nodes (a k-d tree
        search) when first read, and keeps it.
    level : int
        Refinement index used by the builder; 0 for every other mesh.
    spec : DomainSpec or None
        The builder spec, set by build_mesh only; None for every other
        mesh (load_mesh, dataclasses.replace copies, hand-made meshes).
        No operator's arithmetic reads it: neighbour_lists picks the
        lattice search by it, whose lists are the tree's; refine, the
        refinement thresholds, cauchy_integral's side tags and boundary
        distance, the experiment corpus and the CLI do.
    cache : dict
        What the mesh keeps, each entry written once, read-only, by kept.
        Mesh facts, readable by any call: "neighbours" (the builder's
        lists), ("neighbours", k) (a k-d tree's), "uniform_circle" and
        "refined" (refine(mesh), with its own cache).  Operators, built and
        read only by a call for every node: "gradient_stencil" and
        "self_sums", one S2 for both sides.
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    level: int = field(default=0, init=False)
    spec: DomainSpec | None = field(default=None, init=False)
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        nodes, normals, weights = (np.array(a, dtype=np.float64, order="C")
                                   for a in (self.nodes, self.normals,
                                             self.weights))
        if nodes.ndim != 2 or nodes.shape != normals.shape or \
                weights.shape != (nodes.shape[0],):
            raise MeshFormatError("inconsistent mesh array shapes")
        if nodes.shape[0] < 2:
            raise MeshFormatError("nodes: a mesh needs at least 2 nodes, "
                                  "got %d" % nodes.shape[0])
        for name, values in (("nodes", nodes), ("normals", normals),
                             ("weights", weights)):
            bad = _first_nonfinite_row(values)
            if bad is not None:
                raise MeshFormatError("%s row %d is not finite" % (name, bad))
        misfit = np.abs(np.linalg.norm(normals, axis=1) - 1.0)
        if misfit.max() > NORMAL_UNIT_TOL:
            raise MeshFormatError("normals deviate from unit length by %.3g"
                                  % misfit.max())
        if weights.min() <= 0:
            raise MeshFormatError("weights must be positive")
        pair = _coincident_rows(nodes)
        if pair is not None:
            raise MeshFormatError("nodes rows %d and %d coincide" % pair)
        for name, values in (("nodes", nodes), ("normals", normals),
                             ("weights", weights)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @cached_property
    def h(self):
        return _mesh_h(self.nodes)

    @property
    def n(self):
        return self.nodes.shape[1] - 1

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def context(self):
        return get_context(self.n)

    def kept(self, key, build):
        """cache[key], from build() on first use: the one writer of the
        cache, which makes the value's arrays (or a tuple's) read-only."""
        if key not in self.cache:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            self.cache[key] = value
        return self.cache[key]

    def measure_coeffs(self):
        """nu_i w_i as paravector component rows, shape (N, n+1)."""
        return self.normals * self.weights[:, None]


def _first_nonfinite_row(values):
    """Index of the first row holding a NaN or infinity, or None."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    rows = finite.reshape(finite.shape[0], -1).all(axis=1)
    return int(np.argmin(rows))


def _coincident_rows(nodes):
    """(i, j), i < j, for the first repeated row j and its first copy i.

    One lexicographic sort decides: equal rows sort next to each other.
    Only a mesh that has a repeat takes np.unique, to name the pair.
    """
    ordered = nodes[np.lexsort(nodes.T)]
    if not (ordered[1:] == ordered[:-1]).all(axis=1).any():
        return None
    _, first = np.unique(nodes, axis=0, return_index=True)
    j = int(np.setdiff1d(np.arange(nodes.shape[0]), first)[0])
    i = int(np.flatnonzero((nodes == nodes[j]).all(axis=1))[0])
    return i, j


def _sq_distances(coords, i, j):
    """|x_j - x_i|^2 for index arrays i, j over the (n+1, N) coordinate
    rows, summed over coordinates in order as cKDTree sums them, so that
    its square root is the tree's distance bit for bit."""
    sq = 0.0
    for x in coords:
        d = x[j] - x[i]
        sq = sq + d * d
    return sq


def _tree_neighbours(nodes, k):
    """The k nearest nodes of every node, (N, k), nearest first, from a
    k-d tree: the neighbour search of meshes without builder lists."""
    from scipy.spatial import cKDTree  # only such meshes load scipy

    return cKDTree(nodes).query(nodes, k=k)[1]


def neighbour_lists(mesh, k, rows=None):
    """Neighbour indices of every node, or of the node index array rows,
    each row led by its node.

    Lists are mesh facts (SurfaceMesh.cache): kept on first use, read-only,
    and read by any call.  Built meshes take their builder's lists, so k
    applies to the tree's alone: the 27-node grid block on 3-spheres, kept
    by build_mesh, and the 12 nearest nodes on 2-spheres, searched on the
    Fibonacci lattice (_fibonacci_neighbours) and kept under "neighbours"
    once every node's are asked for; asked for some rows first, it searches
    only the lattice bands that hold them and keeps nothing.  Meshes
    without a builder take the k nearest nodes from a k-d tree, searched
    for every node and kept under ("neighbours", k).
    """
    nb = mesh.cache.get("neighbours")
    if nb is None and mesh.spec is not None and mesh.spec.n == 2:
        search = (mesh.nodes, mesh.normals, mesh.spec.radius)
        if rows is not None:
            return _fibonacci_neighbours(*search, rows)
        nb = mesh.kept("neighbours", lambda: _fibonacci_neighbours(*search))
    if nb is None:
        nb = mesh.kept(("neighbours", k),
                       lambda: _tree_neighbours(mesh.nodes, k))
    return nb if rows is None else nb[rows]


def _mesh_h(nodes, nb=None):
    """Largest nearest-neighbour distance, over the lists nb (rows led by
    their node; default the k-d tree's two nearest)."""
    if nb is None:
        nb = _tree_neighbours(nodes, 2)
    rows = np.arange(nodes.shape[0])[:, None]
    sq = _sq_distances(nodes.T, rows, nb[:, 1:])
    return float(np.sqrt(sq.min(axis=1).max()))


def _circle_nodes(level, center, radius):
    N = 64 * (1 << level)
    theta = 2.0 * np.pi * np.arange(N) / N
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nodes = center[None, :] + radius * normals
    weights = np.full(N, 2.0 * np.pi * radius / N)
    h = 2.0 * radius * np.sin(np.pi / N)
    # no lists: the gradient stencil finds the uniform grid from the nodes
    # and takes its index offsets, on loaded circles too
    return nodes, normals, weights, float(h), None


def _fibonacci_nodes(level, center, radius):
    # equal-area Fibonacci lattice on S^2
    N = 320 * (1 << level)
    i = np.arange(N, dtype=np.float64)
    offset = 2.0 / N
    y = i * offset - 1.0 + offset / 2.0
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * GOLDEN_ANGLE
    normals = np.stack([np.cos(phi) * r, y, np.sin(phi) * r], axis=1)
    nodes = center[None, :] + radius * normals
    weights = np.full(N, 4.0 * np.pi * np.float64(radius) ** 2 / N)
    # no lists: neighbour_lists searches them where a stencil reads them
    return nodes, normals, weights, _fibonacci_h(nodes), None


def _fibonacci_h(nodes):
    """Largest nearest-neighbour distance on the Fibonacci lattice.

    A lattice node's nearest node sits at a Fibonacci-number index offset
    (Swinbank & Purser 2006), so one pass over the offsets 1, 2, 3, 5, 8,
    ... < N finds it without a search; each pair's distance rounds as the
    tree's does (_sq_distances), so every node's nearest distance, and h,
    is the k-d tree's bit for bit (checked at L0-L8, on unit and shifted
    spheres).
    """
    N = nodes.shape[0]
    coords = np.ascontiguousarray(nodes.T)
    near = np.full(N, np.inf)
    a, b = 1, 2
    while a < N:
        sq = _sq_distances(coords, slice(0, N - a), slice(a, N))
        np.minimum(near[a:], sq, out=near[a:])
        np.minimum(near[:-a], sq, out=near[:-a])
        a, b = b, a + b
    return float(np.sqrt(near.max()))


def _fibonacci_neighbours(nodes, normals, radius, rows=None):
    """The FIBONACCI_NEIGHBOURS nearest nodes of each lattice node, nearest
    first, as cKDTree lists them, without a tree: (N, k) for every node, or
    (len(rows), k) for the node index array rows.

    Node j = i + o sits at height y_j = y_i + 2o/N and azimuth o*GOLDEN_ANGLE
    from node i, so on the unit sphere |x_j - x_i|^2 = dy^2 +
    (r_i - r_j)^2 + 4 r_i r_j sin^2(dphi/2), r the ring radius.  Over a
    band of consecutive nodes each term has a lower bound that depends on
    o alone: r is concave in the index, so r_(i+o) - r_i is monotone over
    the band, and r is least at a band end.  A band's
    candidates are the offsets whose bound is within its search radius;
    the true neighbours, at Fibonacci-number offsets that change with the
    latitude (Swinbank & Purser 2006), are among them when every node's
    k-th nearest candidate lies within that radius, and a band where one
    does not is searched again with the larger radius.  Bounds are widened
    by slack against the rounding of the node coordinates.  Bands of about
    1.5 sqrt(N) nodes balance the bounds' (bands, sqrt(N)) grid against
    the candidates that a wide band admits.  Each band is searched on its
    own, so rows searches only the bands that hold them, and their lists
    are bitwise those of the search for every node.
    """
    slack = 1e-9
    k = FIBONACCI_NEIGHBOURS
    N = nodes.shape[0]
    band = max(16, int(1.5 * np.sqrt(N)))
    coords = np.ascontiguousarray(nodes.T)
    r = np.hypot(normals[:, 0], normals[:, 2])
    starts = np.arange(0, N, band)
    ends = np.minimum(starts + band, N) - 1
    # an equal-area lattice holds about k nodes within sqrt(4k/N)
    search = np.full(starts.size, 1.1 * np.sqrt(4.0 * k / N))
    nb = np.empty((N, k), dtype=np.int64)
    if rows is None:
        todo = np.arange(starts.size)
    else:
        rows = np.asarray(rows)
        todo = np.flatnonzero(np.bincount(rows // band))
    while todo.size:
        D = search[todo, None] * (1.0 + slack)
        M = int(D.max() * N / 2.0) + 1
        o = np.arange(-M, M + 1)
        # the band's nodes i in [lo, hi] whose node i + o exists
        lo = np.maximum(starts[todo, None], -o)
        hi = np.minimum(ends[todo, None], N - 1 - o)
        valid = lo <= hi
        lo, hi = np.minimum(lo, N - 1), np.maximum(hi, 0)
        jlo, jhi = np.clip(lo + o, 0, N - 1), np.clip(hi + o, 0, N - 1)
        glo, ghi = r[jlo] - r[lo], r[jhi] - r[hi]
        gap = np.where(glo * ghi <= 0.0, 0.0,
                       np.minimum(np.abs(glo), np.abs(ghi)) - slack)
        dphi = np.abs(np.remainder(o * GOLDEN_ANGLE + np.pi, 2.0 * np.pi)
                      - np.pi) - slack
        dy = 2.0 * np.abs(o) / N - slack
        rr = np.minimum(r[lo], r[hi]) * np.minimum(r[jlo], r[jhi])
        bound = (np.maximum(dy, 0.0) ** 2 + np.maximum(gap, 0.0) ** 2
                 + 4.0 * rr * np.sin(0.5 * np.maximum(dphi, 0.0)) ** 2)
        keep = valid & (bound <= D * D)
        count = keep.sum(axis=1)
        # bands padded to a multiple of 8 candidates, one pass per width
        width = -(-count // 8) * 8
        reach = np.zeros(todo.size)
        for w in sorted(set(width.tolist())):
            g = np.flatnonzero(width == w)
            # each band's kept offsets first, in increasing order
            offs = o[np.argsort(~keep[g], axis=1, kind="stable")[:, :w]]
            # the last band's rows past the end repeat node N - 1
            i = np.minimum(starts[todo[g], None, None]
                           + np.arange(band)[:, None], N - 1)
            j = i + offs[:, None, :]                       # (bands, band, w)
            absent = ((np.arange(w) >= count[g, None])[:, None, :]
                      | (j < 0) | (j >= N))
            j[absent] = 0
            sq = _sq_distances(coords, i, j)
            sq[absent] = np.inf
            sel = np.argsort(sq, axis=2, kind="stable")[..., :k]
            kth = np.take_along_axis(sq, sel[..., -1:], axis=2)
            reach[g] = np.sqrt(kth.max(axis=(1, 2))) / radius
            nb[i[..., 0]] = np.take_along_axis(j, sel, axis=2)
        redo = reach > search[todo]
        search[todo[redo]] = reach[redo]
        todo = todo[redo]
    return nb if rows is None else nb[rows]


def _sphere3_nodes(level, center, radius):
    # S^3 in R^4: x = (cos chi, sin chi sin th cos ph, sin chi sin th sin ph,
    # sin chi cos th); area element sin^2(chi) sin(th) dchi dth dph.
    m = 4 * (1 << level)
    chi, wchi = np.polynomial.legendre.leggauss(m)
    chi = 0.5 * np.pi * (chi + 1.0)          # map [-1,1] -> [0,pi]
    wchi = 0.5 * np.pi * wchi * np.sin(chi) ** 2
    u, wu = np.polynomial.legendre.leggauss(m)  # u = cos(th), exact in sin dth
    nphi = 2 * m
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = 2.0 * np.pi / nphi

    schi, cchi = np.sin(chi), np.cos(chi)
    sth = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    x0 = cchi[:, None, None] * np.ones((m, m, nphi))
    x1 = schi[:, None, None] * sth[None, :, None] * np.cos(phi)[None, None, :]
    x2 = schi[:, None, None] * sth[None, :, None] * np.sin(phi)[None, None, :]
    x3 = schi[:, None, None] * u[None, :, None] * np.ones((1, 1, nphi))
    normals = np.stack([a.ravel() for a in (x0, x1, x2, x3)], axis=1)
    # renormalize against rounding so the unit-normal invariant holds exactly
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    nodes = center[None, :] + radius * normals
    cube = np.float64(radius) ** 3
    weights = (wchi[:, None, None] * wu[None, :, None] *
               np.full((1, 1, nphi), wphi)).ravel() * cube
    nb = _grid_block(m, nphi)
    return nodes, normals, weights, _mesh_h(nodes, nb), nb


def _grid_block(m, nphi):
    """The 3x3x3 index block around each node of the (chi, th, ph) grid,
    (N, 27), each row led by its node.

    phi is periodic; at the ends of the chi and th lines the block shifts
    inward, so every block holds three lines of three nodes in each
    direction, and a quadratic fit over it has full rank.
    """
    ic, it, ip = np.unravel_index(np.arange(m * m * nphi), (m, m, nphi))
    s = np.arange(3)
    c = np.clip(ic - 1, 0, m - 3)[:, None] + s
    t = np.clip(it - 1, 0, m - 3)[:, None] + s
    p = (ip[:, None] + s - 1) % nphi
    nb = ((c[:, :, None, None] * m + t[:, None, :, None]) * nphi
          + p[:, None, None, :]).reshape(-1, 27)
    # swap each node to the front of its row
    rows = np.arange(nb.shape[0])
    own = ((ic - c[:, 0]) * 3 + it - t[:, 0]) * 3 + 1
    nb[rows, own] = nb[:, 0]
    nb[:, 0] = rows
    return nb


def build_mesh(spec: DomainSpec, level: int) -> SurfaceMesh:
    """Build a quadrature mesh for the spec at the given refinement level.

    Node counts grow geometrically with level: 64*2^level on circles,
    320*2^level on 2-spheres, 2*(4*2^level)^3 on 3-spheres.  The one maker
    of spec, level and a closed-form or lattice-derived h.  3-sphere meshes
    also keep the builder's grid blocks in their cache (SurfaceMesh.cache);
    a 2-sphere's lists are searched only when a stencil reads them
    (neighbour_lists).
    """
    _instance(spec, DomainSpec, "spec")
    level = _integer(level, "level", 0)
    make = (_circle_nodes if spec.kind == "circle" else
            _fibonacci_nodes if spec.n == 2 else _sphere3_nodes)
    # a radius whose square or cube (numpy powers) leaves float64 gives inf
    # weights, which SurfaceMesh refuses as it does the circle's
    with np.errstate(over="ignore"):
        *arrays, h, nb = make(level, spec.center_array, spec.radius)
    mesh = SurfaceMesh(*arrays)
    # the builder's facts, which no constructor call or copy carries
    for name, value in (("h", h), ("level", level), ("spec", spec)):
        object.__setattr__(mesh, name, value)
    if nb is not None:
        mesh.kept("neighbours", lambda: nb)
    return mesh


def _node_count(spec: DomainSpec, level: int) -> float:
    """The node count of build_mesh(spec, level) in closed form: 64 * 2^L
    on circles, 320 * 2^L on 2-spheres, 2 (4 * 2^L)^3 on 3-spheres.  A
    float, through ldexp, so a level past float64's range gives inf."""
    with np.errstate(over="ignore"):
        if spec.kind == "circle":
            return float(np.ldexp(64.0, level))
        if spec.n == 2:
            return float(np.ldexp(320.0, level))
        return float(np.ldexp(128.0, 3 * level))


def _node_indices(mesh, t, name="t"):
    """t, a node index or a 1-d array of them, as a 1-d integer array.

    The one node-index check: a bool (isinstance(True, int) holds), a
    float, a deeper array or an index outside 0..N-1 raises NodeIndexError
    naming the argument.
    """
    idx = np.atleast_1d(t)
    if idx.ndim > 1 or idx.dtype.kind not in "iu" or np.any(
            (idx < 0) | (idx >= mesh.node_count)):
        raise NodeIndexError("%s must be a node index in 0..%d or a 1-d "
                             "array of them" % (name, mesh.node_count - 1))
    return idx


def _points(x, n=None, name="x", rows=True):
    """The one point check: x, one point or, when rows, an (M, n+1) array
    of them, as (M, n+1) float64 rows of finite coordinates (any count for
    n None) and whether one point was passed; else ValueError naming x."""
    try:
        p = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        p = None
    if p is None or p.ndim not in ((1, 2) if rows else (1,)) or not (
            np.isfinite(p).all()) or (n is not None and p.shape[-1] != n + 1):
        size = "" if n is None else "n+1 = %d " % (n + 1)
        raise ValueError("%s must be a point of %sfinite coordinates%s, got %r"
                         % (name, size, " or rows of them" if rows else "",
                            x))
    return np.atleast_2d(p), p.ndim == 1


def _point(w, n=None, name="w"):
    """w, one point checked by _points, as a 1-d float64 array."""
    return _points(w, n, name, rows=False)[0][0]


def _check_mesh(mesh):
    """TypeError naming mesh unless it is a SurfaceMesh."""
    _instance(mesh, SurfaceMesh, "mesh")


def refine(mesh: SurfaceMesh) -> SurfaceMesh:
    """Next refinement level of the same spec; h at most halves (x1.5 slack)."""
    _check_mesh(mesh)
    if mesh.spec is None:
        raise ValueError("mesh has no builder spec (not made by build_mesh); "
                         "build a finer mesh from a DomainSpec instead")
    return build_mesh(mesh.spec, mesh.level + 1)


def save_mesh(mesh: SurfaceMesh, path) -> None:
    """Write the text format: header 'n <int> nodes <int>', then per node
    n+1 coordinates, n+1 normal components, 1 weight."""
    _check_mesh(mesh)
    with open(path, "w") as fh:
        fh.write("n %d nodes %d\n" % (mesh.n, mesh.node_count))
        for x, nu, w in zip(mesh.nodes, mesh.normals, mesh.weights):
            row = np.concatenate([x, nu, [w]])
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_mesh(path) -> SurfaceMesh:
    """Read the text format produced by save_mesh, validating invariants."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "n" or header[2] != "nodes":
            raise MeshFormatError("bad header; expected 'n <int> nodes <int>'")
        try:
            n, count = int(header[1]), int(header[3])
        except ValueError:
            raise MeshFormatError("non-integer header fields") from None
        if not 1 <= n <= 8:
            raise MeshFormatError("header n = %d is outside 1..8" % n)
        try:
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise MeshFormatError("malformed node record: %s" % exc) from None
    if data.shape != (count, 2 * (n + 1) + 1):
        raise MeshFormatError("expected %d records of %d fields, got shape %s"
                              % (count, 2 * (n + 1) + 1, data.shape))
    return SurfaceMesh(data[:, : n + 1], data[:, n + 1 : -1], data[:, -1])

