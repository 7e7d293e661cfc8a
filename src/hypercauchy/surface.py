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
from dataclasses import dataclass, field, replace

import numpy as np

from .clifford_core import Multivector, Paravector, get_context


class UnsupportedDomainError(ValueError):
    """Domain kind/dimension combination has no builder."""


class DegenerateExclusionError(ValueError):
    """A principal value's shrinking cap removed every node."""


class MeshFormatError(ValueError):
    """Mesh file violates the documented text format or its invariants."""


class NodeIndexError(IndexError, ValueError):
    """A node index that is not an integer in 0..N-1; bools are refused."""


NORMAL_UNIT_TOL = 1e-6

# nearest nodes the sphere2 builder lists per node, the node itself first:
# the neighbours the sphere2 gradient fit takes (cauchy.gradient_stencil)
FIBONACCI_NEIGHBOURS = 12


@dataclass(frozen=True)
class DomainSpec:
    """Closed surface selector: kind 'circle' (n=1) or 'sphere' (n=2, 3)."""

    kind: str
    n: int = 0
    center: tuple = ()
    radius: float = 1.0

    def __post_init__(self):
        kind = self.kind.lower()
        n = self.n
        if n == 0:
            n = 1 if kind == "circle" else 2
        if kind == "circle" and n != 1:
            raise UnsupportedDomainError("circle requires n=1, got n=%d" % n)
        if kind == "sphere" and n not in (2, 3):
            raise UnsupportedDomainError("sphere requires n in {2, 3}, got n=%d" % n)
        if kind not in ("circle", "sphere"):
            raise UnsupportedDomainError("unknown surface kind %r" % self.kind)
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        center = tuple(float(c) for c in self.center) if self.center else \
            (0.0,) * (n + 1)
        if len(center) != n + 1:
            raise ValueError("center must have n+1 = %d components" % (n + 1))
        if not all(math.isfinite(c) for c in center):
            raise ValueError("center must be finite")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def center_array(self):
        return np.asarray(self.center, dtype=np.float64)


@dataclass(frozen=True)
class SurfaceMesh:
    """Nodes, outward unit normals and positive area weights on Gamma.

    Attributes
    ----------
    nodes : (N, n+1) float array
        Quadrature points on the surface.
    normals : (N, n+1) float array
        Outward unit normals nu_i (pointing into the unbounded component).
    weights : (N,) float array
        Positive area elements; sum approximates area(Gamma).
    h : float
        Mesh parameter: maximum nearest-neighbor node distance.
    level : int
        Refinement index used by the builder (0 for loaded meshes).
    spec : DomainSpec or None
        Builder spec when constructed by build_mesh; None for loaded meshes.
    cache : dict
        Mesh-owned operator data that depends on the mesh alone.
        build_mesh fills "neighbours" on spheres: the builder's (N, k)
        neighbour lists, each row led by its node (the 12 nearest nodes,
        nearest first, on the Fibonacci lattice; the 3x3x3 grid block on
        3-spheres), read by neighbour_lists.  The rest is filled on first
        use: the tangential-derivative stencil of cauchy.gradient_stencil,
        only once it is built for every node (a fit of some nodes alone is
        not kept), the read-only full-mesh self-sums S2 of
        cauchy.principal_value_nodes, one per side, on 3-spheres the
        singular-cell coefficients of cauchy._grid_cell_coefficients, one
        per side, and the refined mesh (refine(mesh), with its own cache)
        on which the solvability thresholds resample evaluator-backed
        densities.  Never a
        constructor argument; every other new mesh (load_mesh,
        dataclasses.replace) starts with an empty one.
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    h: float
    level: int = 0
    spec: DomainSpec | None = None
    cache: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        normals = np.ascontiguousarray(self.normals, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape != normals.shape or \
                weights.shape != (nodes.shape[0],):
            raise MeshFormatError("inconsistent mesh array shapes")
        for name, values in (("nodes", nodes), ("normals", normals),
                             ("weights", weights)):
            bad = _first_nonfinite_row(values)
            if bad is not None:
                raise MeshFormatError("%s row %d is not finite" % (name, bad))
        misfit = np.abs(np.linalg.norm(normals, axis=1) - 1.0)
        if misfit.size and misfit.max() > NORMAL_UNIT_TOL:
            raise MeshFormatError("normals deviate from unit length by %.3g"
                                  % misfit.max())
        if weights.size and weights.min() <= 0:
            raise MeshFormatError("weights must be positive")
        pair = _coincident_rows(nodes)
        if pair is not None:
            raise MeshFormatError("nodes rows %d and %d coincide" % pair)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "h", float(self.h))

    @property
    def n(self):
        return self.nodes.shape[1] - 1

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def context(self):
        return get_context(self.n)

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
    """(i, j), i < j, for the first repeated row j and its first copy i."""
    _, first = np.unique(nodes, axis=0, return_index=True)
    if first.size == nodes.shape[0]:
        return None
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


def neighbour_lists(mesh, k):
    """Per-node neighbour indices, each row led by its node.

    The builder's lists when build_mesh made the mesh (mesh.cache), else
    the k nearest nodes from a k-d tree: loaded meshes and
    dataclasses.replace copies (which may keep a spec but not the
    builder's nodes) have their lists searched, never derived.
    """
    nb = mesh.cache.get("neighbours")
    return _tree_neighbours(mesh.nodes, k) if nb is None else nb


def _mesh_h(nodes, nb=None):
    """Largest nearest-neighbour distance, over the lists nb (rows led by
    their node; default the k-d tree's two nearest)."""
    if nodes.shape[0] < 2:
        return 0.0
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
    increment = np.pi * (3.0 - np.sqrt(5.0))
    y = i * offset - 1.0 + offset / 2.0
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * increment
    normals = np.stack([np.cos(phi) * r, y, np.sin(phi) * r], axis=1)
    nodes = center[None, :] + radius * normals
    weights = np.full(N, 4.0 * np.pi * radius**2 / N)
    nb = _fibonacci_neighbours(nodes, normals, radius, increment,
                               FIBONACCI_NEIGHBOURS)
    return nodes, normals, weights, _mesh_h(nodes, nb), nb


def _fibonacci_neighbours(nodes, normals, radius, increment, k):
    """The k nearest nodes of each lattice node, nearest first, as cKDTree
    lists them, without a tree.

    Node j = i + o sits at height y_j = y_i + 2o/N and azimuth o*increment
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
    the candidates that a wide band admits.
    """
    slack = 1e-9
    N = nodes.shape[0]
    band = max(16, int(1.5 * np.sqrt(N)))
    coords = np.ascontiguousarray(nodes.T)
    r = np.hypot(normals[:, 0], normals[:, 2])
    starts = np.arange(0, N, band)
    ends = np.minimum(starts + band, N) - 1
    # an equal-area lattice holds about k nodes within sqrt(4k/N)
    search = np.full(starts.size, 1.1 * np.sqrt(4.0 * k / N))
    nb = np.empty((N, k), dtype=np.int64)
    todo = np.arange(starts.size)
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
        dphi = np.abs(np.remainder(o * increment + np.pi, 2.0 * np.pi)
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
        for w in np.unique(width):
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
    return nb


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
    weights = (wchi[:, None, None] * wu[None, :, None] *
               np.full((1, 1, nphi), wphi)).ravel() * radius**3
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
    320*2^level on 2-spheres, 2*(4*2^level)^3 on 3-spheres.  Sphere meshes
    keep the builder's neighbour lists in their cache (SurfaceMesh.cache).
    """
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) \
            or level < 0:
        raise ValueError("level must be an integer >= 0")
    c = spec.center_array
    if spec.kind == "circle":
        built = _circle_nodes(level, c, spec.radius)
    elif spec.n == 2:
        built = _fibonacci_nodes(level, c, spec.radius)
    else:
        built = _sphere3_nodes(level, c, spec.radius)
    nodes, normals, weights, h, nb = built
    mesh = SurfaceMesh(nodes, normals, weights, h, level=level, spec=spec)
    if nb is not None:
        nb.flags.writeable = False
        mesh.cache["neighbours"] = nb
    return mesh


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


def oriented_measure(mesh: SurfaceMesh, i: int) -> Multivector:
    """Oriented Clifford measure element nu_i w_i at node i (as Multivector)."""
    if np.ndim(i) != 0:
        raise NodeIndexError("i must be a node index, not an array")
    i = int(_node_indices(mesh, i, "i")[0])
    p = Paravector(mesh.normals[i, 0] * mesh.weights[i],
                   mesh.normals[i, 1:] * mesh.weights[i])
    return p.as_multivector(mesh.context)


def refine(mesh: SurfaceMesh) -> SurfaceMesh:
    """Next refinement level of the same spec; h at most halves (x1.5 slack)."""
    if mesh.spec is None:
        raise ValueError("mesh has no builder spec (loaded from file); "
                         "build a finer mesh from a DomainSpec instead")
    return build_mesh(mesh.spec, mesh.level + 1)


def save_mesh(mesh: SurfaceMesh, path) -> None:
    """Write the text format: header 'n <int> nodes <int>', then per node
    n+1 coordinates, n+1 normal components, 1 weight."""
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
    nodes = data[:, : n + 1]
    normals = data[:, n + 1 : 2 * (n + 1)]
    weights = data[:, -1]
    mesh = SurfaceMesh(nodes, normals, weights, 0.0)  # validates the arrays
    return replace(mesh, h=_mesh_h(mesh.nodes))


def parse_mesh_spec(text: str):
    """Parse 'kind[,key=value...]' into (DomainSpec, level).

    Keys: n, radius, center (colon-separated floats), level.  Example:
    'sphere,n=2,radius=2.0,center=0:0:0,level=4'.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty mesh spec")
    kind = parts[0]
    if "=" in kind:
        raise ValueError("mesh spec must start with the surface kind")
    kw = {"kind": kind}
    level = 0
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError("expected key=value, got %r" % part)
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "n":
            kw["n"] = int(value)
        elif key == "radius":
            kw["radius"] = float(value)
        elif key == "center":
            kw["center"] = tuple(float(v) for v in value.split(":"))
        elif key == "level":
            level = int(value)
        else:
            raise ValueError("unknown mesh spec key %r" % key)
    return DomainSpec(**kw), level
