"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Every kernel value E(x_j - w_i) is built here as component planes: a block
of C targets against N nodes has shape (n+1, C, N), plane k holding
paravector component k, built from the transposed (n+1, N) nodes.  Every
sum is a matmul of the planes plus the blade-pair table that
batch_product uses too, applied one left column at a time
(clifford_core.scatter_column).  Their order is fixed (blocks, tiles and
gemms in order, the table's order), so results do not depend on the
thread count.

Each sum form is one loop.  accum_left allocates its (K, M, 2^n) sums of
a stack of K densities, g of shape (K, N, 2^n), at M targets once, and
contracts each plane p with every density, one BLAS gemm per plane and
density, adding the terms onto the sums through the table's column p,
plane p's basis blade e_p on the left of each product: no pass holds an
(n+1, K, M, 2^n) term stack.  Every sum is a left sum: accum_right,
which no library path calls, is rev(accum_left(rev(g))) for the
reversion rev, as E is a paravector.  Each step is a matmul row or an
elementwise add, so the rows of density k are bitwise those of a call
with that density alone.  The terms come from one of two passes, each
building its blocks in one bounded work buffer of two rows
(_block_planes): r^-(n+1) in one, then each plane p = 0..n in the other,
contracted with every density before plane p+1 is built.

- Targets that are not the nodes (_row_block_terms) take row blocks of the
  largest multiple of GEMM_ROWS rows whose two rows fit ROW_BLOCK_BYTES
  (never fewer, which outgrow it only past 2^13 nodes), each plane
  contracted as stacked gemms of GEMM_ROWS rows, the last block padded with
  its last target: a gemm of fixed row count rounds every row alike
  wherever it stands, so a target's sum does not depend on which targets
  share its call.  Each sum takes the planes' terms in plane order,
  bitwise what one scatter of a whole term stack gives.
- Node targets, each skipping its own node, build each kernel value once
  (_tile_terms, the one walk over node-pair tiles): E(x_i - x_j) =
  -E(x_j - x_i) exactly in float64 (negating a difference is exact, and
  r^2, the power and the sign then round identically), so the walk takes
  upper-triangular tiles (I, J >= I) of edge TILE_EDGE = 256, a buffer of
  2 * 65536 floats for every n, each plane taken onto rows I and, for
  J != I, negated and transposed onto rows J.  Rows J take
  -Ep^T @ (e_p G[:, I]) as each tile comes, the signed permutation e_p G
  of the stripe's rows formed once per row stripe I, and rows I their
  planes' terms summed over the stripe's tiles, through the table once
  the stripe is done: a stripe holds 2n + 1 blocks of (K, TILE_EDGE, 2^n).
  The tile edge is fixed, not sized by bytes: it sets how each node
  target's sum groups its terms, so another edge moves sphere principal
  values by rounding.  Tile sums agree with row-block sums to rounding,
  not bitwise.

Callers that read every plane at once (pb_rhs, pv_matrix,
cauchy.kernel_E_rows and bvp._pair_orthogonality) stack the same planes
(_kernel_E_block) and sum with sided_sum.  A two-point kernel reaches the
sums only as the two factor rows of k[j, i] = L_j R_i (bvp.ProductKernel),
whose principal value is that of the ordinary density L, right-multiplied
by R_i (bvp._matrix_pv_rows), and pb_rhs then needs the sampled nodes'
kernel rows alone.  pv_matrix, the sum of a held (N, N, 2^n) density
matrix, takes blocks of target rows against every node; it is no library
path and walks no tiles, so it stays an independent parity reference of
the separable route.

Node targets on a uniform circle grid (uniform_circle) take no tiles in
accum_left: there C(V_1) is the complex plane (e1 = i), E(x) = 1/x and
x_q - x_p = (x_p - c)(omega^(q-p) - 1) for the nodes in angular order,
omega = exp(2 pi i / N).  So sum_{q != p} E(x_q - x_p) g_q =
(x_p - c)^-1 sum_m c_m g_(p+m), c_m = 1/(omega^m - 1), one circular
correlation per density: an FFT, the exact symbol of c and an inverse FFT
(_circle_sums), O(N log N) against the tiles' O(N^2).  Callers pick the
route: circle, with no default, is uniform_circle(nodes) or None;
off-surface targets, indexed rows, trimmed or capped circles and spheres
stay on the direct paths above, their parity reference.  The FFT takes the
grid as ideal, costing about N eps relative against the direct sums over
the rounded nodes; in S1 - S2 f_t that part cancels when S2 takes the same
route, as every S1 - S2 f_t is cauchy._shifted_sums, whose full-mesh S2
(the mesh's cache) is a node-target sum.
"""

from __future__ import annotations

import numpy as np

from .clifford_core import batch_product, scatter_column, sided_sum

# edge of a node-target tile: it sets how each target's sum groups its
# terms, so changing it moves values by rounding
TILE_EDGE = 256

# bytes of a row block's work buffer (r^-(n+1) and one plane)
ROW_BLOCK_BYTES = 1 << 19

# target rows of every row-block gemm: a gemm rounds a row by its row count
# alone, so fixing the count makes each target's sum its own
GEMM_ROWS = 4

# largest node distance from the ideal uniform grid, relative to its radius
# (uniform_circle): small enough that the FFT's ideal grid costs rounding only
CIRCLE_GRID_TOL = 1e-12


def _block_planes(targets, nodes_T, n, skip, work):
    """Yield plane p = 0..n of E(x_j - w_i), shape (C, N); 0 at r = 0.

    targets holds the C target rows w_i, shape (C, n+1); nodes_T the
    transposed nodes x_j, shape (n+1, N).  skip[i] >= 0 names a node whose
    entry is zeroed for target i (the excluded node of a punctured sum),
    or skip is None.  work is a buffer of shape (2, P), P >= C N: its first
    row takes r^-(n+1) and its second each plane in turn, so a plane
    yielded is valid only until the next one is built.  r^2 is summed in
    the first row over the component differences, each formed and squared
    in the second, then raised in place; the r = 0 entries are found from
    r^2 before the power, since a tiny r^2 whose power overflows stays inf.
    Plane 0 is formed as (x_0 - w_0) r^-(n+1) and plane k >= 1 as
    (w_k - x_k) r^-(n+1), the conjugation sign folded into the difference:
    negating a difference is exact, so each plane is bitwise
    -(x_k - w_k) r^-(n+1), and each difference squares as in r^2.

    Each difference is one rank-2 gemm, the (C, 2) rows [-w_0, 1] (or
    [w_k, -1]) times the (2, N) rows [1, x_k], written into the plane: its
    products by 1 are exact and its one addition rounds once, so it is
    bitwise the subtraction with any BLAS, and a contiguous write where a
    broadcast subtract walks row by row.  The one exception is the sign
    of a zero: -0 less +0 gives +0, not -0 (its square is +0 either way).
    """
    targets = np.asarray(targets, dtype=np.float64)
    C, N = targets.shape[0], nodes_T.shape[1]
    inv, plane = work[:, :C * N].reshape(2, C, N)
    # the rank-2 factors: [w_k, -1] per target, negated for k = 0, and
    # [1, x_k] per node
    lhs = np.empty((n + 1, C, 2))
    lhs[:, :, 0] = targets.T
    lhs[:, :, 1] = -1.0
    lhs[0] *= -1.0
    rhs = np.ones((2, N))

    def difference(k):  # x_0 - w_0 for k = 0, w_k - x_k after, into plane
        rhs[1] = nodes_T[k]
        return np.matmul(lhs[k], rhs, out=plane)

    np.multiply(difference(0), plane, out=inv)
    for k in range(1, n + 1):
        inv += np.multiply(difference(k), plane, out=plane)
    zero = None if inv.all() else inv == 0.0
    with np.errstate(divide="ignore"):
        np.power(inv, -0.5 * (n + 1), out=inv)
    if zero is not None:
        inv[zero] = 0.0
    if skip is not None:
        skip = np.asarray(skip, dtype=np.int64)
        rows = np.flatnonzero(skip >= 0)
        skip = rows, skip[rows]
    for p in range(n + 1):
        np.multiply(difference(p), inv, out=plane)
        if skip is not None:
            plane[skip] = 0.0
        yield plane


def _kernel_E_block(targets, nodes_T, n, skip=None):
    """E(x_j - w_i) component planes, shape (n+1, C, N): the planes of
    _block_planes stacked, for the callers that read them all at once."""
    C, N = len(targets), nodes_T.shape[1]
    E = np.empty((n + 1, C, N))
    for p, plane in enumerate(_block_planes(targets, nodes_T, n, skip,
                                            np.empty((2, C * N)))):
        E[p] = plane
    return E


def _row_block_terms(out, ctx, targets, nodes, G, excl):
    """out[k] += sum_j E(x_j - w_i) G[k, j] over row blocks, every block
    built in one two-row work buffer of at most ROW_BLOCK_BYTES (GEMM_ROWS
    rows when those are larger), each plane contracted as stacked
    GEMM_ROWS-row gemms and its terms added onto the block's rows of out
    (scatter_column) before the next; the last block repeats its last
    target and excluded node up to a multiple of GEMM_ROWS, and the
    repeated rows are dropped."""
    nodes_T = np.ascontiguousarray(nodes.T)
    M, N = targets.shape[0], nodes_T.shape[1]
    groups = ROW_BLOCK_BYTES // (8 * 2 * N * GEMM_ROWS)
    chunk = GEMM_ROWS * max(1, min(groups, -(-M // GEMM_ROWS)))
    work = np.empty((2, chunk * N))
    for s in range(0, M, chunk):
        e = min(s + chunk, M)
        rows = np.minimum(np.arange(s, e + (s - e) % GEMM_ROWS), e - 1)
        skip = None if excl is None else np.asarray(excl)[rows]
        for p, Ep in enumerate(_block_planes(targets[rows], nodes_T, ctx.n,
                                             skip, work)):
            # one (GEMM_ROWS, N) @ (N, 2^n) gemm per group and density
            terms = Ep.reshape(-1, GEMM_ROWS, N) @ G[:, None]
            terms = terms.reshape(len(G), -1, ctx.dim)[:, :e - s]
            scatter_column(ctx, p, ctx.n + 1, terms, out[:, s:e])


def _tile_terms(out, ctx, nodes, G):
    """out[k] += sum_j E(x_j - x_i) G[k, j] at every node i, j != i, over
    the upper-triangular node-pair tiles (rows I, nodes J >= I) of edge
    TILE_EDGE, each pair once: the kernel of rows I against nodes J is
    E(x_j - x_i), and -E^T that of rows J against nodes I (see the module
    docstring).  A diagonal tile skips each row's own node.  Each plane is
    built in one two-row work buffer and contracted with the K densities
    before the next.  A row stripe I holds the n products e_p G[:, I],
    p >= 1, e_p plane p's basis blade, and its n + 1 planes' terms while
    its tiles are walked."""
    N = nodes.shape[0]
    nodes_T = np.ascontiguousarray(nodes.T)
    work = np.empty((2, min(TILE_EDGE, N) ** 2))
    for s in range(0, N, TILE_EDGE):
        I = slice(s, min(s + TILE_EDGE, N))
        # e_p G[:, I], an exact signed permutation of each row's blades
        GI = [G[:, I]] + [scatter_column(ctx, p, ctx.n + 1, G[:, I])
                          for p in range(1, ctx.n + 1)]
        terms = np.zeros((ctx.n + 1,) + GI[0].shape)
        for t in range(s, N, TILE_EDGE):
            J = slice(t, min(t + TILE_EDGE, N))
            skip = np.arange(I.stop - s) if t == s else None
            for p, Ep in enumerate(_block_planes(nodes[I], nodes_T[:, J],
                                                 ctx.n, skip, work)):
                # one gemm per density and side
                terms[p] += Ep @ G[:, J]
                if t != s:
                    out[:, J] -= Ep.T @ GI[p]
        for p in range(ctx.n + 1):
            scatter_column(ctx, p, ctx.n + 1, terms[p], out[:, I])
        # before the next stripe's blocks are allocated
        del GI, terms


def uniform_circle(nodes):
    """(order, R, center) when the nodes form a uniform circle grid, else None.

    Other shapes than (N, 2) with N >= 8 give None.  center is the nodes'
    mean, R their mean distance from it and order sorts them by angle
    about it.  The grid is uniform when the node at sorted position p lies
    within CIRCLE_GRID_TOL * R of center + R exp(i (theta_0 + 2 pi p / N)),
    theta_0 the mean angular offset.  The gradient stencil and the FFT
    route both read this one test, kept read-only in the mesh's cache, so
    they agree on which meshes are uniform circles.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 8:
        return None
    N = nodes.shape[0]
    center = nodes.mean(axis=0)
    z = (nodes - center).view(np.complex128)[:, 0]
    R = np.abs(z).mean()
    theta = np.angle(z)
    order = np.argsort(theta)
    steps = 2.0 * np.pi * np.arange(N) / N
    ideal = R * np.exp(1j * ((theta[order] - steps).mean() + steps))
    # "not <=" so that R = 0 or a non-finite node is no circle either
    if not (R > 0.0 and np.abs(z[order] - ideal).max() <= CIRCLE_GRID_TOL * R):
        return None
    return order, R, center


def _circle_sums(G, nodes, circle):
    """sum_{j != i} E(x_j - x_i) g_j over a uniform circle, by FFT.

    G is a (K, N, 2) stack; circle is uniform_circle(nodes).  The symbol
    chat[k] = sum_m c_m omega^(k m) of c_m = 1/(omega^m - 1) =
    -1/2 - (i/2) cot(pi m / N), c_0 = 0, is (1 - N)/2 at k = 0 and
    (N + 1 - 2k)/2 elsewhere: half-integers, exact in float64.  numpy
    transforms each row of the stack on its own, so the rows of density k
    are bitwise those of a call with that density alone.  Returns
    (K, N, 2).
    """
    order, _, center = circle
    N = order.size
    chat = (N + 1 - 2.0 * np.arange(N)) / 2.0
    chat[0] = (1 - N) / 2.0
    zc = (nodes[order] - center).view(np.complex128)[:, 0]
    g = G[:, order].view(np.complex128)[..., 0]
    h = np.fft.ifft(np.fft.fft(g) * chat) / zc
    out = np.empty_like(G)
    out[:, order] = h[..., None].view(np.float64)
    return out


def accum_left(ctx, targets, nodes, g, excl=None, *, circle):
    """sum_j E(x_j - w_i) g_j for each target row w_i, skipping node excl[i]:
    the left kernel sums of g, one density (N, 2^n) or a stack (K, N, 2^n).

    Each kernel block is built once and contracted with every density in
    turn, so the rows of density k are bitwise those of a call with g[k].
    When the targets are the nodes, each skipping its own, the sum takes
    the FFT route if circle is uniform_circle(nodes), else the tile path
    (see the module docstring).  Returns (M, 2^n), or (K, M, 2^n).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    nodes = np.asarray(nodes, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    G = g.reshape((-1,) + g.shape[-2:])
    M = targets.shape[0]
    node_targets = (excl is not None and M == nodes.shape[0]
                    and np.array_equal(excl, np.arange(M))
                    and np.array_equal(targets, nodes))
    if node_targets and circle is not None:
        return _circle_sums(G, nodes, circle).reshape(g.shape)
    out = np.zeros((G.shape[0], M, ctx.dim))
    if node_targets:
        _tile_terms(out, ctx, nodes, G)
    else:
        _row_block_terms(out, ctx, targets, nodes, G, excl)
    return out.reshape(g.shape[:-2] + (M, ctx.dim))


def accum_right(ctx, targets, nodes, g, excl=None, *, circle):
    """sum_j g_j E(x_j - w_i) for each target row w_i, skipping node excl[i].

    g (one density or a stack) and circle (no default) as in accum_left.
    """
    return ctx.reverse_sign * accum_left(
        ctx, targets, nodes, np.multiply(g, ctx.reverse_sign), excl, circle=circle)


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.  Blocks of 16 targets take their kernel rows
    against every node (_kernel_E_block) and one sided_sum; no node-pair
    tile is walked.  No library path calls it: the only kernels the
    library takes factor as L_j R_i, and bvp._matrix_pv_rows sums L alone
    as one shared density.  It is kept as the parity reference of that
    separable route.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    N = nodes.shape[0]
    out = np.empty((N, ctx.dim))
    for s in range(0, N, 16):
        I = np.arange(s, min(s + 16, N))
        E = _kernel_E_block(nodes[I], nodes.T, ctx.n, I).transpose(1, 2, 0)
        # H[j, c] = nuw_j (dmat[j, i] - dmat[i, i]) for target i = I[c]
        H = batch_product(ctx, nuw[:, None], dmat[:, I] - dmat[I, I])
        out[I] = sided_sum(ctx, E, H.swapaxes(0, 1))
    return out


def pb_rhs(ctx, nodes, nuw, left, right, ts, S1):
    """Exchanged-order double singular sums at the nodes of an index array.

    For the kernel k[j, i] = left[j] right[i] (factor rows, (N, dim) each)
    computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (k[j, i] - k[j, t]) at each node t of ts, T node
    indices; returns (T, dim).  The subtraction of the k[j, t] slice uses
    the kernel-pair orthogonality (the dropped block integrates to zero),
    leaving only a weak singularity at x = t so the plain punctured sum
    converges.  It runs i outside: rhs_t = sum_{i != t}
    A_t[i] S_t[i], A_t[i] = E(x_i - t) nuw_i.  The inner sum over j factors
    through S1[i] = sum_{j != i} E(x_j - x_i) nuw_j left[j], the
    shared-density sum behind bvp._matrix_pv_rows: it is S1[i] (right[i] -
    right[t]) less the term j = t, C_t[i] left[t] (right[i] - right[t])
    with C_t[i] = E(t - x_i) nuw_t.  So S_t[i] = (S1[i] - C_t[i] left[t])
    (right[i] - right[t]), and the call builds only the (T, N) kernel block
    of the sampled nodes, which A_t and C_t share since E(t - x_i) =
    -E(x_i - t).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    Et = _kernel_E_block(nodes[ts], nodes.T, ctx.n, ts).transpose(1, 2, 0)
    A = batch_product(ctx, Et, nuw)
    Ct = batch_product(ctx, -Et, nuw[ts][:, None, :])
    S = batch_product(ctx, S1 - batch_product(ctx, Ct, left[ts][:, None, :]),
                      right - right[ts][:, None, :])
    return sided_sum(ctx, A, S)
