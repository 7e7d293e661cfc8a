"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Every kernel value E(x_j - w_i) is built here as component planes: a block
of C targets against N nodes has shape (n+1, C, N), plane k holding
paravector component k, built from the transposed (n+1, N) nodes.  Every
sum is a matmul of the planes plus one clifford_core.scatter_pairs over
the blade-pair table that batch_product uses too.  Their order is fixed
(blocks, tiles and gemms in order, the table's scatter order), so results
do not depend on the thread count.

Every kernel pass holds one work buffer of bounded size, whatever the
number of targets.  One sweep (the row blocks of one call, the tiles of
one node-target pass) builds every block's planes in that buffer of n+3
rows, the planes and two scratch rows (_kernel_E_block), so a block holds
until the next one is built and each sum contracts it before then; no
block allocates planes of its own.  Targets that are not the nodes take
row blocks of the largest multiple of GEMM_ROWS rows that fits the buffer
in ROW_BLOCK_BYTES (never fewer, which outgrow it only past
2^15 / (n+3) nodes), each block contracted as stacked gemms of GEMM_ROWS
rows, the last block padded with its last target: a gemm of fixed row
count rounds every row alike wherever it stands, so a target's sum does
not depend on which targets share its call.  Node targets, each skipping
its own node, build each kernel value once: E(x_i - x_j) = -E(x_j - x_i)
exactly in float64 (negating a difference is exact, and r^2, the power
and the sign then round identically), so _node_pair_tiles yields
upper-triangular tiles (I, J >= I) of edge TILE_EDGE = 256, a buffer of
(n+3) 65536 floats, each taken onto rows I and, for J != I, negated and
transposed onto rows J.  The tile edge is fixed, not sized by bytes: it
sets how each node target's sum groups its terms, so another edge moves
sphere principal values by rounding.  The tile pass (_tile_terms) and the row-block pass
(_row_block_terms) each own their buffer, which dies when the pass
returns, before the blade scatter allocates.  Tile sums agree with
row-block sums to rounding, not bitwise.  Every library sum contracts the
planes with one density row per node, g of shape (N, 2^n), shared by
every target (accum_left, accum_right): one BLAS gemm per plane.  The
planes are the costly part, so a stack of K densities shares each block,
one gemm per density, and the rows of density k are bitwise those of a
call with that density alone.  A two-point kernel reaches the sums only as
the two factor rows of k[j, i] = L_j R_i (bvp.ProductKernel), whose
principal value is that of the ordinary density L, right-multiplied by
R_i (bvp._matrix_pv_rows), and pb_rhs then needs the sampled nodes'
kernel rows alone.  pv_matrix, the per-target tile sum of a held
(N, N, 2^n) density matrix, is no library path; it stays as the separable
route's parity reference.

Node targets on a uniform circle grid (uniform_circle) take no tiles in
accum_left and accum_right: there C(V_1) is the complex plane
(e1 = i), E(x) = 1/x and x_q - x_p = (x_p - c)(omega^(q-p) - 1) for the
nodes in angular order, omega = exp(2 pi i / N).  So sum_{q != p}
E(x_q - x_p) g_q = (x_p - c)^-1 sum_m c_m g_(p+m), c_m = 1/(omega^m - 1),
one circular correlation per density: an FFT, the exact symbol of c and
an inverse FFT (_circle_sums), O(N log N) against the tiles' O(N^2).  The
complex product commutes, so both sides give the same sums.  Callers pick
the route: circle, with no default, is uniform_circle(nodes) or None;
off-surface targets, indexed rows, trimmed or capped circles and spheres
stay on the direct paths above, their parity reference.  The FFT takes the
grid as ideal, costing about N eps relative against the direct sums over
the rounded nodes; in S1 - S2 f_t that part cancels when S2 takes the same
route, as every S1 - S2 f_t is cauchy._shifted_sums, whose full-mesh S2
(the mesh's cache) is a node-target sum.
"""

from __future__ import annotations

import numpy as np

from .clifford_core import batch_product, scatter_pairs, sided_sum

# edge of a node-target tile: it sets how each target's sum groups its
# terms, so changing it moves values by rounding
TILE_EDGE = 256

# bytes of a row block's work buffer (its n+1 planes and two scratch rows)
ROW_BLOCK_BYTES = 1 << 20

# target rows of every row-block gemm: a gemm rounds a row by its row count
# alone, so fixing the count makes each target's sum its own
GEMM_ROWS = 4

# largest node distance from the ideal uniform grid, relative to its radius
# (uniform_circle): small enough that the FFT's ideal grid costs rounding only
CIRCLE_GRID_TOL = 1e-12


def _kernel_E_block(targets, nodes_T, n, skip=None, out=None):
    """E(x_j - w_i) component planes, shape (n+1, C, N); 0 at r = 0.

    targets holds the C target rows w_i, shape (C, n+1); nodes_T the
    transposed nodes x_j, shape (n+1, N).  skip[i] >= 0 names a node whose
    entry is zeroed for target i (the excluded node of a punctured sum).
    out is a work buffer of shape (n+3, P), P >= C N, or None for a fresh
    one: the planes returned are views of its first C N columns (rows
    n+1 and n+2 are scratch), valid until out is written again.  Plane 0 is
    formed as (x_0 - w_0) r^-(n+1) and plane k >= 1 as (w_k - x_k)
    r^-(n+1), the conjugation sign folded into the difference: negating a
    difference is exact, so each plane is bitwise -(x_k - w_k) r^-(n+1).
    """
    targets = np.asarray(targets, dtype=np.float64)
    C, N = targets.shape[0], nodes_T.shape[1]
    if out is None:
        out = np.empty((n + 3, C * N))
    planes = out[:, :C * N].reshape(n + 3, C, N)
    E, r2, tmp = planes[:n + 1], planes[n + 1], planes[n + 2]
    np.subtract(nodes_T[0], targets[:, :1], out=E[0])
    for k in range(1, n + 1):
        np.subtract(targets[:, k:k + 1], nodes_T[k], out=E[k])
    np.multiply(E[0], E[0], out=r2)
    for k in range(1, n + 1):
        r2 += np.multiply(E[k], E[k], out=tmp)
    with np.errstate(divide="ignore"):
        inv = np.power(r2, -0.5 * (n + 1), out=tmp)
    if not r2.all():
        inv[r2 == 0.0] = 0.0
    E *= inv
    if skip is not None:
        skip = np.asarray(skip, dtype=np.int64)
        rows = np.flatnonzero(skip >= 0)
        E[:, rows, skip[rows]] = 0.0
    return E


def _row_block_terms(T, targets, nodes, G, excl, n):
    """T[k] = E @ G[k] over row blocks, every block's planes in one work
    buffer of at most ROW_BLOCK_BYTES (GEMM_ROWS rows when those are
    larger), each block contracted as stacked GEMM_ROWS-row gemms; the
    last block repeats its last target and excluded node up to a multiple
    of GEMM_ROWS, and the repeated rows are dropped."""
    nodes_T = np.ascontiguousarray(nodes.T)
    M, N = targets.shape[0], nodes_T.shape[1]
    groups = ROW_BLOCK_BYTES // (8 * (n + 3) * N * GEMM_ROWS)
    chunk = GEMM_ROWS * max(1, min(groups, -(-M // GEMM_ROWS)))
    work = np.empty((n + 3, chunk * N))
    for s in range(0, M, chunk):
        e = min(s + chunk, M)
        rows = np.minimum(np.arange(s, e + (s - e) % GEMM_ROWS), e - 1)
        E = _kernel_E_block(targets[rows], nodes_T, n,
                            None if excl is None else np.asarray(excl)[rows],
                            work)
        E = E.reshape(n + 1, -1, GEMM_ROWS, N)
        for Tk, gk in zip(T, G):
            Tk[:, s:e] = (E @ gk).reshape(n + 1, -1, gk.shape[1])[:, :e - s]


def _tile_terms(T, nodes, G, n):
    """T[k] = sum_j E(x_j - x_i) G[k, j] at every node i, j != i, over the
    node-pair tiles, each plane outer so it stays in cache across the K
    densities."""
    for I, J, E in _node_pair_tiles(nodes, n):
        for p, Ep in enumerate(E):
            for Tk, gk in zip(T, G):
                Tk[p, I] += Ep @ gk[J]
                if J != I:
                    Tk[p, J] -= Ep.T @ gk[I]


def _node_pair_tiles(nodes, n):
    """Yield (I, J, E) over the node-pair tiles J >= I, each pair once.

    E holds E(x_j - x_i) for i in I, j in J, and -E^T the kernel of rows J
    against nodes I (see the module docstring).  Diagonal tiles skip i = j.
    Every tile's planes share one work buffer, so a tile holds only until
    the next one is yielded.
    """
    N = nodes.shape[0]
    nodes_T = np.ascontiguousarray(nodes.T)
    work = np.empty((n + 3, min(TILE_EDGE, N) ** 2))
    for s in range(0, N, TILE_EDGE):
        I = slice(s, min(s + TILE_EDGE, N))
        for t in range(s, N, TILE_EDGE):
            yield I, slice(t, min(t + TILE_EDGE, N)), _kernel_E_block(
                nodes[I], nodes_T[:, t:t + TILE_EDGE], n,
                np.arange(I.stop - s) if t == s else None, work)


def uniform_circle(nodes):
    """(order, R, center) when the nodes form a uniform circle grid, else None.

    Other shapes than (N, 2) with N >= 8 give None.  center is the nodes'
    mean, R their mean distance from it and order sorts them by angle
    about it; both arrays are read-only.  The grid is uniform when the node
    at sorted position p lies within CIRCLE_GRID_TOL * R of center +
    R exp(i (theta_0 + 2 pi p / N)), theta_0 the mean angular offset.  The
    gradient stencil and the FFT route both read this one test, kept in
    the mesh's cache, so they agree on which meshes are uniform circles.
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
    order.flags.writeable = center.flags.writeable = False
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


def _accumulate(ctx, targets, nodes, g, excl, side, circle):
    """Kernel sums of g, one density (N, 2^n) or a stack (K, N, 2^n).

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
    # the terms E @ g of every density before the blade scatter
    T = np.zeros((G.shape[0], ctx.n + 1, M, ctx.dim))
    if node_targets:
        _tile_terms(T, nodes, G, ctx.n)
    else:
        _row_block_terms(T, targets, nodes, G, excl, ctx.n)
    out = np.empty((G.shape[0], M, ctx.dim))
    for k, Tk in enumerate(T):
        out[k] = scatter_pairs(ctx, Tk if side == "left"
                               else Tk.transpose(2, 1, 0))
    return out.reshape(g.shape[:-2] + (M, ctx.dim))


def accum_left(ctx, targets, nodes, g, excl=None, *, circle):
    """sum_j E(x_j - w_i) g_j for each target row w_i, skipping node excl[i].

    g (one density or a stack) and circle (no default) as in _accumulate.
    """
    return _accumulate(ctx, targets, nodes, g, excl, "left", circle)


def accum_right(ctx, targets, nodes, g, excl=None, *, circle):
    """sum_j g_j E(x_j - w_i) for each target row w_i, skipping node excl[i].

    g (one density or a stack) and circle (no default) as in _accumulate.
    """
    return _accumulate(ctx, targets, nodes, g, excl, "right", circle)


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.  One pass over the node-pair tiles.  No library
    path calls it: the only kernels the library takes factor as L_j R_i,
    and bvp._matrix_pv_rows sums L alone as one shared density.  It is
    kept as the parity reference of that separable route.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    N = nodes.shape[0]
    diag = dmat[np.arange(N), np.arange(N)]

    def H(rows, cols):  # nuw_j (dmat[j, i] - diag[i]), j in rows, i in cols
        return batch_product(ctx, nuw[rows, None],
                             dmat[rows, cols] - diag[cols])

    # T[i] = sum_j E[:, i, j] H[j, i]; one H block is alive at a time
    T = np.zeros((N, ctx.n + 1, ctx.dim))
    for I, J, E in _node_pair_tiles(nodes, ctx.n):
        T[I] += E.transpose(1, 0, 2) @ H(J, I).swapaxes(0, 1)
        if J != I:
            T[J] -= E.transpose(2, 0, 1) @ H(I, J).swapaxes(0, 1)
    return scatter_pairs(ctx, T.transpose(1, 0, 2))


def pb_rhs(ctx, nodes, nuw, left, right, t_index, S1):
    """Exchanged-order double singular sums at one node or at several.

    For the kernel k[j, i] = left[j] right[i] (factor rows, (N, dim) each)
    computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (k[j, i] - k[j, t]); returns (dim,) for an int
    t_index and (T, dim) for T indices.  The subtraction of the k[j, t]
    slice uses the kernel-pair orthogonality (the dropped block integrates
    to zero), leaving only a weak singularity at x = t so the plain
    punctured sum converges.  It runs i outside: rhs_t = sum_{i != t}
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
    ts = np.atleast_1d(np.asarray(t_index, dtype=np.int64))
    Et = _kernel_E_block(nodes[ts], nodes.T, ctx.n, ts).transpose(1, 2, 0)
    A = batch_product(ctx, Et, nuw)
    Ct = batch_product(ctx, -Et, nuw[ts][:, None, :])
    S = batch_product(ctx, S1 - batch_product(ctx, Ct, left[ts][:, None, :]),
                      right - right[ts][:, None, :])
    rhs = sided_sum(ctx, "left", A, S)
    return rhs if np.ndim(t_index) else rhs[0]
