"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Kernel values E(x_j - w_i) are built as component planes: a block of C
targets against N nodes has shape (n+1, C, N), plane k holding paravector
component k.  The nodes enter transposed, (n+1, N), so every plane is built
from contiguous rows.  A sum contracts the planes with the (N, 2^n)
density rows in one matmul, E @ g, which runs one BLAS gemm per plane and
gives the (n+1, C, 2^n) terms; clifford_core.scatter_pairs puts them on
the result blades from the one blade-pair table that batch_product uses
too.  The order of every sum is fixed (chunks of targets, one gemm per
plane and chunk, the table's scatter order), so results do not depend on
the thread count.

accum_left and accum_right also take a stack of K densities, (K, N, 2^n).
The kernel planes are the costly part of a sum (the gemm is almost
free), so each block is built once and contracted with every density, one
gemm per density: the rows of density k are bitwise those of a call with
that density alone.  One gemm over the widened (N, K 2^n) operand would
round differently from the single-density sums, so it is not used.  The
terms E @ g of every block are collected in one (K, n+1, M, 2^n) array
and scattered once per density at the end.

A full-mesh node-to-node sum (the targets are the N nodes themselves, in
order, each skipping only its own node) builds each kernel value once.
E(x_i - x_j) = -E(x_j - x_i) holds exactly in float64: negating a
difference is exact, and r^2, the power and the sign flip of the vector
planes then round identically.  So the sum runs over upper-triangular
tiles (I, J >= I) of edge isqrt(BLOCK_PAIRS): a tile adds E @ g[J] onto
rows I and, for J != I, subtracts E^T @ g[I] from rows J.  The sum over j
is then added tile by tile, so these rows agree with the row-block sums of
any other call to rounding, not bitwise; a stack still takes one gemm per
density, so its rows stay bitwise those of single-density calls.

The node-target sums with an (N, N, 2^n) matrix argument, pv_matrix and
pb_rhs, run over row blocks of C[i, j] = E(x_j - x_i) nuw_j, zero at
j = i: block_len targets at a time, stored source index first.  Each sum
over j is a clifford_core.sided_sum, one batched matmul per block and a
scatter, so pv_matrix's rows agree with a per-target loop of products to
rounding, not bitwise.  pb_rhs takes all sampled nodes t in one pass and
sums i outside: per block it forms P[i] = sum_j C[i, j] kmat[j, i] and
Q[i, t] = sum_j C[i, j] kmat[j, t] (one gemm against the kmat[:, t]
columns), then adds sum_i A_t[i] S_t[i] over the block, blocks in index
order (see pb_rhs).
"""

from __future__ import annotations

import math

import numpy as np

from .clifford_core import batch_product, scatter_pairs, sided_sum

# target-node pairs per kernel block: each block of planes stays in cache
BLOCK_PAIRS = 1 << 16


def _kernel_E_block(targets, nodes_T, n, skip=None):
    """E(x_j - w_i) component planes, shape (n+1, C, N); 0 at r = 0.

    targets holds the C target rows w_i, shape (C, n+1); nodes_T the
    transposed nodes x_j, shape (n+1, N).  skip[i] >= 0 names a node whose
    entry is zeroed for target i (the excluded node of a punctured sum).
    """
    E = nodes_T[:, None, :] - np.asarray(targets, dtype=np.float64).T[:, :, None]
    r2 = E[0] * E[0]
    for k in range(1, n + 1):
        r2 += E[k] * E[k]
    with np.errstate(divide="ignore"):
        inv = r2 ** (-0.5 * (n + 1))
    inv[r2 == 0.0] = 0.0
    E *= inv
    E[1:] *= -1.0
    if skip is not None:
        skip = np.asarray(skip, dtype=np.int64)
        rows = np.flatnonzero(skip >= 0)
        E[:, rows, skip[rows]] = 0.0
    return E


def _row_block_terms(T, targets, nodes_T, G, excl, n):
    """T[k] = E @ G[k] over row blocks of about BLOCK_PAIRS target-node pairs."""
    M = targets.shape[0]
    chunk = max(1, BLOCK_PAIRS // nodes_T.shape[1])
    for s in range(0, M, chunk):
        e = min(s + chunk, M)
        E = _kernel_E_block(targets[s:e], nodes_T, n,
                            None if excl is None else excl[s:e])
        for Tk, gk in zip(T, G):
            Tk[:, s:e] = E @ gk


def _node_node_terms(T, nodes, nodes_T, G, n):
    """T[k] = E @ G[k] over the node pairs, each kernel tile built once.

    Tile (I, J >= I) holds E(x_j - x_i) for i in I, j in J; its transpose,
    negated, is the kernel of rows J against nodes I (see the module
    docstring).  The diagonal tiles skip i = j.
    """
    N = nodes.shape[0]
    edge = max(1, math.isqrt(BLOCK_PAIRS))
    for s in range(0, N, edge):
        I = slice(s, min(s + edge, N))
        for t in range(s, N, edge):
            J = slice(t, min(t + edge, N))
            E = _kernel_E_block(nodes[I], nodes_T[:, J], n,
                                np.arange(I.stop - s) if t == s else None)
            for Tk, gk in zip(T, G):
                Tk[:, I] += E @ gk[J]
                if t != s:
                    Tk[:, J] -= E.transpose(0, 2, 1) @ gk[I]


def _accumulate(ctx, targets, nodes, g, excl, side):
    """Kernel sums of g, one density (N, 2^n) or a stack (K, N, 2^n).

    Each kernel block is built once and contracted with every density in
    turn, so the rows of density k are bitwise those of a call with g[k].
    When the targets are the nodes, each skipping its own, the sum takes
    the tile path (see the module docstring).  Returns (M, 2^n), or
    (K, M, 2^n) for a stack.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    nodes = np.asarray(nodes, dtype=np.float64)
    nodes_T = np.ascontiguousarray(nodes.T)
    g = np.ascontiguousarray(g, dtype=np.float64)
    G = g.reshape((-1,) + g.shape[-2:])
    M = targets.shape[0]
    # the terms E @ g of every density before the blade scatter
    T = np.zeros((G.shape[0], ctx.n + 1, M, ctx.dim))
    if (excl is not None and M == nodes.shape[0]
            and np.array_equal(excl, np.arange(M))
            and np.array_equal(targets, nodes)):
        _node_node_terms(T, nodes, nodes_T, G, ctx.n)
    else:
        _row_block_terms(T, targets, nodes_T, G, excl, ctx.n)
    out = np.empty((G.shape[0], M, ctx.dim))
    for k, Tk in enumerate(T):
        out[k] = scatter_pairs(ctx, Tk if side == "left"
                               else Tk.transpose(2, 1, 0))
    return out.reshape(g.shape[:-2] + (M, ctx.dim))


def accum_left(ctx, targets, nodes, g, excl=None):
    """sum_j E(x_j - w_i) g_j for each target row w_i, skipping node excl[i].

    g is one (N, 2^n) density or a (K, N, 2^n) stack (see _accumulate).
    """
    return _accumulate(ctx, targets, nodes, g, excl, "left")


def accum_right(ctx, targets, nodes, g, excl=None):
    """sum_j g_j E(x_j - w_i) for each target row w_i, skipping node excl[i].

    g is one (N, 2^n) density or a (K, N, 2^n) stack (see _accumulate).
    """
    return _accumulate(ctx, targets, nodes, g, excl, "right")


def block_len(N, dim):
    """Targets (or columns) per block of dense products against N nodes.

    A block holds about BLOCK_PAIRS // dim pairs, so each (..., dim) array
    of it holds about BLOCK_PAIRS values and stays in cache.
    """
    return max(1, BLOCK_PAIRS // (dim * N))


def _kernel_blocks(ctx, nodes, nuw):
    """Yield (s, e, C) with C[j, r] = E(x_j - x_{s+r}) nuw_j, 0 at j = s+r.

    C holds the kernel rows of the targets s..e-1 (block_len of them),
    source index first: shape (N, e - s, 2^n), so C.reshape(N, -1) is one
    gemm operand (pb_rhs's Q).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    nodes_T = np.ascontiguousarray(nodes.T)
    N = nodes.shape[0]
    chunk = block_len(N, ctx.dim)
    for s in range(0, N, chunk):
        e = min(s + chunk, N)
        E = _kernel_E_block(nodes[s:e], nodes_T, ctx.n, np.arange(s, e))
        C = batch_product(ctx, E.transpose(2, 1, 0), nuw[:, None, :])
        del E  # not held while the caller uses the block
        yield s, e, C


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.
    """
    out = np.empty((len(nodes), ctx.dim))
    for s, e, C in _kernel_blocks(ctx, nodes, nuw):
        blk = np.arange(s, e)
        D = dmat[:, s:e] - dmat[blk, blk]
        out[s:e] = sided_sum(ctx, "left", C.swapaxes(0, 1), D.swapaxes(0, 1))
    return out


def pb_rhs(ctx, nodes, nuw, kmat, t_index):
    """Exchanged-order double singular sums at one node or at several.

    Computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (kmat[j, i] - kmat[j, t]); returns (dim,) for an
    int t_index and (T, dim) for T indices.  The subtraction of the
    kmat[j, t] slice uses the kernel-pair orthogonality (the dropped block
    integrates to zero), leaving only a weak singularity at x = t so the
    plain punctured sum converges.  With C[i, j] = E(x_j - x_i) nuw_j the
    sum runs i outside, rhs_t = sum_{i != t} A_t[i] S_t[i], where
    A_t[i] = E(x_i - t) nuw_i and
    S_t[i] = P[i] - Q[i, t] - C[i, t] (kmat[t, i] - kmat[t, t]) with
    P[i] = sum_{j != i} C[i, j] kmat[j, i] and
    Q[i, t] = sum_{j != i} C[i, j] kmat[j, t].
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    ts = np.atleast_1d(np.asarray(t_index, dtype=np.int64))
    N, T, dim = nodes.shape[0], ts.size, ctx.dim
    Et = _kernel_E_block(nodes[ts], np.ascontiguousarray(nodes.T), ctx.n, ts)
    A = batch_product(ctx, Et.transpose(1, 2, 0), nuw)
    Kt = kmat[:, ts].reshape(N, T * dim)
    ktt = kmat[ts, ts][:, None, :]
    rhs = np.zeros((T, dim))
    for s, e, C in _kernel_blocks(ctx, nodes, nuw):
        P = sided_sum(ctx, "left", C.swapaxes(0, 1),
                      kmat[:, s:e].swapaxes(0, 1))
        # Q as one gemm, G[r, a, t, b] = sum_j C[j, r, a] kmat[j, t, b]
        G = (C.reshape(N, -1).T @ Kt).reshape(e - s, dim, T, dim)
        S = (P - batch_product(ctx, C[ts], kmat[ts, s:e] - ktt)
             - scatter_pairs(ctx, G.transpose(1, 2, 0, 3)))
        rhs += sided_sum(ctx, "left", A[:, s:e], S)
    return rhs if np.ndim(t_index) else rhs[0]
