"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Every kernel value E(x_j - w_i) is built here as component planes: a block
of C targets against N nodes has shape (n+1, C, N), plane k holding
paravector component k, built from the transposed (n+1, N) nodes.  Two
kinds of sum contract the planes, each a matmul plus one
clifford_core.scatter_pairs over the blade-pair table that batch_product
uses too.  Their order is fixed (blocks of targets, gemms in order, the
table's scatter order), so results do not depend on the thread count.

One density row per node, g of shape (N, 2^n) (accum_left, accum_right):
E @ g runs one BLAS gemm per plane.  The planes are the costly part, so a
stack of K densities shares each block, one gemm per density, and the
rows of density k are bitwise those of a call with that density alone.
A full-mesh node-to-node sum (each node a target skipping only itself)
builds each kernel value once: E(x_i - x_j) = -E(x_j - x_i) exactly in
float64 (negating a difference is exact, and r^2, the power and the sign
flip then round identically), so it runs over upper-triangular tiles
(I, J >= I) of edge isqrt(BLOCK_PAIRS), adding E @ g[J] onto rows I and,
for J != I, subtracting E^T @ g[I] from rows J.  Its rows agree with the
row-block sums of other calls to rounding, not bitwise.

One density per target, column i of an (N, N, 2^n) matrix (pv_matrix,
pb_rhs): per row block of block_len node targets, nu w is folded into the
density columns by one batch_product, and each target's planes are
contracted with its own column by one batched sided_sum.  The rows agree
with a per-target loop of products to rounding, not bitwise.
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
    """Targets (or columns) per block against N nodes.

    Each (..., dim) array of a block holds about BLOCK_PAIRS values.
    """
    return max(1, BLOCK_PAIRS // (dim * N))


def _matrix_rows(ctx, nodes, nuw, mat, centred):
    """sum_{j != i} E(x_j - x_i) nuw_j D[j, i] at every node i, (N, dim).

    D = mat, an (N, N, dim) matrix, less its diagonal mat[i, i] from
    column i if centred (see the module docstring).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    nodes_T = np.ascontiguousarray(nodes.T)
    N = nodes.shape[0]
    out = np.empty((N, ctx.dim))
    chunk = block_len(N, ctx.dim)
    for s in range(0, N, chunk):
        e = min(s + chunk, N)
        blk = np.arange(s, e)
        D = mat[:, s:e] - mat[blk, blk] if centred else mat[:, s:e]
        H = batch_product(ctx, nuw[:, None, :], D).swapaxes(0, 1)
        E = _kernel_E_block(nodes[s:e], nodes_T, ctx.n, blk)
        out[s:e] = sided_sum(ctx, "left", E.transpose(1, 2, 0), H)
    return out


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.
    """
    return _matrix_rows(ctx, nodes, nuw, dmat, True)


def pb_rhs(ctx, nodes, nuw, kmat, t_index):
    """Exchanged-order double singular sums at one node or at several.

    Computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (kmat[j, i] - kmat[j, t]); returns (dim,) for an
    int t_index and (T, dim) for T indices.  The subtraction of the
    kmat[j, t] slice uses the kernel-pair orthogonality (the dropped block
    integrates to zero), leaving only a weak singularity at x = t so the
    plain punctured sum converges.  It runs i outside: rhs_t =
    sum_{i != t} A_t[i] (P[i] - Q[i, t] - C_t[i]), A_t[i] = E(x_i - t) nuw_i,
    P[i] = sum_{j != i} E(x_j - x_i) nuw_j kmat[j, i] (pv_matrix's row
    blocks), Q[i, t] the same sum of kmat[j, t] (node-to-node tiles, one
    density nuw kmat[:, t] per t) and C_t[i] = E(t - x_i) nuw_t
    (kmat[t, i] - kmat[t, t]), the term j = t.  E(t - x_i) = -E(x_i - t).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    ts = np.atleast_1d(np.asarray(t_index, dtype=np.int64))
    P = _matrix_rows(ctx, nodes, nuw, kmat, False)
    G = batch_product(ctx, nuw, kmat[:, ts].swapaxes(0, 1))
    Q = _accumulate(ctx, nodes, nodes, G, np.arange(len(nodes)), "left")
    Et = _kernel_E_block(nodes[ts], np.ascontiguousarray(nodes.T), ctx.n,
                         ts).transpose(1, 2, 0)
    A = batch_product(ctx, Et, nuw)
    Ct = batch_product(ctx, -Et, nuw[ts][:, None, :])
    S = P - Q - batch_product(ctx, Ct, kmat[ts] - kmat[ts, ts][:, None, :])
    rhs = sided_sum(ctx, "left", A, S)
    return rhs if np.ndim(t_index) else rhs[0]
