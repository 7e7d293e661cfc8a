"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Kernel values E(x_j - w_i) are built as component planes: a block of C
targets against N nodes has shape (n+1, C, N), plane k holding paravector
component k.  The nodes enter transposed, (n+1, N), so every plane is built
from contiguous rows.  A sum contracts the planes with the (N, 2^n)
density rows in one matmul, E @ g, which runs one BLAS gemm per plane and
gives the (n+1, C, 2^n) terms; these are scattered onto the result blades.
The order of every sum is fixed (chunks of targets, one gemm per plane and
chunk, a fixed scatter order per side), so results do not depend on the
thread count.  Products of the density rows go through
clifford_core.batch_product.
"""

from __future__ import annotations

import numpy as np

from .clifford_core import batch_product

# target-node pairs per kernel block: each block of planes stays in cache
BLOCK_PAIRS = 1 << 16


def _kernel_E_block(targets, nodes_T, n):
    """E(x_j - w_i) component planes, shape (n+1, C, N); 0 at r = 0.

    targets holds the C target rows w_i, shape (C, n+1); nodes_T the
    transposed nodes x_j, shape (n+1, N).
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
    return E


def _contract(ctx, E, g, side):
    """sum_j E_ij g_j (left) or sum_j g_j E_ij (right), shape (C, 2^n).

    E holds (n+1, C, N) kernel planes and g an (N, 2^n) density.  The left
    side scatters paravector component k outer, the right side density
    blade b outer.
    """
    T = E @ g
    out = np.zeros((E.shape[1], ctx.dim))
    if side == "left":
        for k in range(ctx.n + 1):
            for b in range(ctx.dim):
                out[:, ctx.para_idx[k, b]] += ctx.para_sign[k, b] * T[k, :, b]
    else:
        for b in range(ctx.dim):
            for k in range(ctx.n + 1):
                out[:, ctx.para_idx_right[b, k]] += \
                    ctx.para_sign_right[b, k] * T[k, :, b]
    return out


def _accumulate(ctx, targets, nodes, g, excl, side):
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    nodes_T = np.ascontiguousarray(np.asarray(nodes, dtype=np.float64).T)
    g = np.ascontiguousarray(g, dtype=np.float64)
    M = targets.shape[0]
    chunk = max(1, BLOCK_PAIRS // nodes_T.shape[1])
    out = np.empty((M, ctx.dim))
    for s in range(0, M, chunk):
        e = min(s + chunk, M)
        E = _kernel_E_block(targets[s:e], nodes_T, ctx.n)
        if excl is not None:
            skip = np.asarray(excl[s:e], dtype=np.int64)
            rows = np.flatnonzero(skip >= 0)
            E[:, rows, skip[rows]] = 0.0
        out[s:e] = _contract(ctx, E, g, side)
    return out


def accum_left(ctx, targets, nodes, g, excl=None):
    """sum_j E(x_j - w_i) g_j for each target row w_i, skipping node excl[i]."""
    return _accumulate(ctx, targets, nodes, g, excl, "left")


def accum_right(ctx, targets, nodes, g, excl=None):
    """sum_j g_j E(x_j - w_i) for each target row w_i, skipping node excl[i]."""
    return _accumulate(ctx, targets, nodes, g, excl, "right")


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    nodes_T = np.ascontiguousarray(nodes.T)
    N = nodes.shape[0]
    out = np.empty((N, ctx.dim))
    for i in range(N):
        E = _kernel_E_block(nodes[i : i + 1], nodes_T, ctx.n)[:, 0, :].T
        E[i] = 0.0
        A = batch_product(ctx, E, nuw)
        out[i] = batch_product(ctx, A, dmat[:, i, :] - dmat[i, i, :]).sum(axis=0)
    return out


def pb_rhs(ctx, nodes, nuw, kmat, t_index):
    """Exchanged-order double singular sum at node t_index.

    Computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (kmat[j, i] - kmat[j, t]), summed in index
    order for reproducibility.  The subtraction of the kmat[j, t] slice
    uses the kernel-pair orthogonality (the dropped block integrates to
    zero), leaving only a weak singularity at x = t so the plain
    punctured sum converges.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    nodes_T = np.ascontiguousarray(nodes.T)
    it = t_index
    N = nodes.shape[0]
    Et = _kernel_E_block(nodes[it : it + 1], nodes_T, ctx.n)[:, 0, :].T
    Et[it] = 0.0
    A = batch_product(ctx, Et, nuw)
    partial = np.zeros((N, ctx.dim))
    for j in range(N):
        if j == it:
            continue
        # E(x_j - x_i) for all i: x_j is the source, node rows are targets
        Eji = _kernel_E_block(nodes, nodes_T[:, j : j + 1], ctx.n)[:, :, 0].T
        Eji[j] = 0.0
        C = batch_product(ctx, Eji, nuw[j])
        D = batch_product(ctx, C, kmat[j] - kmat[j, it])
        D[it] = 0.0
        partial[j] = batch_product(ctx, A, D).sum(axis=0)
    return partial.sum(axis=0)
